"""Compositional pattern-producing networks: the evolved genotype.

A genome is a DAG with seven fixed inputs (two 3-d substrate coordinates
plus a constant one) and three fixed outputs: connection weight, node
bias, and a link-expression gate.  Hidden nodes carry one of a small set
of activation functions; outputs are linear.

A genome is a shared, immutable :class:`Structure` (nodes, links and
enable flags, the checked topological order, and the CPPN programs,
built on first use) plus its own tuple of float weights, one per link in
innovation order.  Mutation and crossover (in the neat module) build new
genomes: one that changes only weights keeps its parent's structure
object, and with it the order and the programs; a new link, node or
enable flag derives a new structure from the parent's without checking
it again.  ``genome.connections`` gives the links as
:class:`ConnectionGene` rows, an unchecked view.  Genomes are immutable
and compare by content.
"""
from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

import numpy as np

N_INPUTS = 7
INPUT_IDS = tuple(range(N_INPUTS))
WEIGHT_OUTPUT, BIAS_OUTPUT, LEO_OUTPUT = 7, 8, 9
OUTPUT_IDS = (WEIGHT_OUTPUT, BIAS_OUTPUT, LEO_OUTPUT)
FIRST_HIDDEN_ID = 10
WEIGHT_LIMIT = 3.0

GENOME_MAGIC = "chartevo-cppn"
GENOME_VERSION = 1


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(a, -60.0, 60.0)))


def _gaussian(a: np.ndarray) -> np.ndarray:
    return np.exp(-np.square(a))


ACTIVATIONS: Mapping[str, object] = {
    "sigmoid": _sigmoid,
    "gaussian": _gaussian,
    "sine": np.sin,
    "linear": lambda a: a,
    "absolute": np.abs,
}
HIDDEN_ACTIVATION_NAMES = tuple(sorted(ACTIVATIONS))
_OUTPUT_BITS = {node_id: 1 << i for i, node_id in enumerate(OUTPUT_IDS)}


@dataclass(frozen=True)
class NodeGene:
    id: int
    role: str  # input | hidden | output
    activation: str

    def __post_init__(self) -> None:
        if self.role not in ("input", "hidden", "output"):
            raise ValueError(f"bad node role {self.role!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class ConnectionGene(NamedTuple):
    """One link as a read-only row of :attr:`CppnGenome.connections`; it
    checks nothing, :class:`CppnGenome`'s constructor does."""

    innovation: int
    src: int
    dst: int
    weight: float
    enabled: bool


class Structure:
    """The shared, immutable part of a genome: everything but the weights.

    ``nodes`` are sorted by id.  ``innovations``, ``srcs``, ``dsts`` and
    ``enabled`` are parallel tuples in innovation order; a genome's
    weights follow the same order, and ``positions`` maps an innovation
    to its index.  ``order`` is the topological order of
    :func:`_topological_order`.  A structure is checked once, by
    :class:`CppnGenome`'s constructor; the ``with_*`` methods derive
    others from it without checking again.  ``memo`` keeps what is worked
    out from the structure alone, such as the CPPN programs of
    :meth:`program`, so every genome sharing the structure shares it.
    """

    __slots__ = ("nodes", "innovations", "srcs", "dsts", "enabled", "order", "positions", "memo")

    def __init__(self, nodes: tuple[NodeGene, ...], innovations: tuple[int, ...], srcs: tuple[int, ...],
                 dsts: tuple[int, ...], enabled: tuple[bool, ...], order: tuple[int, ...],
                 positions: dict[int, int] | None = None) -> None:
        self.nodes, self.innovations, self.srcs, self.dsts = nodes, innovations, srcs, dsts
        self.enabled, self.order = enabled, order
        self.positions = dict(zip(innovations, range(len(innovations)))) if positions is None else positions
        # worked out from the structure alone, for every genome sharing it: the CPPN
        # programs keyed by their outputs, and what callers key in
        self.memo: dict = {}

    def _key(self) -> tuple:
        return self.nodes, self.innovations, self.srcs, self.dsts, self.enabled

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Structure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def with_enabled(self, enabled: tuple[bool, ...]) -> Structure:
        """The same nodes, links and order with other enable flags."""
        return Structure(self.nodes, self.innovations, self.srcs, self.dsts, enabled, self.order,
                         self.positions)

    def with_link(self, innovation: int, src: int, dst: int) -> Structure:
        """Plus an enabled link ``src -> dst`` between existing nodes that is not
        present and closes no cycle, as the caller has checked.

        If ``src`` comes before ``dst`` in the order, the order stands: it is
        the smallest order of a graph with fewer constraints, and it meets
        the new one.  Otherwise the order is sorted again.
        """
        at = bisect.bisect_left(self.innovations, innovation)
        srcs, dsts = _inserted(self.srcs, at, src), _inserted(self.dsts, at, dst)
        order = self.order
        if order.index(src) > order.index(dst):
            order = _topological_order(self.nodes, srcs, dsts)
        return Structure(self.nodes, _inserted(self.innovations, at, innovation), srcs, dsts,
                         _inserted(self.enabled, at, True), order)

    def with_split(self, at: int, node: NodeGene, in_innovation: int, out_innovation: int) -> Structure:
        """Link ``at`` disabled and ``node``, a hidden node new to the structure,
        spliced into it by two enabled links with fresh innovations."""
        src, dst = self.srcs[at], self.dsts[at]
        nodes = _inserted(self.nodes, bisect.bisect_left([n.id for n in self.nodes], node.id), node)
        innovations, srcs, dsts = self.innovations, self.srcs, self.dsts
        enabled = self.enabled[:at] + (False,) + self.enabled[at + 1:]
        for innovation, link_src, link_dst in sorted(((in_innovation, src, node.id),
                                                      (out_innovation, node.id, dst))):
            i = bisect.bisect_left(innovations, innovation)
            innovations, enabled = _inserted(innovations, i, innovation), _inserted(enabled, i, True)
            srcs, dsts = _inserted(srcs, i, link_src), _inserted(dsts, i, link_dst)
        return Structure(nodes, innovations, srcs, dsts, enabled, _topological_order(nodes, srcs, dsts))

    def program(self, outputs: tuple[int, ...]) -> tuple:
        """The steps that evaluate ``outputs``, a subset of OUTPUT_IDS.

        Each step is ``(node id, activation or None for linear, ((weight
        index, source id), ...))`` for one non-input node that feeds
        ``outputs``, in topological order, over its enabled incoming links
        in innovation order.  Every node's step, and the outputs each one
        feeds, are worked out once per structure; each set of outputs then
        keeps the steps that feed it.
        """
        program = self.memo.get(outputs)
        if program is None:
            steps = self.memo.get(None)  # every node's step, which each set of outputs filters
            if steps is None:
                steps = self.memo[None] = self._steps()
            wanted = 0
            for node_id in outputs:
                wanted |= _OUTPUT_BITS[node_id]
            program = self.memo[outputs] = tuple(step[:3] for step in steps if step[3] & wanted)
        return program

    def _steps(self) -> list[tuple]:
        """``(node id, activation, terms, bits of the outputs it feeds)`` per non-input node."""
        incoming: dict[int, list[tuple[int, int]]] = {}
        for j, (src, dst, on) in enumerate(zip(self.srcs, self.dsts, self.enabled)):
            if on:
                incoming.setdefault(dst, []).append((j, src))
        feeds = dict(_OUTPUT_BITS)
        for node_id in reversed(self.order):
            bits = feeds.get(node_id)
            if bits:
                for _, src in incoming.get(node_id, ()):
                    feeds[src] = feeds.get(src, 0) | bits
        hidden = {n.id: ACTIVATIONS[n.activation] for n in self.nodes
                  if n.role == "hidden" and n.activation != "linear"}
        return [(node_id, hidden.get(node_id), tuple(incoming.get(node_id, ())), feeds[node_id])
                for node_id in self.order if node_id >= N_INPUTS and node_id in feeds]


def _inserted(values: tuple, at: int, value) -> tuple:
    return values[:at] + (value,) + values[at:]


class CppnGenome:
    """Immutable CPPN genome: a shared :class:`Structure` and its own weights.

    ``CppnGenome(nodes, links)`` is the one checked way to build a genome:
    ``links`` are ``(innovation, src, dst, weight, enabled)`` tuples (or
    :class:`ConnectionGene` rows) in any order.  :meth:`of` pairs a
    structure with a weight tuple in its innovation order, unchecked.
    Genomes compare and hash by content, whether or not they share a
    structure object.
    """

    __slots__ = ("structure", "weights")

    def __init__(self, nodes: Iterable[NodeGene], links: Iterable[tuple[int, int, int, float, bool]]) -> None:
        nodes = tuple(sorted(nodes, key=lambda n: n.id))
        links = sorted(links, key=itemgetter(0))
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        inputs = tuple(n.id for n in nodes if n.role == "input")
        outputs = tuple(n.id for n in nodes if n.role == "output")
        if inputs != INPUT_IDS:
            raise ValueError(f"genome must have input nodes {INPUT_IDS}")
        if outputs != OUTPUT_IDS:
            raise ValueError(f"genome must have output nodes {OUTPUT_IDS}")
        innovations, srcs, dsts, weights, enabled = zip(*links) if links else ((),) * 5
        if len(set(innovations)) != len(innovations):
            raise ValueError("duplicate innovation numbers")
        id_set = set(ids)
        pairs = set()
        for innovation, src, dst, weight in zip(innovations, srcs, dsts, weights):
            # the one chained comparison also refuses NaN
            if not -WEIGHT_LIMIT <= weight <= WEIGHT_LIMIT:
                if not math.isfinite(weight):
                    raise ValueError("connection weight must be finite")
                raise ValueError(f"connection weight {weight} outside [-{WEIGHT_LIMIT}, {WEIGHT_LIMIT}]")
            if src not in id_set or dst not in id_set:
                raise ValueError(f"connection {innovation} references missing node")
            if dst in INPUT_IDS:
                raise ValueError("connections may not target an input node")
            if (src, dst) in pairs:
                raise ValueError(f"duplicate connection {src}->{dst}")
            pairs.add((src, dst))
        self.structure = Structure(nodes, innovations, srcs, dsts, tuple(map(bool, enabled)),
                                   _topological_order(nodes, srcs, dsts))
        self.weights = weights

    @classmethod
    def of(cls, structure: Structure, weights: tuple[float, ...]) -> CppnGenome:
        """``structure`` with ``weights``, one float within the weight limit
        per link in innovation order; unchecked, for variation operators."""
        genome = object.__new__(cls)
        genome.structure, genome.weights = structure, weights
        return genome

    @property
    def nodes(self) -> tuple[NodeGene, ...]:
        return self.structure.nodes

    @property
    def connections(self) -> tuple[ConnectionGene, ...]:
        """The links as :class:`ConnectionGene` rows in innovation order, built on each call."""
        s = self.structure
        return tuple(map(ConnectionGene, s.innovations, s.srcs, s.dsts, self.weights, s.enabled))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CppnGenome):
            return NotImplemented
        return self.weights == other.weights and self.structure == other.structure

    def __hash__(self) -> int:
        return hash((self.structure, self.weights))

    def __repr__(self) -> str:
        return f"CppnGenome(nodes={self.nodes!r}, connections={self.connections!r})"


def _topological_order(nodes: tuple[NodeGene, ...], srcs: tuple[int, ...],
                       dsts: tuple[int, ...]) -> tuple[int, ...]:
    """Kahn's sort over every link, enabled or not, always taking the smallest
    ready id: the structure itself must be acyclic, not just the expressed part."""
    indegree = {n.id: 0 for n in nodes}
    outgoing: dict[int, list[int]] = {n.id: [] for n in nodes}
    for src, dst in zip(srcs, dsts):
        indegree[dst] += 1
        outgoing[src].append(dst)
    ready = [i for i, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for dst in outgoing[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                heapq.heappush(ready, dst)
    if len(order) != len(nodes):
        raise ValueError("genome graph contains a cycle")
    return tuple(order)


def adjacency(genome: CppnGenome) -> dict[int, list[int]]:
    """Targets of every connection, enabled or not, keyed by source node."""
    outgoing: dict[int, list[int]] = {}
    structure = genome.structure
    for src, dst in zip(structure.srcs, structure.dsts):
        outgoing.setdefault(src, []).append(dst)
    return outgoing


def would_create_cycle(outgoing: Mapping[int, list[int]], src: int, dst: int) -> bool:
    """True if adding src -> dst would close a directed cycle.

    ``outgoing`` is the genome's :func:`adjacency`, built once by callers
    that check many pairs of one genome.
    """
    if src == dst:
        return True
    # DFS from dst over all connections; a path back to src means a cycle
    stack = [dst]
    seen = set()
    while stack:
        node = stack.pop()
        if node == src:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(outgoing.get(node, ()))
    return False


def activate_batch(
    genome: CppnGenome, inputs: np.ndarray | tuple, outputs: tuple[int, ...] = OUTPUT_IDS
) -> np.ndarray | list:
    """Evaluate the genome on a batch of queries, in one of two forms.

    Row form: ``inputs`` is an array of shape (n, 7); returns shape
    (n, len(outputs)), one column per output: by default (weight, bias,
    leo).

    Column form: ``inputs`` is a tuple of seven arrays or floats that
    broadcast together, such as source columns of shape (n_a, 1),
    target columns of shape (1, n_b) and floats for constant slots.
    Returns a list with the value of each node in ``outputs``, in the
    shape its own inputs broadcast to: a sum widens to (n_a, n_b) only
    where it first mixes the two sides, and an output no enabled link
    reaches is the float 0.0.

    Either way only the nodes that feed ``outputs`` are evaluated, each
    as ``0.0 + w * v + ...`` over its enabled incoming connections in
    innovation order, so every element is the same IEEE arithmetic on
    the same operands in both forms and the results agree bit for bit.
    Disabled connections contribute nothing; a non-input node with no
    enabled incoming connection sits at its activation of zero
    preactivation.
    """
    if isinstance(inputs, tuple):
        if len(inputs) != N_INPUTS:
            raise ValueError(f"column form needs {N_INPUTS} input columns")
        return _evaluate(genome, inputs, outputs, 0.0)
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != N_INPUTS:
        raise ValueError(f"inputs must have shape (n, {N_INPUTS})")
    return np.stack(_evaluate(genome, tuple(inputs.T), outputs, np.zeros(len(inputs))), axis=1)


def _evaluate(genome: CppnGenome, columns: tuple, outputs: tuple[int, ...], zero) -> list:
    weights = genome.weights
    values = dict(zip(INPUT_IDS, columns))
    for node_id, activation, terms in genome.structure.program(outputs):
        pre = zero
        for j, src in terms:
            pre = pre + weights[j] * values[src]
        values[node_id] = pre if activation is None else activation(pre)
    return [values[node_id] for node_id in outputs]


N_INITIAL_CONNECTIONS = N_INPUTS * len(OUTPUT_IDS)

# the structure every minimal genome shares: innovation numbers 0..20, input-major
_MINIMAL_STRUCTURE = CppnGenome(
    tuple(NodeGene(i, "input", "linear") for i in INPUT_IDS)
    + tuple(NodeGene(i, "output", "linear") for i in OUTPUT_IDS),
    ((innovation, src, dst, 0.0, True)
     for innovation, (src, dst) in enumerate((src, dst) for src in INPUT_IDS for dst in OUTPUT_IDS)),
).structure


def minimal_genome(rng: np.random.Generator) -> CppnGenome:
    """Fully connected inputs-to-outputs genome with uniform random weights.

    Innovation numbers 0..20 are fixed by convention (input-major order),
    so every initial genome shares markers for the same link; every
    minimal genome shares one structure object.

    Draw order: one ``rng.uniform(-1.0, 1.0, 21)`` call and nothing else.
    Its values are the ones 21 scalar ``uniform(-1.0, 1.0)`` calls would
    return, weight i going to innovation i, and it leaves the generator
    in the same state.
    """
    return CppnGenome.of(_MINIMAL_STRUCTURE, tuple(rng.uniform(-1.0, 1.0, N_INITIAL_CONNECTIONS).tolist()))


def to_text(genome: CppnGenome) -> str:
    """Serialize losslessly; float weights use repr so parsing round-trips."""
    s = genome.structure
    lines = [f"{GENOME_MAGIC} {GENOME_VERSION}"]
    lines += [f"node {n.id} {n.role} {n.activation}" for n in s.nodes]
    lines += [f"conn {innovation} {src} {dst} {weight!r} {int(on)}" for innovation, src, dst, weight, on
              in zip(s.innovations, s.srcs, s.dsts, genome.weights, s.enabled)]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> CppnGenome:
    """Parse a document written by :func:`to_text`; every check of the
    constructor runs, and an enable field must read 0 or 1.  The writer
    always ends with a newline, so a document cut inside its last line is
    refused."""
    if not text.endswith("\n"):
        raise ValueError("document is truncated (no final newline)")
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].split() != [GENOME_MAGIC, str(GENOME_VERSION)]:
        raise ValueError(f"not a {GENOME_MAGIC} version {GENOME_VERSION} document")
    nodes: list[NodeGene] = []
    links: list[tuple[int, int, int, float, bool]] = []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "node" and len(parts) == 4:
            nodes.append(NodeGene(int(parts[1]), parts[2], parts[3]))
        elif parts[0] == "conn" and len(parts) == 6 and parts[5] in ("0", "1"):
            links.append((int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]), parts[5] == "1"))
        else:
            raise ValueError(f"bad genome line: {line!r}")
    return CppnGenome(nodes, links)
