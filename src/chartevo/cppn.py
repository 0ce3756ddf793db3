"""Compositional pattern-producing networks: the evolved genotype.

A genome is a DAG with seven fixed inputs (two 3-d substrate coordinates
plus a constant one) and three fixed outputs: connection weight, node
bias, and a link-expression gate.  Hidden nodes carry one of a small set
of activation functions; outputs are linear.  Genomes are immutable;
mutation and crossover (in the neat module) build new ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

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


@dataclass(frozen=True, slots=True, init=False)
class ConnectionGene:
    """One link; a run builds hundreds of thousands, so construction is lean.

    The one chained comparison also refuses NaN; the fields are stored
    through the slot descriptors, which a frozen class's ``__setattr__``
    would refuse.
    """

    innovation: int
    src: int
    dst: int
    weight: float
    enabled: bool

    def __init__(self, innovation: int, src: int, dst: int, weight: float, enabled: bool) -> None:
        if not -WEIGHT_LIMIT <= weight <= WEIGHT_LIMIT:
            if not math.isfinite(weight):
                raise ValueError("connection weight must be finite")
            raise ValueError(f"connection weight {weight} outside [-{WEIGHT_LIMIT}, {WEIGHT_LIMIT}]")
        _set_innovation(self, innovation)
        _set_src(self, src)
        _set_dst(self, dst)
        _set_weight(self, weight)
        _set_enabled(self, enabled)


_set_innovation, _set_src, _set_dst, _set_weight, _set_enabled = (
    ConnectionGene.__dict__[name].__set__ for name in ("innovation", "src", "dst", "weight", "enabled"))


@dataclass(frozen=True)
class CppnGenome:
    """Immutable CPPN genome; nodes sorted by id, connections by innovation."""

    nodes: tuple[NodeGene, ...]
    connections: tuple[ConnectionGene, ...]

    def __post_init__(self) -> None:
        nodes = tuple(sorted(self.nodes, key=lambda n: n.id))
        conns = tuple(sorted(self.connections, key=lambda c: c.innovation))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "connections", conns)
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        inputs = tuple(n.id for n in nodes if n.role == "input")
        outputs = tuple(n.id for n in nodes if n.role == "output")
        if inputs != INPUT_IDS:
            raise ValueError(f"genome must have input nodes {INPUT_IDS}")
        if outputs != OUTPUT_IDS:
            raise ValueError(f"genome must have output nodes {OUTPUT_IDS}")
        innovations = [c.innovation for c in conns]
        if len(set(innovations)) != len(innovations):
            raise ValueError("duplicate innovation numbers")
        id_set = set(ids)
        pairs = set()
        for c in conns:
            if c.src not in id_set or c.dst not in id_set:
                raise ValueError(f"connection {c.innovation} references missing node")
            if c.dst in INPUT_IDS:
                raise ValueError("connections may not target an input node")
            if (c.src, c.dst) in pairs:
                raise ValueError(f"duplicate connection {c.src}->{c.dst}")
            pairs.add((c.src, c.dst))
        object.__setattr__(self, "_order", _topological_order(nodes, conns))

    @classmethod
    def _reweighted(cls, parent: CppnGenome, connections: tuple[ConnectionGene, ...]) -> CppnGenome:
        """``parent``'s structure with new weights and enable flags, unchecked.

        ``connections`` must hold exactly ``parent``'s (innovation, src,
        dst) sequence, so the parent's nodes, checks and cached order all
        still hold; only mutation and crossover build genomes this way.
        """
        genome = object.__new__(cls)
        object.__setattr__(genome, "nodes", parent.nodes)
        object.__setattr__(genome, "connections", connections)
        object.__setattr__(genome, "_order", parent._order)
        return genome

    def topological_order(self) -> tuple[int, ...]:
        """Node ids in dependency order (inputs first); cached at construction."""
        return self._order


def _topological_order(nodes: tuple[NodeGene, ...], conns: tuple[ConnectionGene, ...]) -> tuple[int, ...]:
    # Kahn over every connection, enabled or not: structure itself must be
    # acyclic, not just the expressed part.
    indegree = {n.id: 0 for n in nodes}
    outgoing: dict[int, list[int]] = {n.id: [] for n in nodes}
    for c in conns:
        indegree[c.dst] += 1
        outgoing[c.src].append(c.dst)
    ready = sorted(i for i, d in indegree.items() if d == 0)
    order: list[int] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        inserted = False
        for dst in outgoing[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
                inserted = True
        if inserted:
            ready.sort()
    if len(order) != len(nodes):
        raise ValueError("genome graph contains a cycle")
    return tuple(order)


def adjacency(genome: CppnGenome) -> dict[int, list[int]]:
    """Targets of every connection, enabled or not, keyed by source node."""
    outgoing: dict[int, list[int]] = {}
    for c in genome.connections:
        outgoing.setdefault(c.src, []).append(c.dst)
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
    values = dict(zip(INPUT_IDS, columns))
    for node_id, activation, terms in _program(genome, outputs):
        pre = zero
        for weight, src in terms:
            pre = pre + weight * values[src]
        values[node_id] = pre if activation is None else activation(pre)
    return [values[node_id] for node_id in outputs]


_OUTPUT_BITS = {node_id: 1 << i for i, node_id in enumerate(OUTPUT_IDS)}

# (genome, its programs by outputs) for the genome evaluated last: ``express``
# queries one genome's blocks back to back, so each genome's per-genome work
# runs once per expression, and nothing is kept for the genomes before it
_last_programs: tuple = (None, {})


def _program(genome: CppnGenome, outputs: tuple[int, ...]) -> tuple:
    """The steps that evaluate ``outputs``, a subset of OUTPUT_IDS.

    Each step is ``(node id, activation or None for linear, ((weight,
    source id), ...))`` for one non-input node that feeds ``outputs``, in
    topological order, over its enabled incoming connections in
    innovation order.  The steps of every node and the outputs each one
    feeds are worked out once for the genome evaluated last; each set of
    outputs then keeps the steps that feed it.
    """
    global _last_programs
    owner, programs = _last_programs
    if owner is not genome:
        programs = {}
        _last_programs = (genome, programs)
    program = programs.get(outputs)
    if program is None:
        steps = programs.get(None)  # every node's step, which each set of outputs filters
        if steps is None:
            steps = programs[None] = _steps(genome)
        wanted = 0
        for node_id in outputs:
            wanted |= _OUTPUT_BITS[node_id]
        program = programs[outputs] = tuple(step[:3] for step in steps if step[3] & wanted)
    return program


def _steps(genome: CppnGenome) -> list[tuple]:
    """``(node id, activation, terms, bits of the outputs it feeds)`` per non-input node."""
    incoming: dict[int, list[tuple[float, int]]] = {}
    for c in genome.connections:
        if c.enabled:
            incoming.setdefault(c.dst, []).append((c.weight, c.src))
    order = genome.topological_order()
    feeds = dict(_OUTPUT_BITS)
    for node_id in reversed(order):
        bits = feeds.get(node_id)
        if bits:
            for _, src in incoming.get(node_id, ()):
                feeds[src] = feeds.get(src, 0) | bits
    hidden = {n.id: ACTIVATIONS[n.activation] for n in genome.nodes
              if n.role == "hidden" and n.activation != "linear"}
    return [(node_id, hidden.get(node_id), tuple(incoming.get(node_id, ())), feeds[node_id])
            for node_id in order if node_id >= N_INPUTS and node_id in feeds]


def clamp_weight(weight: float) -> float:
    return min(WEIGHT_LIMIT, max(-WEIGHT_LIMIT, weight))


N_INITIAL_CONNECTIONS = N_INPUTS * len(OUTPUT_IDS)


def minimal_genome(rng: np.random.Generator) -> CppnGenome:
    """Fully connected inputs-to-outputs genome with uniform random weights.

    Innovation numbers 0..20 are fixed by convention (input-major order),
    so every initial genome shares markers for the same link.

    Draw order: one ``rng.uniform(-1.0, 1.0, 21)`` call and nothing else.
    Its values are the ones 21 scalar ``uniform(-1.0, 1.0)`` calls would
    return, weight i going to innovation i, and it leaves the generator
    in the same state.
    """
    nodes = [NodeGene(i, "input", "linear") for i in INPUT_IDS]
    nodes += [NodeGene(i, "output", "linear") for i in OUTPUT_IDS]
    weights = iter(rng.uniform(-1.0, 1.0, N_INITIAL_CONNECTIONS).tolist())
    conns = []
    innovation = 0
    for src in INPUT_IDS:
        for dst in OUTPUT_IDS:
            conns.append(ConnectionGene(innovation, src, dst, next(weights), True))
            innovation += 1
    return CppnGenome(tuple(nodes), tuple(conns))


def to_text(genome: CppnGenome) -> str:
    """Serialize losslessly; float weights use repr so parsing round-trips."""
    lines = [f"{GENOME_MAGIC} {GENOME_VERSION}"]
    for n in genome.nodes:
        lines.append(f"node {n.id} {n.role} {n.activation}")
    for c in genome.connections:
        lines.append(f"conn {c.innovation} {c.src} {c.dst} {c.weight!r} {int(c.enabled)}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> CppnGenome:
    """Parse a document written by :func:`to_text`; every check of the
    constructor runs.  The writer always ends with a newline, so a
    document cut inside its last line is refused."""
    if not text.endswith("\n"):
        raise ValueError("document is truncated (no final newline)")
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].split() != [GENOME_MAGIC, str(GENOME_VERSION)]:
        raise ValueError(f"not a {GENOME_MAGIC} version {GENOME_VERSION} document")
    nodes: list[NodeGene] = []
    conns: list[ConnectionGene] = []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "node" and len(parts) == 4:
            nodes.append(NodeGene(int(parts[1]), parts[2], parts[3]))
        elif parts[0] == "conn" and len(parts) == 6:
            conns.append(
                ConnectionGene(int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]), bool(int(parts[5])))
            )
        else:
            raise ValueError(f"bad genome line: {line!r}")
    return CppnGenome(tuple(nodes), tuple(conns))
