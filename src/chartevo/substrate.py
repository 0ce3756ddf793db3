"""Substrate geometry and expression of CPPN genomes into weight tensors.

A substrate is a stack of 2-d node grids placed at evenly spaced depths
in [-1, 1].  Nodes connect only to the next layer.  Each candidate link
(a, b) is assigned the CPPN's weight output at the coordinate pair, but
only where the gate output is positive; node biases come from a second
kind of query with the partner coordinate zeroed.  A layer pair's link
queries are the product of its source and target coordinates, so the
CPPN is evaluated on the two sides' coordinate columns and widened to
the (source, target) grid only where a sum first mixes them; each pair
asks only for the weight and gate outputs, and one more query asks for
every bias.  Expressed weights are then rescaled per target node (He
scaling) to keep the forward variance of the ReLU phenotype in check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cppn
from .types import ConfigError

PHENOTYPE_MAGIC = "chartevo-phenotype"
PHENOTYPE_VERSION = 1
# the format's second line; hidden units are always ReLU
PHENOTYPE_ACTIVATION = "activation relu"

LINK_OUTPUTS = (cppn.WEIGHT_OUTPUT, cppn.LEO_OUTPUT)
BIAS_OUTPUTS = (cppn.BIAS_OUTPUT,)


@dataclass(frozen=True)
class Grid:
    """A rectangular node sheet; nx spans x (time), ny spans y (channel)."""

    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ConfigError(f"grid must be at least 1x1, got {self.nx}x{self.ny}")

    @property
    def size(self) -> int:
        return self.nx * self.ny

    def coordinates(self, z: float) -> np.ndarray:
        """(size, 3) array of node coordinates, x-major to match chart layout."""
        xs = _axis(self.nx)
        ys = _axis(self.ny)
        out = np.empty((self.size, 3))
        out[:, 0] = np.repeat(xs, self.ny)
        out[:, 1] = np.tile(ys, self.nx)
        out[:, 2] = z
        return out


def _axis(n: int) -> np.ndarray:
    if n == 1:
        return np.zeros(1)
    return np.linspace(-1.0, 1.0, n)


@dataclass(frozen=True)
class SubstrateSpec:
    """Layer stack with depths assigned by equal division of [-1, 1]."""

    name: str
    layers: tuple[Grid, ...]

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise ConfigError("substrate needs an input and an output layer")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def depths(self) -> tuple[float, ...]:
        return tuple(_axis(len(self.layers)).tolist())

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(g.size for g in self.layers)

    def layer_coordinates(self, index: int) -> np.ndarray:
        return self.layers[index].coordinates(self.depths[index])

    @cached_property
    def link_columns(self) -> tuple[tuple, ...]:
        """Per adjacent-layer pair, the seven CPPN input columns of its link queries; built once.

        Source x and y have shape (n_a, 1), target x and y shape (1, n_b),
        so the pair's (n_a, n_b) queries are their broadcast product; the
        two depths, the constant 1 and the coordinates of a one-node layer
        are floats.  Arrays are read-only.
        """
        depths = self.depths
        blocks = []
        for i in range(len(self.layers) - 1):
            a, b = self.layer_coordinates(i), self.layer_coordinates(i + 1)
            blocks.append((_column(a[:, 0], (-1, 1)), _column(a[:, 1], (-1, 1)), depths[i],
                           _column(b[:, 0], (1, -1)), _column(b[:, 1], (1, -1)), depths[i + 1], 1.0))
        return tuple(blocks)

    @cached_property
    def bias_columns(self) -> tuple:
        """The seven CPPN input columns of every non-input node's bias query; built once.

        Node coordinates, layer by layer, as read-only columns of shape
        (n,), or floats if there is one such node; then a zero partner and
        the constant 1, as floats.
        """
        coords = np.concatenate([self.layer_coordinates(i) for i in range(1, len(self.layers))])
        return tuple(_column(coords[:, j], (-1,)) for j in range(3)) + (0.0, 0.0, 0.0, 1.0)


def _column(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray | float:
    """``values`` as a read-only column of ``shape``, or as a float when it holds one value."""
    if len(values) == 1:
        return float(values[0])
    column = np.ascontiguousarray(values).reshape(shape)
    column.setflags(write=False)
    return column


def standard_substrates() -> dict[str, SubstrateSpec]:
    """The three built-in geometries keyed by name."""
    return {
        "template": SubstrateSpec("template", (Grid(32, 2), Grid(1, 1))),
        "network": SubstrateSpec(
            "network", (Grid(32, 2), Grid(16, 12), Grid(8, 6), Grid(1, 1))
        ),
        "deep": SubstrateSpec(
            "deep",
            (Grid(32, 2), Grid(16, 12), Grid(16, 6), Grid(8, 6), Grid(4, 6), Grid(4, 3), Grid(1, 1)),
        ),
    }


@dataclass(frozen=True)
class PhenotypeNetwork:
    """Dense layered feed-forward net produced by expressing one genome.

    Hidden units are ReLU.  The network takes ownership of the arrays it
    is given: float64 arrays are not copied, only marked read-only.
    """

    weights: tuple[np.ndarray, ...]  # one (n_in, n_out) matrix per layer pair
    biases: tuple[np.ndarray, ...]  # one (n_out,) vector per non-input layer

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one weight matrix and bias vector per layer pair")
        weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        biases = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("weight/bias shape mismatch")
            w.setflags(write=False)
            b.setflags(write=False)
        for a, b in zip(weights, weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise ValueError("adjacent weight matrices do not chain")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def n_hidden_layers(self) -> int:
        return len(self.weights) - 1


def he_scale(weights: np.ndarray, expressed: np.ndarray) -> np.ndarray:
    """Rescale columns by sqrt(2 / fan-in), fan-in counted over expressed links.

    Target nodes with no expressed incoming link keep their (all-zero)
    column untouched.
    """
    weights = np.asarray(weights, dtype=np.float64)
    expressed = np.asarray(expressed, dtype=bool)
    if weights.shape != expressed.shape:
        raise ValueError("weights and expressed mask must have equal shape")
    fan_in = expressed.sum(axis=0)
    factors = np.where(fan_in > 0, np.sqrt(2.0 / np.maximum(fan_in, 1)), 1.0)
    return weights * factors[np.newaxis, :]


def express(genome: cppn.CppnGenome, spec: SubstrateSpec) -> PhenotypeNetwork:
    """Query the genome over every adjacent-layer pair and bias coordinate.

    One column-form CPPN call per layer pair asks for the weight and gate
    outputs; one more asks for every bias.  Expressed weights are
    He-scaled per target node.
    """
    sizes = spec.layer_sizes
    weights = []
    for columns, shape in zip(spec.link_columns, zip(sizes, sizes[1:])):
        weight, gate = cppn.activate_batch(genome, columns, LINK_OUTPUTS)
        expressed = gate > 0.0
        if np.shape(expressed) != shape:  # the gate reads one side or neither
            expressed = np.broadcast_to(expressed, shape)
        weights.append(he_scale(np.where(expressed, weight, 0.0), expressed))
    (bias,) = cppn.activate_batch(genome, spec.bias_columns, BIAS_OUTPUTS)
    if np.ndim(bias) == 0:  # the bias reads no coordinate, or there is one node
        bias = np.full(sum(sizes[1:]), bias)
    biases = []
    start = 0
    for n_b in sizes[1:]:
        biases.append(bias[start:start + n_b])
        start += n_b
    return PhenotypeNetwork(tuple(weights), tuple(biases))


def phenotype_to_text(net: PhenotypeNetwork) -> str:
    lines = [f"{PHENOTYPE_MAGIC} {PHENOTYPE_VERSION}"]
    lines.append(PHENOTYPE_ACTIVATION)
    lines.append("layers " + " ".join(str(s) for s in net.layer_sizes))
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"weights {i}")
        for row in w:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(f"biases {i}")
        lines.append(" ".join(repr(float(v)) for v in b))
    return "\n".join(lines) + "\n"


def phenotype_from_text(text: str) -> PhenotypeNetwork:
    """Parse a document written by :func:`phenotype_to_text`.

    Any malformation raises ``ValueError`` naming the line: a missing or
    mangled section header, a row with the wrong number of values, an
    activation line other than ``activation relu``, a value that is not
    finite, or a document cut short (the writer always ends with a newline,
    so a cut inside the last number is caught too).
    """
    if not text.endswith("\n"):
        raise ValueError("document is truncated (no final newline)")
    lines = text.rstrip().splitlines()
    pos = 0

    def take(what: str) -> list[str]:
        nonlocal pos
        if pos == len(lines):
            raise ValueError(f"document ends before {what}")
        pos += 1
        return lines[pos - 1].split()

    def expect(header: str) -> None:
        if take(repr(header)) != header.split():
            raise ValueError(f"line {pos}: expected {header!r}")

    def values(count: int, what: str) -> list[float]:
        words = take(what)
        if len(words) != count:
            raise ValueError(f"line {pos}: expected {count} values, got {len(words)}")
        row = [float(v) for v in words]
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {pos}: values must be finite")
        return row

    if take("the header") != [PHENOTYPE_MAGIC, str(PHENOTYPE_VERSION)]:
        raise ValueError(f"not a {PHENOTYPE_MAGIC} version {PHENOTYPE_VERSION} document")
    if take("the activation") != PHENOTYPE_ACTIVATION.split():
        raise ValueError(f"line {pos}: expected {PHENOTYPE_ACTIVATION!r}")
    words = take("the layer sizes")
    if words[:1] != ["layers"]:
        raise ValueError(f"line {pos}: expected 'layers <size> <size> ...'")
    sizes = [int(s) for s in words[1:]]
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"line {pos}: need at least two layer sizes, each >= 1")
    weights = []
    biases = []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        expect(f"weights {i}")
        weights.append(np.array([values(n_out, f"weights {i} row {r}") for r in range(n_in)]))
        expect(f"biases {i}")
        biases.append(np.array(values(n_out, f"biases {i}")))
    if pos != len(lines):
        raise ValueError(f"line {pos + 1}: unexpected content after the last layer")
    return PhenotypeNetwork(tuple(weights), tuple(biases))
