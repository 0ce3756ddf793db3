"""Fitness evaluation of phenotype networks over chart corpora.

A network matches a chart when its output preactivation is strictly
positive.  Fitness is the mean forward log return over matched charts,
multiplied by a penalty that decays exponentially in the match count,
so patterns that fire everywhere need a genuinely better mean return
than selective ones.  Charts without a forward return at the chosen
horizon are excluded outright; charts flagged as limit hits can never
match (the trade could not have been entered).

Dropout is available for training-split evaluation: hidden activations
are zeroed with probability 1 - retain and survivors rescaled by
1 / retain, one fixed mask per organism per evaluation pass, drawn from
a stream keyed by (seed, generation, organism index) so results do not
depend on evaluation order.

A population is scored in two ways at once.  Networks without a hidden
layer (nothing to mask) are stacked, ``STACK_BLOCK`` at a time, into one
matrix product over all charts; the others run the pruned per-network
forward pass with their dropout masks.  Either way each network's match
count and mean return are reduced on their own, as :func:`fitness` does.
The stacked product may sum a network's terms in another order than
:func:`fitness`'s ``X @ w``, so the two agree up to summation order: only
an output within a few ulps of zero can fall on the other side.

Hidden units are ReLU.  One loop, :func:`_forward`, runs the live
sub-network of :func:`live_units` in either precision.  A network with a
hidden layer is scored by :func:`positive_outputs` in float32, beside an
a-priori bound on each row's float32 error, ``c * u32 * (||x|| * ||v|| +
beta)``, which by Cauchy-Schwarz covers ``c * u32 * (|x| . v + beta)``
(Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3):
``v`` and ``beta`` come from one backward pass of the absolute kept
weights and biases, ReLU is 1-Lipschitz, and ``c`` is twice the count of
roundings on any path.  A row whose float32 output lies outside its bound
has float64's sign; every other row (``|out32| <= bound``, or a
non-finite value) is re-run in float64, and its flag equals the full
float64 pass up to summation order, as above.  Nets with no live hidden
unit, and nets whose values float32 cannot hold, run in float64 on every
row.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .substrate import PhenotypeNetwork
from .types import ConfigError, Dataset, FitnessReport

log = logging.getLogger(__name__)

# networks per stacked product in evaluate_population: a (STACK_BLOCK, n)
# float64 output buffer, reused block to block, bounds the extra memory
STACK_BLOCK = 32

# float32 unit roundoff, and the spacing of float32 subnormals: no float32
# (or float64) product that underflows is off by more than ETA32
U32 = 2.0 ** -24
ETA32 = 2.0 ** -149
# the float32 pass runs only while every non-zero weight and bias is a normal
# float32 below F32_BIG and no value the pass can reach grows past F32_BIG, so
# nothing overflows and converting a weight costs at most U32 relative
F32_TINY = 2.0 ** -126
F32_BIG = 2.0 ** 100


@dataclass(frozen=True)
class EvalConfig:
    k: int = 50
    alpha: float = 100000.0
    dropout_retain: float = 0.8
    dropout_enabled: bool = True
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ConfigError("horizon k must be positive")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if not 0.0 < self.dropout_retain <= 1.0:
            raise ConfigError("dropout_retain must lie in (0, 1]")


@dataclass(frozen=True)
class DatasetTensors:
    """The rows of one split that have a return at horizon k, ready for matmul."""

    split: str
    k: int
    X: np.ndarray  # (n, 64) charts flattened time-major
    returns: np.ndarray  # (n,) forward log returns at k
    limit_hit: np.ndarray  # (n,) bool

    def __post_init__(self) -> None:
        for name in ("X", "returns", "limit_hit"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @functools.cached_property
    def X32(self) -> np.ndarray:
        """``float32_with_ones(X)``, built once, when a hidden-layer net first needs it."""
        X32 = float32_with_ones(self.X)
        X32.setflags(write=False)
        return X32

    @functools.cached_property
    def x_norms(self) -> np.ndarray:
        """Each chart's float64 norm over ``X32`` (ones column left out), for the error bound."""
        x_norms = _row_norms(self.X32)
        x_norms.setflags(write=False)
        return x_norms

    @functools.cached_property
    def x_max(self) -> np.float32:
        """The largest magnitude in ``X32``, at least 1 (the ones column), found once."""
        return _max_magnitude(self.X32)

    def __len__(self) -> int:
        return len(self.returns)

    @classmethod
    def from_dataset(cls, dataset: Dataset, k: int) -> DatasetTensors:
        n, steps, channels = dataset.values.shape
        X = dataset.values.reshape(n, steps * channels)
        if k in dataset.horizons:
            returns = dataset.returns[:, dataset.horizons.index(k)]
        else:
            returns = np.full(n, np.nan)
        keep = ~np.isnan(returns)
        limit = dataset.limit_hit
        if not keep.all():
            log.debug("%s: %d charts lack a %d-day return and are excluded",
                      dataset.split, n - int(keep.sum()), k)
            X, returns, limit = X[keep], returns[keep], limit[keep]
        return cls(dataset.split, k, X, returns, limit)


def live_units(
    net: PhenotypeNetwork, masks: Sequence[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Boolean mask per layer of the units that can change the output.

    A hidden unit is dead when dropout zeroes it, when it has no non-zero
    weight from a live unit and a bias <= 0 (its ReLU always outputs 0),
    or when it has no non-zero weight into a live unit of the next layer.
    Inputs and the output are always live.
    """
    weights = net.weights
    live = [np.ones(weights[0].shape[0], dtype=bool)]
    for i in range(net.n_hidden_layers):
        keep = np.ones(weights[i].shape[1], dtype=bool) if masks is None else masks[i] != 0.0
        keep &= (weights[i][live[i]] != 0.0).any(axis=0) | (net.biases[i] > 0.0)
        live.append(keep)
    live.append(np.ones(weights[-1].shape[1], dtype=bool))
    for i in range(net.n_hidden_layers, 0, -1):
        live[i] &= (weights[i][:, live[i + 1]] != 0.0).any(axis=1)
    return live


def float32_with_ones(X: np.ndarray) -> np.ndarray:
    """``X`` in float32 with a column of ones appended: the first layer's bias rides in its GEMM.

    A value beyond float32's range becomes inf, which sends every network
    scored on ``X`` to the float64 pass.
    """
    X32 = np.ones((X.shape[0], X.shape[1] + 1), dtype=np.float32)
    with np.errstate(over="ignore"):
        X32[:, :-1] = X
    return X32


def _max_magnitude(X32: np.ndarray) -> np.float32:
    return max(X32.max(initial=1.0), -X32.min(initial=0.0))


def _row_norms(X32: np.ndarray) -> np.ndarray:
    """Norm of each chart in ``X32`` (ones column left out), its exact squares summed in float64."""
    return np.sqrt(np.einsum("ij,ij->i", X32[:, :-1], X32[:, :-1], dtype=np.float64))


def _check_inputs(net: PhenotypeNetwork, X: np.ndarray, masks) -> None:
    if X.shape[1] != net.weights[0].shape[0]:
        raise ValueError(f"input width {X.shape[1]} does not fit network "
                         f"expecting {net.weights[0].shape[0]}")
    if masks is not None and len(masks) != net.n_hidden_layers:
        raise ValueError("need exactly one dropout mask per hidden layer")


def _live_subnet(net: PhenotypeNetwork, masks: Sequence[np.ndarray] | None) -> tuple:
    """``(weights, biases, masks)`` of the sub-network of :func:`live_units`."""
    live = live_units(net, masks)
    weights = [w[np.ix_(a, b)] for w, a, b in zip(net.weights, live, live[1:])]
    biases = [b[keep] for b, keep in zip(net.biases, live[1:])]
    kept_masks = None if masks is None else [m[keep] for m, keep in zip(masks, live[1:])]
    return weights, biases, kept_masks


def _forward(X: np.ndarray, weights: list, biases: list, masks: list | None = None) -> np.ndarray:
    """Output column 0 of a ReLU net in the precision of ``X`` and the weights; a first
    bias of None rides in ``X``'s ones column, and ``masks`` scale hidden layers after ReLU."""
    h = X
    for i, (w, b) in enumerate(zip(weights[:-1], biases)):
        h = h @ w
        if b is not None:
            h += b
        np.maximum(h, 0.0, out=h)
        if masks is not None:
            h *= masks[i]
    out = h @ weights[-1]
    out += biases[-1]
    return out[:, 0]


def forward_output(
    net: PhenotypeNetwork,
    X: np.ndarray,
    masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Output preactivations, shape (n,); optional fixed dropout masks.

    ``masks`` holds one per hidden layer (scaled keep/drop factors); the
    output layer is never masked.  Only the sub-network of
    :func:`live_units` is run, over all of ``X`` in one pass: dead units
    contribute exact zeros, so the result equals the dense pass up to
    summation order.
    """
    _check_inputs(net, X, masks)
    return _forward(X, *_live_subnet(net, masks))


def _fits_float32(a: np.ndarray) -> bool:
    """Every entry of the non-negative ``a`` is 0 or a normal float32 below F32_BIG (NaN is not)."""
    return bool(np.all((a == 0.0) | ((a >= F32_TINY) & (a < F32_BIG))))


def _error_bound(weights: list, biases: list, x_max: float) -> tuple[float, float] | None:
    """``(c * u32 * ||v||, c * u32 * beta)`` for the folded sub-network, or None
    when float32 cannot hold its pass over inputs up to ``x_max`` in size.

    The output's float32 error on a chart ``x`` is at most
    ``c * u32 * (|x| . v + beta)`` plus ETA32 per underflowing product,
    carried along to the output (folded into beta); by Cauchy-Schwarz that
    is at most ``c * u32 * (||x|| * ||v|| + beta)``.  ``c`` counts the
    roundings on a path, fan-in plus two per layer plus one for the input,
    doubled to cover second-order terms, the float64 reference's own error
    and the bound's own float64 rounding.
    """
    abs_w = [np.abs(w) for w in weights]
    abs_b = [np.abs(b) for b in biases]
    reach = np.full(len(weights[0]), x_max)  # largest value any unit can reach
    for w, b in zip(abs_w, abs_b):
        reach = reach @ w + b
        if not (_fits_float32(w) and _fits_float32(b) and reach.max() < F32_BIG):
            return None
    v, beta = np.ones(1), abs_b[-1][0]
    c, underflows = 1, 0.0
    for i in range(len(weights) - 1, -1, -1):
        c += len(weights[i]) + 2
        underflows += (len(weights[i]) + 1) * v.sum()
        v = abs_w[i] @ v
        if i:
            beta += abs_b[i - 1] @ v
    cu = 2 * c * U32
    if cu >= 0.01:
        return None
    underflows += v.sum()
    return cu * float(np.linalg.norm(v)), cu * beta + ETA32 * underflows


def positive_outputs(
    net: PhenotypeNetwork,
    X: np.ndarray,
    masks: Sequence[np.ndarray] | None = None,
    tensors: DatasetTensors | None = None,
) -> np.ndarray:
    """Per row, whether ``forward_output(net, X, masks)`` is strictly positive.

    ``tensors``, if given, is the :class:`DatasetTensors` whose ``X`` this
    is: its cached ``X32``, ``x_max`` and ``x_norms`` are used, else they
    are built here when needed.  The live sub-network, sliced once, runs
    in float32 with the first bias in the ones column and each dropout
    mask folded into the next layer's weights (``relu(z) * m ==
    relu(z * m)`` for ``m >= 0``).  A row whose float32 output lies
    outside the error bound of :func:`_error_bound` keeps its float32
    sign, which is the float64 sign; every other row (NaN compares false)
    is re-run in float64 on the same slice, where a row within a few
    float64 ulps of zero may round to the other sign than a pass over all
    rows.  Networks with no live hidden unit, and networks float32 cannot
    hold, run in float64 on every row; one with no hidden layer runs
    :func:`forward_output`.
    """
    _check_inputs(net, X, masks)
    if not net.n_hidden_layers:
        return forward_output(net, X, masks) > 0.0
    weights, biases, kept_masks = _live_subnet(net, masks)
    flags = np.empty(len(X), dtype=bool)
    rows = slice(None)  # the rows float64 decides: all, unless float32 certifies some
    if all(len(b) for b in biases[:-1]) and all((m >= 0.0).all() for m in masks or ()):
        folded = [w if not i or masks is None else w * kept_masks[i - 1][:, None]
                  for i, w in enumerate(weights)]
        folded[-1] = folded[-1][:, :1]  # forward_output's output
        folded_biases = biases[:-1] + [biases[-1][:1]]
        X32 = float32_with_ones(X) if tensors is None else tensors.X32
        x_max = _max_magnitude(X32) if tensors is None else tensors.x_max
        bound = _error_bound(folded, folded_biases, x_max)
        if bound is not None:
            x_norms = _row_norms(X32) if tensors is None else tensors.x_norms
            w32 = [np.vstack([folded[0], biases[0]])] + folded[1:]
            b32 = [None] + [b.astype(np.float32) for b in folded_biases[1:]]
            with np.errstate(all="ignore"):  # signs rest on the bound test, not on FP flags
                out = _forward(X32, [w.astype(np.float32) for w in w32], b32)
                flags = out > 0.0
                slope, offset = bound
                rows = np.flatnonzero(~(np.abs(out) > slope * x_norms + offset))
    X_rows = X[rows]
    if len(X_rows):
        flags[rows] = _forward(X_rows, weights, biases, kept_masks) > 0.0
    return flags


def match_flags(
    net: PhenotypeNetwork,
    tensors: DatasetTensors,
    masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Boolean match per chart: strictly positive output, limit hits vetoed.

    Signs come from :func:`positive_outputs`: float32 where its error
    bound certifies them, float64 for the other rows, so flags equal the
    float64 pass up to summation order.
    """
    return positive_outputs(net, tensors.X, masks, tensors) & ~tensors.limit_hit


def penalty(match_count: int, alpha: float) -> float:
    """exp(-6 * matches / alpha): halves selectivity pressure around alpha/6."""
    return math.exp(-6.0 * match_count / alpha)


def dropout_rng(seed: int, generation: int, organism: int) -> np.random.Generator:
    """Mask stream for one (generation, organism); independent of scheduling."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(generation, organism)))


def dropout_masks(
    net: PhenotypeNetwork, retain: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """One inverted-dropout mask per hidden layer: kept units scale by 1/retain."""
    sizes = net.layer_sizes[1:-1]
    return [(rng.random(s) < retain) / retain for s in sizes]


def _as_tensors(data: Dataset | DatasetTensors, k: int) -> DatasetTensors:
    if isinstance(data, DatasetTensors):
        if data.k != k:
            raise ConfigError(f"tensors were built for k={data.k}, config wants k={k}")
        return data
    return DatasetTensors.from_dataset(data, k)


def fitness(
    net: PhenotypeNetwork,
    data: Dataset | DatasetTensors,
    config: EvalConfig,
    masks: Sequence[np.ndarray] | None = None,
) -> FitnessReport:
    """Score one network on one split."""
    tensors = _as_tensors(data, config.k)
    return _report(match_flags(net, tensors, masks), tensors, config)


def _report(flags: np.ndarray, tensors: DatasetTensors, config: EvalConfig) -> FitnessReport:
    """Fitness of one network from its match flags, summed in row order."""
    count = int(flags.sum())
    mean_return = float(tensors.returns[flags].sum() / count) if count else 0.0
    return FitnessReport.from_stats(config.k, count, mean_return, penalty(count, config.alpha))


def evaluate_population(
    nets: Sequence[PhenotypeNetwork],
    data: Dataset | DatasetTensors,
    config: EvalConfig,
    generation: int = 0,
) -> list[FitnessReport]:
    """Score a whole generation; results line up with ``nets`` by index.

    Networks with no hidden layer are scored ``STACK_BLOCK`` at a time:
    one matrix product of their stacked weights with all charts, plus
    biases, then the sign test and the limit-hit veto.  No dropout stream
    is drawn for them, since there is nothing to mask.  Every other
    network runs :func:`fitness` with, when dropout is enabled, its own
    mask stream keyed by (generation, index), so no report depends on
    which others are scored.

    Flags, and so reports, equal per-network :func:`fitness` up to
    summation order: the stacked product adds each network's terms in
    its own order, so an output within a few ulps of zero can take the
    other sign.  The reduction from flags to a report is the same.
    """
    tensors = _as_tensors(data, config.k)
    reports: list[FitnessReport | None] = [None] * len(nets)
    flat = [i for i, net in enumerate(nets) if net.n_hidden_layers == 0]
    if flat:
        XT = tensors.X.T
        tradeable = ~tensors.limit_hit
        out = np.empty((min(STACK_BLOCK, len(flat)), len(tensors)))
        for start in range(0, len(flat), STACK_BLOCK):
            block = flat[start:start + STACK_BLOCK]
            W = np.concatenate([nets[i].weights[0] for i in block], axis=1)
            b = np.concatenate([nets[i].biases[0] for i in block])
            pre = out[:len(block)]
            np.matmul(W.T, XT, out=pre)
            pre += b[:, None]
            flags = pre > 0.0
            flags &= tradeable
            for i, row in zip(block, flags):
                reports[i] = _report(row, tensors, config)
    for i, net in enumerate(nets):
        if net.n_hidden_layers:
            masks = None
            if config.dropout_enabled:
                rng = dropout_rng(config.rng_seed, generation, i)
                masks = dropout_masks(net, config.dropout_retain, rng)
            reports[i] = fitness(net, tensors, config, masks)
    return reports
