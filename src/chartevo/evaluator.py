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
"""
from __future__ import annotations

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


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def live_units(
    net: PhenotypeNetwork, masks: Sequence[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Boolean mask per layer of the units that can change the output.

    A hidden unit is dead when dropout zeroes it, when it is a ReLU unit
    with no non-zero weight from a live unit and a bias <= 0 (it always
    outputs 0), or when it has no non-zero weight into a live unit of
    the next layer.  Inputs and the output are always live.
    """
    weights = net.weights
    live = [np.ones(weights[0].shape[0], dtype=bool)]
    for i in range(net.n_hidden_layers):
        keep = np.ones(weights[i].shape[1], dtype=bool) if masks is None else masks[i] != 0.0
        if net.activation == "relu":
            keep &= (weights[i][live[i]] != 0.0).any(axis=0) | (net.biases[i] > 0.0)
        live.append(keep)
    live.append(np.ones(weights[-1].shape[1], dtype=bool))
    for i in range(net.n_hidden_layers, 0, -1):
        live[i] &= (weights[i][:, live[i + 1]] != 0.0).any(axis=1)
    return live


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
    if X.shape[1] != net.weights[0].shape[0]:
        raise ValueError(f"input width {X.shape[1]} does not fit network "
                         f"expecting {net.weights[0].shape[0]}")
    if masks is not None and len(masks) != net.n_hidden_layers:
        raise ValueError("need exactly one dropout mask per hidden layer")
    live = live_units(net, masks)
    weights = [w[np.ix_(a, b)] for w, a, b in zip(net.weights, live, live[1:])]
    biases = [b[keep] for b, keep in zip(net.biases, live[1:])]
    kept_masks = None if masks is None else [m[keep] for m, keep in zip(masks, live[1:])]
    h = X
    for i, (w, b) in enumerate(zip(weights[:-1], biases)):
        pre = h @ w
        pre += b
        if net.activation == "sigmoid":
            pre = _stable_sigmoid(pre)
        else:
            np.maximum(pre, 0.0, out=pre)
        if kept_masks is not None:
            pre *= kept_masks[i]
        h = pre
    out = h @ weights[-1]
    out += biases[-1]
    return out[:, 0]


def match_flags(
    net: PhenotypeNetwork,
    tensors: DatasetTensors,
    masks: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Boolean match per chart: strictly positive output, limit hits vetoed."""
    out = forward_output(net, tensors.X, masks)
    return (out > 0.0) & ~tensors.limit_hit


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
