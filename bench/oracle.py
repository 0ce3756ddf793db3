"""Output checks computed apart from the program.

Nothing here imports ``chartevo``: the ``.net`` reader, the forward pass,
the corpus reader and the chart-count rule are written from the file
formats and the method's definition, so a fault in the program's own
code cannot hide itself by agreeing with the check.

Every ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""
from __future__ import annotations

import csv
import datetime
import json
import math
import os

import numpy as np

CHART_STEPS = 32
# a chart whose output lies within this share of the sum of absolute terms
# may fall on either side of zero under another summation order
BORDERLINE_SHARE = 1e-12
# tighter than the 1e-9 the method asks for, so a change in the 10th
# significant digit (at least 1e-10 relative) cannot pass
FITNESS_REL_TOL = 1e-11
THRESHOLD_REL_TOL = 1e-12


# ---------------------------------------------------------------- patterns


class Net:
    """A layered phenotype read from the ``.net`` text format."""

    def __init__(self, activation: str, weights: list, biases: list) -> None:
        if activation not in ("relu", "sigmoid"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.activation = activation
        self.weights = weights
        self.biases = biases


def read_net(text: str) -> Net:
    lines = text.strip().splitlines()
    if len(lines) < 3 or lines[0].split() != ["chartevo-phenotype", "1"]:
        raise ValueError("not a chartevo-phenotype 1 document")
    key, activation = lines[1].split()
    sizes_line = lines[2].split()
    if key != "activation" or sizes_line[0] != "layers":
        raise ValueError("bad .net header")
    sizes = [int(s) for s in sizes_line[1:]]
    weights, biases = [], []
    cursor = 3
    for i in range(len(sizes) - 1):
        if cursor + sizes[i] + 2 >= len(lines):
            raise ValueError(f"document ends inside layer {i}")
        if lines[cursor] != f"weights {i}":
            raise ValueError(f"expected 'weights {i}' at line {cursor + 1}")
        rows = [[float(v) for v in lines[cursor + 1 + r].split()] for r in range(sizes[i])]
        cursor += 1 + sizes[i]
        w = np.array(rows, dtype=np.float64)
        if w.shape != (sizes[i], sizes[i + 1]):
            raise ValueError(f"layer {i} weights have shape {w.shape}")
        if lines[cursor] != f"biases {i}":
            raise ValueError(f"expected 'biases {i}' at line {cursor + 1}")
        b = np.array([float(v) for v in lines[cursor + 1].split()], dtype=np.float64)
        if b.shape != (sizes[i + 1],):
            raise ValueError(f"layer {i} biases have shape {b.shape}")
        cursor += 2
        weights.append(w)
        biases.append(b)
    if cursor != len(lines):
        raise ValueError("trailing lines after the last layer")
    return Net(activation, weights, biases)


def write_net(net: Net) -> str:
    sizes = [net.weights[0].shape[0]] + [w.shape[1] for w in net.weights]
    lines = ["chartevo-phenotype 1", f"activation {net.activation}",
             "layers " + " ".join(str(s) for s in sizes)]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"weights {i}")
        lines.extend(" ".join(repr(float(v)) for v in row) for row in w)
        lines.append(f"biases {i}")
        lines.append(" ".join(repr(float(v)) for v in b))
    return "\n".join(lines) + "\n"


def random_net(rng: np.random.Generator, sizes=(64, 192, 48, 1), density: float = 0.6) -> Net:
    """A network-substrate-sized pattern with sparse He-scaled weights.

    Biases are zero, so the output is positively homogeneous in the chart
    and its sign depends on the chart's shape, not its scale.
    """
    weights, biases = [], []
    for n_in, n_out in zip(sizes, sizes[1:]):
        mask = rng.random((n_in, n_out)) < density
        w = rng.normal(0.0, math.sqrt(2.0 / (density * n_in)), (n_in, n_out)) * mask
        weights.append(w)
        biases.append(np.zeros(n_out))
    return Net("relu", weights, biases)


def forward(net: Net, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output preactivation per row, and the sum of absolute terms behind it."""
    h, h_abs = X, np.abs(X)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = h @ w + b
        pre_abs = h_abs @ np.abs(w) + np.abs(b)
        if i == last:
            return pre[:, 0], pre_abs[:, 0]
        if net.activation == "relu":
            h = np.maximum(pre, 0.0)
            h_abs = np.where(pre > 0.0, pre_abs, 0.0)
        else:
            h = 0.5 * (1.0 + np.tanh(0.5 * pre))
            h_abs = np.abs(h)
    raise AssertionError("unreachable")


def live_flop_share(weights) -> float:
    """FLOPs on units with a non-zero path to the output, over dense FLOPs."""
    live = [None] * (len(weights) + 1)
    live[-1] = np.ones(weights[-1].shape[1], dtype=bool)
    for i in range(len(weights) - 1, -1, -1):
        live[i] = (weights[i][:, live[i + 1]] != 0.0).any(axis=1)
    dense = sum(w.shape[0] * w.shape[1] for w in weights)
    kept = sum(int(live[i].sum()) * int(live[i + 1].sum()) for i in range(len(weights)))
    return kept / dense if dense else 1.0


# ---------------------------------------------------------------- corpus


class Split:
    """One corpus split as plain arrays, read with ``numpy.load``."""

    def __init__(self, path) -> None:
        with np.load(path, allow_pickle=False) as archive:
            self.header = json.loads(archive["header"].tobytes().decode("utf-8"))
            self.values = archive["values"]
            self.returns = archive["returns"]
            self.entry_ordinals = archive["entry_ordinals"]
            self.limit_hit = archive["limit_hit"]
            self.source_ids = archive["source_ids"]
        self.horizons = [int(k) for k in self.header["horizons"]]

    def __len__(self) -> int:
        return len(self.values)

    def chart_ids(self, rows: np.ndarray) -> list[str]:
        return [
            f"{self.source_ids[i]}:{datetime.date.fromordinal(int(self.entry_ordinals[i])).isoformat()}"
            for i in rows
        ]


class Score:
    """The oracle's verdict for one pattern on one split.

    ``rows(k)`` are the charts the pattern matches, counting only charts
    with a return at horizon ``k`` (``k=None`` counts every chart, as the
    overlay does); ``borderline(k)`` are those whose output is too close
    to zero for the sign to be sure under another summation order.
    """

    def __init__(self, net: Net, split: Split) -> None:
        self.split = split
        self.out, out_abs = forward(net, split.values.reshape(len(split), -1))
        self._near_zero = (np.abs(self.out) <= BORDERLINE_SHARE * out_abs) & (out_abs > 0.0)

    def _eligible(self, k):
        eligible = ~self.split.limit_hit
        if k is not None:
            eligible = eligible & ~np.isnan(self.returns(k))
        return eligible

    def returns(self, k: int) -> np.ndarray:
        if k not in self.split.horizons:
            raise ValueError(f"split has no horizon {k}")
        return self.split.returns[:, self.split.horizons.index(k)]

    def rows(self, k=None) -> np.ndarray:
        return np.flatnonzero(self._eligible(k) & (self.out > 0.0))

    def borderline(self, k=None) -> np.ndarray:
        return np.flatnonzero(self._eligible(k) & self._near_zero)

    def fitness(self, k: int, alpha: float) -> tuple[int, float, float]:
        """(match count, mean matched return, mean x exp(-6 m / alpha))."""
        matched = self.returns(k)[self.rows(k)]
        m = len(matched)
        if not m:
            return 0, 0.0, 0.0
        mean = math.fsum(matched) / m
        return m, mean, mean * math.exp(-6.0 * m / alpha)


def parse_report(text: str) -> dict[str, float]:
    """The key/value lines of one ``chartevo-fitness 1`` block."""
    lines = [ln.split() for ln in text.strip().splitlines()]
    if not lines or lines[0] != ["chartevo-fitness", "1"]:
        raise ValueError("not a chartevo-fitness 1 block")
    return {key: float(value) for key, value in lines[1:]}


def parse_run_report(text: str) -> dict[str, dict[str, float]]:
    """``report.txt`` of a search run: one fitness block per split."""
    blocks: dict[str, dict[str, float]] = {}
    name = None
    body: list[str] = []
    for line in text.splitlines() + ["[end]"]:
        if line.startswith("[") and line.endswith("]"):
            if name is not None:
                blocks[name] = parse_report("\n".join(body))
            name, body = line[1:-1], []
        elif name is not None:
            body.append(line)
    return blocks


def check_report(report: dict[str, float], score: Score, k: int, alpha: float) -> list[str]:
    problems = []
    if int(report["k"]) != k:
        problems.append(f"report has k={report['k']}, expected {k}")
    count = int(report["match_count"])
    borderline = len(score.borderline(k))
    oracle_count, _, oracle_fitness = score.fitness(k, alpha)
    if not borderline:
        if count != oracle_count:
            problems.append(f"match_count {count}, oracle counts {oracle_count}")
        expected = oracle_fitness
    else:
        low = oracle_count - len(np.intersect1d(score.rows(k), score.borderline(k)))
        if not low <= count <= low + borderline:
            problems.append(f"match_count {count} outside oracle range [{low}, {low + borderline}]")
        # the program's own count and mean decide which borderline charts it took
        expected = report["mean_log_return"] * math.exp(-6.0 * count / alpha) if count else 0.0
    if not math.isclose(report["fitness"], expected, rel_tol=FITNESS_REL_TOL, abs_tol=1e-300):
        problems.append(f"fitness {report['fitness']!r}, oracle gives {expected!r}")
    return problems


# ---------------------------------------------------------------- overlay


def check_overlay(path, score: Score, reported_count: int | None = None) -> list[str]:
    """Rows are 32 per matched chart; matched ids are the oracle's set."""
    split = score.split
    problems = []
    ids: list[str] = []
    rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["chart_id", "step", "daily_change", "change_to_last_day"]:
            problems.append(f"overlay header {header}")
        for row in reader:
            if int(row[1]) != rows % CHART_STEPS:
                problems.append(f"overlay row {rows + 2} has step {row[1]}")
                break
            if rows % CHART_STEPS == 0:
                ids.append(row[0])
            rows += 1
    borderline = set(split.chart_ids(score.borderline()))
    expected = set(split.chart_ids(score.rows())) - borderline
    if not borderline and rows != CHART_STEPS * len(expected):
        problems.append(f"overlay has {rows} rows, oracle matches {len(expected)} charts")
    if reported_count is not None and rows != CHART_STEPS * reported_count:
        problems.append(f"overlay has {rows} rows for {reported_count} reported matches")
    got = set(ids) - borderline
    if got != expected or len(ids) != len(set(ids)):
        problems.append(f"overlay chart ids differ from oracle: {len(expected - got)} missing, "
                        f"{len(got - expected)} extra, {len(ids) - len(set(ids))} repeated")
    return problems


# ---------------------------------------------------------------- preprocess


def read_price_dates(prices_dir) -> dict[str, list[datetime.date]]:
    with open(os.path.join(prices_dir, "instruments.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    out = {}
    for entry in index["instruments"]:
        with open(os.path.join(prices_dir, entry["file"]), encoding="utf-8") as fh:
            rows = fh.read().split("\n")[1:]
        out[entry["id"]] = [datetime.date.fromisoformat(r.split(",")[0]) for r in rows if r]
    return out


def expected_split_counts(dates: dict, split_ranges: dict, slice_window: int = 128,
                          smoothing_window: int = 24) -> dict[str, int]:
    """Charts per split: entry rows ``slice + smoothing`` .. ``n - 1``, by entry date."""
    ranges = {name: (datetime.date.fromisoformat(a), datetime.date.fromisoformat(b))
              for name, (a, b) in split_ranges.items()}
    counts = dict.fromkeys(ranges, 0)
    for series in dates.values():
        for day in series[slice_window + smoothing_window:]:
            for name, (start, end) in ranges.items():
                if start <= day <= end:
                    counts[name] += 1
                    break
    return counts


def check_split_counts(expected: dict[str, int], corpus_dir, stdout: str) -> list[str]:
    problems = []
    printed = {}
    for line in stdout.splitlines():
        name, _, rest = line.partition(": ")
        if rest.endswith(" charts"):
            printed[name] = int(rest.split()[0])
    for name, count in expected.items():
        with np.load(os.path.join(corpus_dir, f"{name}.npz"), allow_pickle=False) as archive:
            stored = archive["values"].shape[0]
            header_count = json.loads(archive["header"].tobytes().decode("utf-8"))["count"]
        if not stored == header_count == printed.get(name) == count:
            problems.append(f"{name}: rule gives {count} charts, corpus holds {stored} "
                            f"(header {header_count}, printed {printed.get(name)})")
    return problems


# ---------------------------------------------------------------- history


def check_history(text: str, generations: int, population: int, threshold0: float,
                  growth: float, overspeciation: float, max_species: int) -> list[str]:
    """One row per generation, ordered fitness stats, threshold recurrence."""
    rows = list(csv.DictReader(text.splitlines()))
    problems = []
    if len(rows) != generations:
        problems.append(f"history has {len(rows)} rows for {generations} generations")
    threshold = threshold0
    for g, row in enumerate(rows):
        best, mean = float(row["best_fitness"]), float(row["mean_fitness"])
        species = int(row["species_count"])
        if int(row["generation"]) != g:
            problems.append(f"row {g} is labelled generation {row['generation']}")
        if not best >= mean:
            problems.append(f"generation {g}: best {best!r} < mean {mean!r}")
        if not 1 <= species <= population:
            problems.append(f"generation {g}: species count {species}")
        if int(row["best_match_count"]) == 0 and best != 0.0:
            problems.append(f"generation {g}: no matches but best fitness {best!r}")
        if not math.isclose(float(row["threshold"]), threshold, rel_tol=THRESHOLD_REL_TOL):
            problems.append(f"generation {g}: threshold {row['threshold']}, expected {threshold!r}")
        threshold = threshold * growth
        if species > max_species:
            threshold = threshold * overspeciation
    return problems
