"""Self-tests of the benchmark's output checks.

Run with ``python3 -m pytest bench``.  Each check must pass the program's
honest output and reject a corrupted copy of it; the oracle's forward
pass must agree with a per-chart brute-force scorer.
"""
from __future__ import annotations

import datetime
import json
import math
import threading
import time

import numpy as np
import pytest

import oracle
import spans
from chartevo.cppn import minimal_genome
from chartevo.evaluator import EvalConfig, fitness
from chartevo.neat import EvolutionConfig, InnovationRegistry, mutate
from chartevo.preprocess import PreprocessConfig, SplitRange, build_corpus
from chartevo.search import SearchOptions, export_overlay, history_table, run_search
from chartevo.substrate import express, phenotype_from_text, phenotype_to_text, standard_substrates
from chartevo.synthdata import SynthConfig, generate
from chartevo.types import save_dataset, write_price_csv

K, ALPHA = 20, 20_000.0
SPLITS = {
    "training": ["2012-01-01", "2013-06-30"],
    "validation": ["2013-07-01", "2013-12-31"],
    "test": ["2014-01-01", "2014-12-31"],
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A two-instrument corpus written by the program, plus its prices."""
    root = tmp_path_factory.mktemp("corpus")
    series_set, _ = generate(SynthConfig(n_instruments=2, n_days=700, seed=21))
    prices = root / "prices"
    prices.mkdir()
    entries = []
    for series in series_set:
        write_price_csv(prices / f"{series.instrument_id}.csv", series)
        entries.append({"id": series.instrument_id, "file": f"{series.instrument_id}.csv"})
    (prices / "instruments.json").write_text(json.dumps({"instruments": entries}))
    ranges = {name: SplitRange(datetime.date.fromisoformat(a), datetime.date.fromisoformat(b))
              for name, (a, b) in SPLITS.items()}
    datasets = build_corpus(series_set, PreprocessConfig(horizons=(20, 50), split_ranges=ranges))
    for name, dataset in datasets.items():
        save_dataset(root / f"{name}.npz", dataset)
    return root, datasets


def evolved_nets(count: int, seed: int = 22):
    """Network-substrate phenotypes from genomes grown by evolution's own moves."""
    config = EvolutionConfig(population_size=2, generations=1, weight_mutation_rate=0.9,
                             add_connection_rate=0.5, add_node_rate=0.5)
    rng = np.random.default_rng(seed)
    spec = standard_substrates()["network"]
    nets = []
    for _ in range(count):
        registry = InnovationRegistry.primed()
        genome = minimal_genome(rng)
        for _ in range(10):
            genome = mutate(genome, config, 0, registry, rng)
        nets.append(express(genome, spec))
    return nets


def as_oracle_net(net) -> oracle.Net:
    return oracle.read_net(phenotype_to_text(net))


def brute_force(net, charts, k: int, alpha: float) -> tuple[int, float]:
    """Per-chart reference scorer, one chart at a time, no shared tensors."""
    matched = []
    for chart in charts:
        if k not in chart.returns or chart.limit_hit:
            continue
        h = chart.values.reshape(-1)
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = h @ w + b
            if i < len(net.weights) - 1:
                h = np.maximum(h, 0.0)
        if h[0] > 0.0:
            matched.append(chart.returns[k])
    if not matched:
        return 0, 0.0
    return len(matched), float(np.mean(matched)) * math.exp(-6.0 * len(matched) / alpha)


# ---------------------------------------------------------------- scoring


def test_oracle_agrees_with_brute_force(corpus):
    root, datasets = corpus
    split = oracle.Split(root / "training.npz")
    matched_any = 0
    for net in evolved_nets(30) + [None]:
        if net is None:  # a dense random pattern too
            o = oracle.random_net(np.random.default_rng(3))
            net = phenotype_from_text(oracle.write_net(o))
        count, fit = brute_force(net, datasets["training"], K, ALPHA)
        o_count, _, o_fit = oracle.Score(as_oracle_net(net), split).fitness(K, ALPHA)
        assert o_count == count
        assert math.isclose(o_fit, fit, rel_tol=1e-9, abs_tol=0.0)
        matched_any += count
    assert matched_any > 0


def test_net_text_round_trips_both_ways():
    o = oracle.random_net(np.random.default_rng(5))
    net = phenotype_from_text(oracle.write_net(o))
    for a, b in zip(o.weights + o.biases, net.weights + net.biases):
        assert np.array_equal(a, b)
    back = oracle.read_net(phenotype_to_text(net))
    for a, b in zip(o.weights + o.biases, back.weights + back.biases):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        oracle.read_net(oracle.write_net(o)[:3000])


def program_report(net, dataset):
    text = fitness(net, dataset, EvalConfig(k=K, alpha=ALPHA, dropout_enabled=False)).to_text()
    return oracle.parse_report(text)


def matching_net(corpus):
    """A pattern that matches a fair share of the training charts."""
    root, datasets = corpus
    split = oracle.Split(root / "training.npz")
    for seed in range(50):
        o = oracle.random_net(np.random.default_rng(seed))
        count = oracle.Score(o, split).fitness(K, ALPHA)[0]
        if 20 <= count <= len(split) - 20:
            return o, phenotype_from_text(oracle.write_net(o)), split
    raise AssertionError("no seed gave a selective pattern")


def test_report_check_passes_honest_and_rejects_one_match_too_many(corpus):
    o, net, split = matching_net(corpus)
    report = program_report(net, corpus[1]["training"])
    score = oracle.Score(o, split)
    assert oracle.check_report(report, score, K, ALPHA) == []
    assert oracle.check_report(dict(report, match_count=report["match_count"] + 1),
                               score, K, ALPHA)


@pytest.mark.parametrize("mantissa", ["1.000000000", "5.555555555", "9.999999998"])
def test_report_check_rejects_fitness_changed_in_10th_significant_digit(corpus, mantissa):
    o, net, split = matching_net(corpus)
    report = program_report(net, corpus[1]["training"])
    score = oracle.Score(o, split)
    f = report["fitness"]
    exponent = math.floor(math.log10(abs(f)))
    step = 10.0 ** (exponent - 9)
    assert oracle.check_report(dict(report, fitness=f + step), score, K, ALPHA)
    assert oracle.check_report(dict(report, fitness=f - step), score, K, ALPHA)
    # the same one-digit step on the smallest and largest mantissas
    g = float(mantissa) * 10.0 ** exponent
    honest = dict(report, fitness=g)
    forged_score = _ScoreStub(int(report["match_count"]), g)
    assert oracle.check_report(honest, forged_score, K, ALPHA) == []
    assert oracle.check_report(dict(honest, fitness=g + step), forged_score, K, ALPHA)


class _ScoreStub:
    """An oracle verdict with a chosen fitness and no borderline charts."""

    def __init__(self, count: int, fit: float) -> None:
        self._count, self._fit = count, fit

    def fitness(self, k, alpha):
        return self._count, 0.0, self._fit

    def borderline(self, k=None):
        return np.empty(0, dtype=int)

    def rows(self, k=None):
        return np.arange(self._count)


def test_borderline_chart_widens_the_count_range():
    # two charts whose outputs cancel to zero; another summation order could
    # leave either on either side
    split = _split_of(values=np.array([[1.0, 1e-17] + [0.0] * 62, [1.0, 0.0] + [0.0] * 62]),
                      returns=[[0.01], [0.02]], limit=[False, False])
    net = oracle.Net("relu", [np.array([[1.0], [1.0]] + [[0.0]] * 62)], [np.array([-1.0])])
    score = oracle.Score(net, split)
    assert len(score.borderline(20)) == 2
    for count in (0, 1, 2):
        mean = 0.01
        report = {"k": 20, "match_count": count, "mean_log_return": mean,
                  "fitness": mean * math.exp(-6.0 * count / ALPHA) if count else 0.0}
        assert oracle.check_report(report, score, 20, ALPHA) == []
    assert oracle.check_report(dict(report, match_count=3), score, 20, ALPHA)


def _split_of(values, returns, limit):
    split = oracle.Split.__new__(oracle.Split)
    split.values = np.asarray(values, dtype=float).reshape(len(values), 32, 2)
    split.returns = np.asarray(returns, dtype=float)
    split.horizons = [20]
    split.limit_hit = np.asarray(limit, dtype=bool)
    split.entry_ordinals = np.arange(len(values)) + datetime.date(2015, 1, 1).toordinal()
    split.source_ids = np.array(["X"] * len(values))
    return split


# ---------------------------------------------------------------- overlay


def test_overlay_check_passes_honest_and_rejects_a_missing_or_extra_chart(corpus, tmp_path):
    o, net, split = matching_net(corpus)
    path = tmp_path / "overlay.csv"
    count = export_overlay(net, corpus[1]["training"], path)
    score = oracle.Score(o, split)
    assert count > 1
    assert oracle.check_overlay(path, score, count) == []
    lines = path.read_text().splitlines(keepends=True)
    (tmp_path / "short.csv").write_text("".join(lines[:-32]))
    assert oracle.check_overlay(tmp_path / "short.csv", score)
    assert oracle.check_overlay(tmp_path / "short.csv", score, count - 1)
    (tmp_path / "long.csv").write_text("".join(lines + lines[1:33]))
    assert oracle.check_overlay(tmp_path / "long.csv", score, count + 1)
    assert oracle.check_overlay(path, score, count + 1)


# ---------------------------------------------------------------- preprocess


def test_split_count_check_passes_honest_and_rejects_a_removed_chart(corpus, tmp_path):
    root, datasets = corpus
    dates = oracle.read_price_dates(root / "prices")
    expected = oracle.expected_split_counts(dates, SPLITS)
    stdout = "".join(f"{name}: {len(d)} charts\n" for name, d in datasets.items())
    assert expected == {name: len(d) for name, d in datasets.items()}
    assert oracle.check_split_counts(expected, root, stdout) == []

    for name in SPLITS:
        (tmp_path / f"{name}.npz").write_bytes((root / f"{name}.npz").read_bytes())
    with np.load(root / "validation.npz") as archive:
        arrays = {key: archive[key] for key in archive.files}
    header = json.loads(arrays["header"].tobytes())
    header["count"] -= 1
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    for key in ("values", "returns", "entry_ordinals", "limit_hit", "source_ids"):
        arrays[key] = arrays[key][:-1]
    np.savez_compressed(tmp_path / "validation.npz", **arrays)
    shorter = stdout.replace(f"validation: {len(datasets['validation'])}",
                             f"validation: {len(datasets['validation']) - 1}")
    assert oracle.check_split_counts(expected, tmp_path, shorter)


def test_chart_count_rule_matches_window_arithmetic():
    day0 = datetime.date(2012, 1, 2)
    dates = {"A": [day0 + datetime.timedelta(days=i) for i in range(200)]}
    ranges = {"training": ["2000-01-01", "2100-01-01"]}
    # entries run from row 128 + 24 to row 199
    assert oracle.expected_split_counts(dates, ranges) == {"training": 200 - 152}


# ---------------------------------------------------------------- history


def search_history(corpus) -> str:
    _, datasets = corpus
    run = run_search(datasets, EvolutionConfig(population_size=30, generations=4, rng_seed=1,
                                               add_connection_rate=0.3, add_node_rate=0.1),
                     EvalConfig(k=K, alpha=ALPHA, rng_seed=2), SearchOptions(substrate="template"))
    return history_table(run)


def history_args(generations=4, population=30):
    return generations, population, 3.0, 1.001, 1.1, 100


def test_history_check_passes_honest_and_rejects_broken_rows(corpus):
    text = search_history(corpus)
    assert oracle.check_history(text, *history_args()) == []
    lines = text.splitlines()
    row = lines[3].split(",")

    def with_row(cells):
        return "\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n"

    broken_threshold = row[:5] + [repr(float(row[5]) * 1.001)] + row[6:]
    assert oracle.check_history(with_row(broken_threshold), *history_args())
    assert oracle.check_history("\n".join(lines[:-1]) + "\n", *history_args())
    worse_best = row[:1] + [repr(float(row[2]) - 1.0)] + row[2:]
    assert oracle.check_history(with_row(worse_best), *history_args())
    no_match = row[:1] + ["0.5"] + row[2:3] + ["0"] + row[4:]
    assert oracle.check_history(with_row(no_match), *history_args())
    no_species = row[:4] + ["0"] + row[5:]
    assert oracle.check_history(with_row(no_species), *history_args())


def test_history_threshold_follows_overspeciation_step():
    header = ("generation,best_fitness,mean_fitness,best_match_count,species_count,"
              "threshold,validation_fitness")
    t0 = 3.0
    t1 = t0 * 1.001 * 1.1  # generation 0 overshoots the 100-species cap
    t2 = t1 * 1.001
    rows = [f"0,0.1,0.0,5,150,{t0!r},", f"1,0.1,0.0,5,90,{t1!r},", f"2,0.1,0.0,5,90,{t2!r},"]
    text = "\n".join([header] + rows) + "\n"
    assert oracle.check_history(text, *history_args(3, 200)) == []
    skipped = text.replace(repr(t1), repr(t0 * 1.001)).replace(repr(t2), repr(t0 * 1.001 ** 2))
    assert oracle.check_history(skipped, *history_args(3, 200))


# ---------------------------------------------------------------- spans


def test_live_flop_share_counts_only_units_that_reach_the_output():
    w0 = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])  # 2 inputs -> 3 hidden
    w1 = np.array([[1.0], [5.0], [0.0]])  # hidden unit 2 feeds nothing
    # live: inputs {0} (input 1 reaches only hidden 2), hidden {0, 1}, output
    assert oracle.live_flop_share([w0, w1]) == (1 * 2 + 2 * 1) / (6 + 3)


def test_self_time_subtracts_children_on_worker_threads_once():
    tracer = spans.Tracer()
    tracer._main_stack = tracer._stack()

    def child():
        time.sleep(0.05)

    def parent():
        workers = [threading.Thread(target=traced_child) for _ in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=5)
            assert not t.is_alive()

    traced_child = tracer._span("mod.child", child)
    tracer._span("mod.parent", parent)()
    times = tracer.times()
    assert times["self"]["mod.parent"] < 0.03
    assert 0.04 < times["self"]["mod.child"] < times["thread_self"]["mod.child"]
    assert times["thread_self"]["mod.child"] > 0.09


def test_interval_helpers():
    assert spans._union([(0, 2), (1, 3), (5, 6)]) == [[0, 3], [5, 6]]
    assert spans._subtract(0, 10, [[1, 3], [5, 6]]) == [(0, 1), (3, 5), (6, 10)]
    assert spans._subtract(2, 4, [[0, 1], [3, 5]]) == [(2, 3)]
    assert spans._subtract(0, 1, [[-1, 2]]) == []
