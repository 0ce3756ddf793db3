"""End-to-end acceptance suite: one test per numbered shipping criterion.

Each test registers a pass/fail line with the terminal summary via
``record_criterion``; a line starts as FAIL when this module loads and
flips to PASS only when its test completes.  The expensive searches
(criteria 7 and 8) pin every knob — corpus seed, volatility, motif
geometry, evolution parameters — so the whole suite is reproducible
bit-for-bit; see the runtime assertions for their wall-clock budgets.
"""
from __future__ import annotations

import datetime
import json
import math
import time

import numpy as np
import pytest

from conftest import CRITERIA, record_criterion
from test_cppn import random_genome, recursive_reference

from chartevo.cli import main
from chartevo.cppn import (
    ConnectionGene,
    CppnGenome,
    NodeGene,
    activate_batch,
    minimal_genome,
)
from chartevo.evaluator import DatasetTensors, EvalConfig, fitness, match_flags, penalty
from chartevo.neat import (
    Evolution,
    EvolutionConfig,
    adjust_threshold,
    decayed_rate,
    decayed_rates,
)
from chartevo.preprocess import (
    PreprocessConfig,
    SplitRange,
    build_corpus,
    charts_from_series,
)
from chartevo.search import SearchOptions, results_row, run_search
from chartevo.substrate import (
    PhenotypeNetwork,
    express,
    he_scale,
    standard_substrates,
)
from chartevo.synthdata import SynthConfig, generate
from chartevo.types import COLUMNS, Dataset, PriceSeries

DESCRIPTIONS = {
    1: "penalty endpoints and closed form",
    2: "vectorized scoring equals a per-chart brute-force loop",
    3: "window enumeration count, 32x2 shape, price-scale invariance",
    4: "expressed template matches a hand-computed linear discriminant",
    5: "genotype evaluation, evolution invariants, threshold/rate schedules",
    6: "fan-in scaling keeps activation variance level; unscaled amplifies",
    7: "dropout trades training fitness for test fitness",
    8: "planted patterns are recovered ahead of random genomes",
    9: "identical seeds give byte-identical runs",
    10: "results-row layout: x100 values, train/valid/test per horizon",
}
for _number, _text in DESCRIPTIONS.items():
    record_criterion(_number, _text, False)


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_penalty_closed_form():
    assert penalty(0, 123.4) == 1.0
    assert penalty(0, 1.0) == 1.0
    for a in (1, 7, 50, 1000, 100_000):
        expected = math.exp(-6.0)
        assert abs(penalty(a, float(a)) - expected) <= 1e-12 * expected
    rng = np.random.default_rng(11)
    for _ in range(100):
        count = int(rng.integers(0, 10_000))
        alpha = float(rng.uniform(5.0, 2e5))
        # e ** x rather than exp(x): an independent route to the same value
        expected = math.e ** (-6.0 * count / alpha)
        assert abs(penalty(count, alpha) - expected) <= 1e-12 * expected
    assert record_criterion(1, DESCRIPTIONS[1], True)


# ---------------------------------------------------------------- criterion 2


def brute_force_fitness(net: PhenotypeNetwork, charts: Dataset, k: int, alpha: float) -> float:
    """Reference scorer: one chart (row) at a time, no shared tensors."""
    matched_returns = []
    j = charts.horizons.index(k)
    for i in range(len(charts)):
        if math.isnan(charts.returns[i, j]) or charts.limit_hit[i]:
            continue
        h = charts.values[i].reshape(-1)
        last = len(net.weights) - 1
        for li, (w, b) in enumerate(zip(net.weights, net.biases)):
            pre = h @ w + b
            h = pre if li == last else np.maximum(pre, 0.0)
        if h[0] > 0.0:
            matched_returns.append(charts.returns[i, j])
    m = len(matched_returns)
    if m == 0:
        return 0.0
    return float(np.mean(matched_returns)) * math.exp(-6.0 * m / alpha)


def test_criterion_02_fitness_matches_brute_force():
    started = time.perf_counter()
    synth = SynthConfig(
        n_instruments=2, n_days=700, base_volatility=0.015,
        injection_rate=0.02, motif_amplitude=0.08, motif_shape="falling",
        motif_length=8, drift=0.08, drift_horizon=20, seed=21,
    )
    series_set, _ = generate(synth)
    pre = PreprocessConfig(horizons=(20, 50))
    blocks = [charts_from_series(series, pre) for series in series_set]
    assert sum(len(b) for b in blocks) >= 1000
    charts = Dataset("training", blocks[0].horizons, **{
        column: np.concatenate([getattr(b, column) for b in blocks])[:1000] for column in COLUMNS
    })
    tensors = DatasetTensors.from_dataset(charts, 20)

    spec = standard_substrates()["network"]
    rng = np.random.default_rng(22)
    alphas = (500.0, 5000.0, 100_000.0)
    checked_matches = 0
    for i in range(50):
        net = express(random_genome(rng, n_mutations=10), spec)
        alpha = alphas[i % len(alphas)]
        config = EvalConfig(k=20, alpha=alpha, dropout_enabled=False)
        fast = fitness(net, tensors, config).fitness
        slow = brute_force_fitness(net, charts, 20, alpha)
        assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=0.0)
        checked_matches += int(match_flags(net, tensors).sum())
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert checked_matches > 0  # at least some phenotypes actually matched
    assert record_criterion(2, DESCRIPTIONS[2], True)


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_preprocessing_contract():
    synth = SynthConfig(
        n_instruments=1, n_days=400, base_volatility=0.02,
        injection_rate=0.02, motif_amplitude=0.08, motif_shape="falling",
        motif_length=8, drift=0.08, drift_horizon=20, seed=33,
    )
    (series,), _ = generate(synth)
    config = PreprocessConfig(horizons=(20, 50))
    charts = charts_from_series(series, config)

    # brute-force enumeration: recompute the trailing average by hand,
    # list every slice start, and apply the two tradeability rules
    # (a preceding smoothed value and an entry day inside the series)
    w, s = config.smoothing_window, config.slice_window
    closes = [float(v) for v in series.closes]
    l = len(closes)
    smoothed = [sum(closes[i - w + 1: i + 1]) / w for i in range(w - 1, l)]
    l_prime = len(smoothed)
    assert l_prime == l - w + 1
    starts = list(range(l_prime - s + 1))
    tradeable = [j for j in starts if j >= 1 and j + s + w - 1 <= l - 1]
    assert len(charts) == len(tradeable)
    assert charts.values.shape == (len(tradeable), 32, 2)

    doubled = PriceSeries(series.instrument_id, series.dates, series.closes * 2.0)
    doubled_charts = charts_from_series(doubled, config)
    assert len(doubled_charts) == len(charts)
    a, b = charts, doubled_charts
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.entry_ordinals, b.entry_ordinals)
    assert np.array_equal(a.returns, b.returns, equal_nan=True)
    assert np.array_equal(a.limit_hit, b.limit_hit)
    assert record_criterion(3, DESCRIPTIONS[3], True)


# ---------------------------------------------------------------- criterion 4


def hand_linear_genome(cx: float, cy: float, b0: float) -> CppnGenome:
    """Genotype whose weight output is cx*x + cy*y of the source node,
    whose bias output is the constant b0, and whose gate is always on."""
    nodes = [NodeGene(i, "input", "linear") for i in range(7)]
    nodes += [NodeGene(i, "output", "linear") for i in (7, 8, 9)]
    conns = (
        ConnectionGene(0, 0, 7, cx, True),
        ConnectionGene(1, 1, 7, cy, True),
        ConnectionGene(2, 6, 8, b0, True),
        ConnectionGene(3, 6, 9, 1.0, True),
    )
    return CppnGenome(tuple(nodes), tuple(conns))


def test_criterion_04_template_reproduces_linear_rule():
    cx, cy, b0 = 0.9, -0.35, 0.002
    net = express(hand_linear_genome(cx, cy, b0), standard_substrates()["template"])
    assert net.layer_sizes == (64, 1)

    # the same rule written out by hand: input node (step, channel) sits
    # at x = linspace grid, y = -1/+1, all 64 links expressed, so the
    # fan-in correction is sqrt(2/64) on every weight
    xs = np.linspace(-1.0, 1.0, 32)
    hand_w = np.empty(64)
    for step in range(32):
        for ch, y in enumerate((-1.0, 1.0)):
            hand_w[step * 2 + ch] = math.sqrt(2.0 / 64.0) * (cx * xs[step] + cy * y)

    rng = np.random.default_rng(44)
    rows = [
        (rng.normal(scale=0.02, size=(32, 2)), float(rng.normal(scale=0.05)),
         bool(rng.random() < 0.05))
        for i in range(10_000)
    ]
    values, returns, limit_hit = (np.array(column) for column in zip(*rows))
    charts = Dataset(
        split="test",
        horizons=(20,),
        values=values,
        returns=returns[:, None],
        entry_ordinals=datetime.date(2015, 1, 5).toordinal() + np.arange(10_000),
        limit_hit=limit_hit,
        source_ids=np.full(10_000, "RND"),
    )
    tensors = DatasetTensors.from_dataset(charts, 20)
    package_matches = match_flags(net, tensors)
    hand_matches = np.array(
        [
            (charts.values[i].reshape(-1) @ hand_w + b0 > 0.0) and not charts.limit_hit[i]
            for i in range(len(charts))
        ]
    )
    assert package_matches.shape == hand_matches.shape == (10_000,)
    assert 0 < hand_matches.sum() < 10_000  # both outcomes genuinely occur
    assert np.array_equal(package_matches, hand_matches)
    assert record_criterion(4, DESCRIPTIONS[4], True)


# ---------------------------------------------------------------- criterion 5


def is_acyclic(genome: CppnGenome) -> bool:
    """Kahn's algorithm over enabled connections, kept deliberately naive."""
    edges = [(c.src, c.dst) for c in genome.connections if c.enabled]
    nodes = {n.id for n in genome.nodes}
    indegree = {n: 0 for n in nodes}
    for _, dst in edges:
        indegree[dst] += 1
    queue = [n for n in nodes if indegree[n] == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for src, dst in edges:
            if src == node:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    queue.append(dst)
    return seen == len(nodes)


def test_criterion_05_genotype_and_evolution_correctness():
    # evaluation order: batch evaluation equals a memoized recursive oracle
    rng = np.random.default_rng(505)
    for _ in range(1000):
        genome = random_genome(rng, n_mutations=8)
        inputs = rng.normal(size=(8, 7))
        assert np.array_equal(
            activate_batch(genome, inputs), recursive_reference(genome, inputs)
        )

    # 50-generation fuzz: population size stays fixed and every genome
    # stays a DAG under an independent acyclicity check
    config = EvolutionConfig(
        population_size=60, generations=50, rng_seed=3,
        add_connection_rate=0.3, add_node_rate=0.2,
    )
    evo = Evolution.start(config)
    fitness_rng = np.random.default_rng(99)
    for g in range(50):
        assert len(evo.population) == 60
        for genome in evo.population:
            assert is_acyclic(genome)
        evo.advance(list(fitness_rng.random(60)), reproduce_population=g < 49)
    assert len(evo.population) == 60

    # threshold schedule: growth every generation, the overshoot factor
    # only when the species count tops the cap; the sequential update
    # replays bit-for-bit and tracks the closed form to 1e-12 relative
    counts = [5, 80, 101, 40, 150, 100, 101, 3] * 6
    threshold = 3.0
    replay = 3.0
    overshoots = 0
    for g, count in enumerate(counts, start=1):
        threshold = adjust_threshold(threshold, count, config)
        replay = replay * 1.001
        if count > config.max_species:
            replay = replay * 1.1
            overshoots += 1
        assert threshold == replay
        closed = 3.0 * 1.001**g * 1.1**overshoots
        assert abs(threshold - closed) <= 1e-12 * closed
    # the fuzz run above never overshot, so its end state is pure growth
    closed = 3.0 * 1.001**50
    assert abs(evo.threshold - closed) <= 1e-12 * closed

    # decayed mutation rates against an independently computed power
    for base in (0.8, 0.3, 0.05):
        for g in (0, 1, 7, 50, 199):
            expected = base * math.pow(0.999, g)
            assert abs(decayed_rate(base, 0.999, g) - expected) <= 1e-12 * expected
    rates = decayed_rates(config, 25)
    assert abs(
        rates["add_node_rate"] - 0.2 * math.pow(0.999, 25)
    ) <= 1e-12 * rates["add_node_rate"]
    assert record_criterion(5, DESCRIPTIONS[5], True)


# ---------------------------------------------------------------- criterion 6


def relu_forward_variances(weights, X):
    """Per-layer activation variances under a hand-rolled ReLU forward."""
    variances = [float(X.var())]
    h = X
    for i, w in enumerate(weights):
        pre = h @ w
        h = pre if i == len(weights) - 1 else np.maximum(pre, 0.0)
        variances.append(float(h.var()))
    return variances


def test_criterion_06_fan_in_scaling_controls_variance():
    sizes = standard_substrates()["deep"].layer_sizes
    assert sizes == (64, 192, 96, 48, 24, 12, 1)
    rng = np.random.default_rng(66)
    X = rng.normal(size=(10_000, sizes[0]))

    for _ in range(5):
        scaled = [
            he_scale(rng.normal(size=(a, b)), np.ones((a, b), dtype=bool))
            for a, b in zip(sizes, sizes[1:])
        ]
        variances = relu_forward_variances(scaled, X)
        # hidden-layer variances only; the final entry is the 1-unit output
        for earlier, later in zip(variances[:-2], variances[1:-1]):
            ratio = later / earlier
            assert 0.5 <= ratio <= 2.0

    amplified = 0
    for _ in range(20):
        raw = [rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        variances = relu_forward_variances(raw, X)
        if variances[-2] / variances[0] > 1e3:
            amplified += 1
    assert amplified >= 1
    assert record_criterion(6, DESCRIPTIONS[6], True)


# ------------------------------------------------------- criteria 7 and 8


def planted_motif_corpus(
    *, n_days: int, volatility: float, seed: int, split_ranges=None
):
    """Random-walk prices with a sharp planted dip that resolves upward."""
    synth = SynthConfig(
        n_instruments=10, n_days=n_days, base_volatility=volatility,
        injection_rate=0.02, motif_amplitude=0.08, motif_shape="falling",
        motif_length=8, drift=0.08, drift_horizon=20, seed=seed,
    )
    series_set, injections = generate(synth)
    kwargs = {"horizons": (20, 50)}
    if split_ranges is not None:
        kwargs["split_ranges"] = split_ranges
    return build_corpus(series_set, PreprocessConfig(**kwargs)), injections


def search_evolution_config(seed: int, generations: int) -> EvolutionConfig:
    """The desk-scale search setup: small population, busy mutation."""
    return EvolutionConfig(
        population_size=100, generations=generations, rng_seed=seed,
        add_connection_rate=0.3, add_node_rate=0.1, weight_replace_fraction=0.25,
    )


def test_criterion_07_dropout_direction():
    started = time.perf_counter()
    corpus, injections = planted_motif_corpus(
        n_days=1330, volatility=0.015, seed=2017
    )
    assert len(injections) > 100
    train_tensors = DatasetTensors.from_dataset(corpus["training"], 20)
    test_tensors = DatasetTensors.from_dataset(corpus["test"], 20)
    score_config = EvalConfig(k=20, alpha=20_000.0, dropout_enabled=False)

    means = {}
    for retain in (0.8, 1.0):
        train_scores, test_scores = [], []
        for seed in range(5):
            eval_config = EvalConfig(
                k=20, alpha=20_000.0, dropout_enabled=retain < 1.0,
                dropout_retain=retain, rng_seed=seed + 100,
            )
            run = run_search(
                corpus,
                search_evolution_config(seed, generations=40),
                eval_config,
                SearchOptions(substrate="network"),
            )
            net = run.selected.network
            train_scores.append(fitness(net, train_tensors, score_config).fitness)
            test_scores.append(fitness(net, test_tensors, score_config).fitness)
        means[retain] = (
            float(np.mean(train_scores)), float(np.mean(test_scores))
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    train_with, test_with = means[0.8]
    train_without, test_without = means[1.0]
    assert test_with >= test_without
    assert train_with <= train_without
    assert record_criterion(7, DESCRIPTIONS[7], True)


def test_criterion_08_planted_pattern_recovery():
    started = time.perf_counter()
    wide_splits = {
        "training": SplitRange(datetime.date(2012, 1, 1), datetime.date(2014, 12, 31)),
        "validation": SplitRange(datetime.date(2015, 1, 1), datetime.date(2016, 12, 31)),
        "test": SplitRange(datetime.date(2017, 1, 1), datetime.date(2018, 12, 31)),
    }
    corpus, injections = planted_motif_corpus(
        n_days=1880, volatility=0.008, seed=1005, split_ranges=wide_splits
    )
    assert len(injections) > 150
    test_tensors = DatasetTensors.from_dataset(corpus["test"], 20)
    score_config = EvalConfig(k=20, alpha=20_000.0, dropout_enabled=False)

    # the bar: 95th percentile of test fitness over 100 random genotypes
    pool_rng = np.random.default_rng(777)
    spec = standard_substrates()["network"]
    random_scores = [
        fitness(express(minimal_genome(pool_rng), spec), test_tensors, score_config).fitness
        for _ in range(100)
    ]
    bar = float(np.percentile(random_scores, 95))

    wins = 0
    for seed in range(5):
        eval_config = EvalConfig(
            k=20, alpha=20_000.0, dropout_enabled=True, dropout_retain=0.8,
            rng_seed=seed + 100,
        )
        run = run_search(
            corpus,
            search_evolution_config(seed, generations=30),
            eval_config,
            SearchOptions(substrate="network"),
        )
        selected_score = fitness(run.selected.network, test_tensors, score_config).fitness
        if selected_score > bar:
            wins += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1200.0
    assert wins >= 4
    assert record_criterion(8, DESCRIPTIONS[8], True)


# ---------------------------------------------------------------- criterion 9


def run_pipeline(root, tag: str) -> None:
    config = {
        "synth": {
            "n_instruments": 4,
            "n_days": 900,
            "base_volatility": 0.015,
            "injection_rate": 0.02,
            "drift": 0.08,
            "seed": 9,
        },
        "preprocess": {
            "horizons": [20],
            "split_ranges": {
                "training": ["2012-01-01", "2013-12-31"],
                "validation": ["2014-01-01", "2014-06-30"],
                "test": ["2014-07-01", "2015-12-31"],
            },
        },
        "evolution": {"population_size": 24, "generations": 6},
        "eval": {"k": 20, "alpha": 20000.0},
        "search": {"substrate": "network"},
    }
    config_path = root / f"config_{tag}.json"
    config_path.write_text(json.dumps(config))
    prices = root / f"prices_{tag}"
    corpus = root / f"corpus_{tag}"
    run_dir = root / f"run_{tag}"
    assert main(["synth", "--config", str(config_path), "--out", str(prices)]) == 0
    assert main(["preprocess", "--config", str(config_path), "--prices", str(prices),
                 "--out", str(corpus)]) == 0
    assert main(["search", "--config", str(config_path), "--corpus", str(corpus),
                 "--out", str(run_dir), "--seed", "7"]) == 0
    return run_dir


def test_criterion_09_end_to_end_determinism(tmp_path):
    first = run_pipeline(tmp_path, "a")
    second = run_pipeline(tmp_path, "b")
    history_a = (first / "history.csv").read_bytes()
    history_b = (second / "history.csv").read_bytes()
    assert history_a == history_b
    genome_a = (first / "pattern.cppn").read_bytes()
    genome_b = (second / "pattern.cppn").read_bytes()
    assert genome_a == genome_b
    assert (first / "pattern.net").read_bytes() == (second / "pattern.net").read_bytes()
    assert record_criterion(9, DESCRIPTIONS[9], True)


# --------------------------------------------------------------- criterion 10


def test_criterion_10_results_row_layout():
    # full-scale published results rest on proprietary market data, so the
    # designated substitutes (criteria 2, 6, 7 and 8) must have passed...
    for substitute in (2, 6, 7, 8):
        description, passed = CRITERIA[substitute]
        assert passed, f"substitute check {substitute} ({description}) did not pass"

    # ...and the summary-row layout must hold for any corpus supplied:
    # one name cell, then train/valid/test fitness per horizon, scaled
    # by 100 and printed to four significant digits
    rng = np.random.default_rng(1010)
    datasets = {}
    for split, n in (("training", 60), ("validation", 40), ("test", 40)):
        values, returns = np.empty((n, 32, 2)), np.empty((n, 1))
        for i in range(n):
            values[i] = rng.normal(scale=0.02, size=(32, 2))
            returns[i] = float(rng.normal(loc=0.01, scale=0.1))
        datasets[split] = Dataset(
            split=split,
            horizons=(20,),
            values=values,
            returns=returns,
            entry_ordinals=datetime.date(2015, 1, 5).toordinal() + np.arange(n),
            limit_hit=np.zeros(n, dtype=bool),
            source_ids=np.full(n, split[:3].upper()),
        )
    run = run_search(
        datasets,
        EvolutionConfig(population_size=10, generations=2, rng_seed=1),
        EvalConfig(k=20, alpha=1000.0, dropout_enabled=False),
        SearchOptions(substrate="network"),
    )
    row = results_row(run, pattern_name="demo")
    header, cells_line = row.strip().splitlines()
    assert header == "pattern,train20,valid20,test20"
    cells = cells_line.split(",")
    assert len(cells) == 4
    assert cells[0] == "demo"
    for cell, split in zip(cells[1:], ("training", "validation", "test")):
        report = run.selected.reports[split]
        assert cell == f"{report.fitness * 100.0:.4g}"
    assert record_criterion(10, DESCRIPTIONS[10], True)
