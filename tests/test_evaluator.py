from __future__ import annotations

import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chartevo.evaluator import (
    DatasetTensors,
    EvalConfig,
    dropout_masks,
    dropout_rng,
    evaluate_population,
    fitness,
    forward_output,
    live_units,
    match_flags,
    penalty,
    positive_outputs,
)
from chartevo.substrate import PhenotypeNetwork, express, standard_substrates
from chartevo.cppn import minimal_genome
from chartevo.types import ConfigError, Dataset


def make_dataset(values, returns, horizons=(5, 10), limit=False, split="training", source="TST"):
    """Rows enter one day apart from 2015-01-05; NaN in ``returns`` marks a missing horizon."""
    n = len(values)
    return Dataset(
        split=split,
        horizons=horizons,
        values=np.asarray(values, dtype=np.float64),
        returns=np.asarray(returns, dtype=np.float64).reshape(n, len(horizons)),
        entry_ordinals=datetime.date(2015, 1, 5).toordinal() + np.arange(n),
        limit_hit=np.broadcast_to(limit, n),
        source_ids=np.full(n, source),
    )


def random_net(rng, sizes=(4, 6, 3, 1)):
    ws = tuple(rng.normal(size=(a, b)) for a, b in zip(sizes, sizes[1:]))
    bs = tuple(rng.normal(size=b) for b in sizes[1:])
    return PhenotypeNetwork(ws, bs)


def random_dataset(rng, n, steps=2, horizons=(5, 10), split="training"):
    values, returns, limit = [], [], []
    for i in range(n):
        values.append(rng.normal(scale=0.05, size=(steps, 2)))
        returns.append([
            float(rng.normal(scale=0.1)) if rng.random() < 0.9 else np.nan for k in horizons
        ])
        limit.append(bool(rng.random() < 0.1))
    return make_dataset(np.reshape(values, (n, steps, 2)), returns, horizons, limit, split)


def scalar_forward(net, x, masks=None):
    """Reference forward pass: plain python loops over one flattened chart."""
    h = [float(v) for v in x]
    last = len(net.weights) - 1
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = [
            sum(h[i] * w[i, j] for i in range(w.shape[0])) + b[j]
            for j in range(w.shape[1])
        ]
        if li == last:
            return pre[0]
        h = [p if p > 0.0 else 0.0 for p in pre]
        if masks is not None:
            h = [v * m for v, m in zip(h, masks[li])]


def naive_fitness(net, dataset, k, alpha, masks=None):
    """Reference scoring: per-chart python evaluation, no tensors."""
    j = dataset.horizons.index(k)
    matched = [
        i for i in range(len(dataset))
        if not math.isnan(dataset.returns[i, j])
        and not dataset.limit_hit[i]
        and scalar_forward(net, dataset.values[i].reshape(-1), masks) > 0.0
    ]
    m = len(matched)
    pen = math.exp(-6.0 * m / alpha)
    if m == 0:
        return 0.0, 0, pen
    return sum(dataset.returns[i, j] for i in matched) / m * pen, m, pen


class TestTensors:
    def test_charts_without_horizon_excluded(self):
        dataset = make_dataset(np.zeros((3, 2, 2)), [[0.1, np.nan], [np.nan, 0.2], [0.3, 0.4]])
        tensors = DatasetTensors.from_dataset(dataset, 5)
        assert len(tensors) == 2
        assert list(tensors.returns) == [0.1, 0.3]
        assert np.array_equal(tensors.X, dataset.values[[0, 2]].reshape(2, -1))

    def test_flattening_is_row_major(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        tensors = DatasetTensors.from_dataset(make_dataset([values], [[0.0]], (5,)), 5)
        assert list(tensors.X[0]) == [1.0, 2.0, 3.0, 4.0]
        assert tensors.X32.dtype == np.float32
        assert list(tensors.X32[0]) == [1.0, 2.0, 3.0, 4.0, 1.0]

    def test_arrays_read_only(self):
        tensors = DatasetTensors.from_dataset(make_dataset(np.zeros((1, 2, 2)), [[0.0]], (5,)), 5)
        with pytest.raises(ValueError):
            tensors.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            tensors.X32[0, 0] = 1.0

    def test_row_norms_cached(self):
        from chartevo.search import _corpus_digests

        rng = np.random.default_rng(3)
        tensors = DatasetTensors.from_dataset(random_dataset(rng, 200), 5)
        digests = _corpus_digests({"training": tensors})
        net = random_net(rng)
        first = match_flags(net, tensors)
        x_norms = tensors.x_norms
        assert np.array_equal(match_flags(net, tensors), first)
        assert tensors.x_norms is x_norms
        assert x_norms.dtype == np.float64
        assert not x_norms.flags.writeable
        charts = tensors.X32[:, :-1].astype(np.float64)
        np.testing.assert_allclose(x_norms, np.linalg.norm(charts, axis=1), rtol=1e-15)
        assert tensors.x_max == np.abs(tensors.X32).max()
        assert _corpus_digests({"training": tensors}) == digests

    def test_empty_dataset(self):
        tensors = DatasetTensors.from_dataset(Dataset.empty("training", (5,)), 5)
        assert len(tensors) == 0

    def test_horizon_not_in_dataset_gives_no_rows(self):
        tensors = DatasetTensors.from_dataset(make_dataset(np.zeros((3, 2, 2)), np.zeros((3, 2))), 7)
        assert len(tensors) == 0
        assert tensors.X.shape == (0, 4)

    def test_horizon_mismatch_rejected(self):
        tensors = DatasetTensors.from_dataset(Dataset.empty("training", (5,)), 5)
        net = random_net(np.random.default_rng(0))
        with pytest.raises(ConfigError):
            fitness(net, tensors, EvalConfig(k=10))


class TestForward:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        net = random_net(rng)
        X = rng.normal(size=(20, 4))
        out = forward_output(net, X)
        for i in range(20):
            assert out[i] == pytest.approx(scalar_forward(net, X[i]), rel=1e-9, abs=1e-12)

    def test_masks_applied_to_hidden_layers(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        X = rng.normal(size=(6, 4))
        masks = [np.zeros(6), np.zeros(3)]
        out = forward_output(net, X, masks)
        # with every hidden unit dropped only the output bias survives
        assert np.allclose(out, net.biases[2][0])

    def test_mask_count_validated(self):
        net = random_net(np.random.default_rng(4))
        with pytest.raises(ValueError):
            forward_output(net, np.zeros((2, 4)), masks=[np.ones(6)])

    def test_input_width_validated(self):
        net = random_net(np.random.default_rng(5))
        with pytest.raises(ValueError):
            forward_output(net, np.zeros((2, 5)))

    def test_empty_input(self):
        net = random_net(np.random.default_rng(6))
        assert forward_output(net, np.zeros((0, 4))).shape == (0,)


def dense_forward(net, X, masks=None):
    """Reference forward pass: every unit of every layer, float64, unpruned."""
    h = X
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = h @ w + b
        if i == len(net.weights) - 1:
            return pre[:, 0]
        h = np.maximum(pre, 0.0)
        if masks is not None:
            h = h * masks[i]


def sparse_net(rng, n_hidden, dead_layer):
    """Random sparse net, 6 inputs, with every kind of dead or constant unit.

    First hidden layer: unit 0 has no input and bias <= 0, unit 1 no input
    and bias > 0, unit 2 no output.  Second hidden layer (if any): unit 0
    is fed only by unit 0 above.  ``dead_layer`` picks one hidden layer to
    kill outright, by starving it or by cutting its outputs.
    """
    sizes = [6] + [int(rng.integers(3, 9)) for _ in range(n_hidden)] + [1]
    ws = [rng.normal(size=(a, b)) * (rng.random((a, b)) < 0.5)
          for a, b in zip(sizes, sizes[1:])]
    bs = [rng.normal(size=b) * (rng.random(b) < 0.7) for b in sizes[1:]]
    ws[0][:, :2] = 0.0
    bs[0][0] = -abs(bs[0][0])
    bs[0][1] = abs(bs[0][1]) + 0.1
    ws[1][2, :] = 0.0
    if n_hidden >= 2:
        ws[1][:, 0] = 0.0
        ws[1][0, 0] = rng.normal()
        bs[1][0] = -abs(bs[1][0])
    if dead_layer is not None:
        layer = dead_layer % n_hidden
        if rng.random() < 0.5:
            ws[layer][:] = 0.0
            bs[layer] = -np.abs(bs[layer])
        else:
            ws[layer + 1][:] = 0.0
    return PhenotypeNetwork(tuple(ws), tuple(bs))


class TestPrunedForward:
    def _hand_net(self):
        w0 = np.array([[0.0, 0.0, 1.0, 1.0],
                       [0.0, 0.0, -1.0, 2.0],
                       [0.0, 0.0, 0.5, 0.5]])
        w1 = np.array([[0.7, 0.0, 0.0],
                       [0.0, 1.0, 0.0],
                       [0.0, 0.0, 0.0],
                       [0.0, 1.0, 1.0]])
        w2 = np.array([[1.0], [1.0], [0.0]])
        b0 = np.array([0.0, 0.5, 0.1, 0.1])
        b1 = np.array([-0.1, 0.0, 0.0])
        return PhenotypeNetwork((w0, w1, w2), (b0, b1, np.array([0.2])))

    def test_live_units_relu(self):
        live = live_units(self._hand_net())
        assert [m.tolist() for m in live] == [
            [True] * 3, [False, True, False, True], [False, True, False], [True]]

    def test_live_units_with_dropout(self):
        masks = [np.array([1.25, 1.25, 1.25, 0.0]), np.ones(3)]
        live = live_units(self._hand_net(), masks)
        assert [m.tolist() for m in live[1:3]] == [[False, True, False, False],
                                                  [False, True, False]]

    @given(
        seed=st.integers(0, 2**31 - 1),
        n_hidden=st.integers(1, 3),
        dropout=st.booleans(),
        dead_layer=st.one_of(st.none(), st.integers(0, 2)),
    )
    def test_matches_dense_reference(self, seed, n_hidden, dropout, dead_layer):
        rng = np.random.default_rng(seed)
        net = sparse_net(rng, n_hidden, dead_layer)
        masks = dropout_masks(net, 0.6, rng) if dropout else None
        X = rng.normal(size=(40, 6))
        limit = rng.random(40) < 0.1
        before = [a.copy() for a in (X, *net.weights, *net.biases, *(masks or ()))]
        X.setflags(write=False)
        for m in masks or ():
            m.setflags(write=False)
        tensors = DatasetTensors("training", 5, X, np.zeros(40), limit)

        reference = dense_forward(net, X, masks)
        out = forward_output(net, X, masks)
        np.testing.assert_allclose(out, reference, rtol=1e-12, atol=1e-12)
        flags = match_flags(net, tensors, masks)
        assert np.array_equal(flags, (reference > 0.0) & ~limit)
        after = (X, *net.weights, *net.biases, *(masks or ()))
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


def abs_forward(net, X, masks=None):
    """The dense network on |x| with |W|, |b|, |mask| and no ReLU: bounds every |value|."""
    h = np.abs(X)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ np.abs(w) + np.abs(b)
        if masks is not None and i < len(masks):
            h = h * np.abs(masks[i])
    return h[:, 0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCertifiedSigns:
    """Float32 flags with the float64 fallback must equal dense float64 flags,
    and no floating-point warning may reach the caller."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_hidden=st.integers(1, 3),
        dropout=st.booleans(),
        dead_layer=st.one_of(st.none(), st.integers(0, 2)),
        values=st.sampled_from(["normal", "dyadic", "huge"]),
    )
    def test_equals_dense_reference(self, seed, n_hidden, dropout, dead_layer, values):
        rng = np.random.default_rng(seed)
        net = sparse_net(rng, n_hidden, dead_layer)
        n = 200
        if values == "dyadic":
            # multiples of 1/8 with masks of 2: every float64 sum is exact in any order
            snap = [np.round(a * 8.0) / 8.0 for a in (*net.weights, *net.biases)]
            net = PhenotypeNetwork(tuple(snap[:len(net.weights)]),
                                   tuple(snap[len(net.weights):]))
            masks = dropout_masks(net, 0.5, rng) if dropout else None
            X = dyadic(rng, (n, 6), 2)
            X[1:40] = X[0] + dyadic(rng, (39, 6), 1) * (rng.random((39, 1)) < 0.5)
        else:
            if values == "huge":
                # float32 overflows, float64 does not
                net = PhenotypeNetwork(tuple(w * 1e20 for w in net.weights), net.biases)
            masks = dropout_masks(net, 0.6, rng) if dropout else None
            X = rng.normal(size=(n, 6))
            # rows 1..99 lie within 1e-12..1e-3 of row 0, on both sides
            t = rng.choice([-1.0, 1.0], size=(99, 1)) * 10.0 ** rng.uniform(-12, -3, size=(99, 1))
            X[1:100] = X[0] + t * rng.normal(size=6)
        # put row 0 on the boundary: its output becomes 0, or nearly so
        last = net.biases[-1] - dense_forward(net, X[:1], masks)
        net = PhenotypeNetwork(net.weights, net.biases[:-1] + (last,))
        limit = rng.random(n) < 0.1
        tensors = DatasetTensors("training", 5, X, np.zeros(n), limit)

        reference = dense_forward(net, X, masks)
        flags = match_flags(net, tensors, masks)

        if values == "dyadic":
            assert np.array_equal(flags, (reference > 0.0) & ~limit)
            return
        # rows within the float64 rounding of any summation order may go either way
        roundings = 1 + sum(w.shape[0] + 2 for w in net.weights)
        near = np.abs(reference) <= 2 * roundings * np.finfo(float).eps * abs_forward(net, X, masks)
        assert np.array_equal(flags[~near], ((reference > 0.0) & ~limit)[~near])

    def _spy(self, monkeypatch):
        """Row counts of the float64 passes of the shared forward loop."""
        import chartevo.evaluator as evaluator

        rows = []
        real = evaluator._forward
        monkeypatch.setattr(evaluator, "_forward", lambda X, *a: (
            X.dtype == np.float64 and rows.append(len(X))) or real(X, *a))
        return rows

    def test_float32_certifies_most_rows(self, monkeypatch):
        rng = np.random.default_rng(8)
        net = random_net(rng, sizes=(64, 32, 8, 1))
        masks = dropout_masks(net, 0.8, rng)
        X = rng.normal(size=(2000, 64))
        rows = self._spy(monkeypatch)
        flags = positive_outputs(net, X, masks)
        assert np.array_equal(flags, dense_forward(net, X, masks) > 0.0)
        assert sum(rows) < 20

    @pytest.mark.parametrize("case", ["no_live_hidden", "huge", "huge_input", "flat"])
    def test_float64_runs_once_on_every_row(self, monkeypatch, case):
        # a constant output, or a net or input float32 cannot hold, pays for one pass only
        rng = np.random.default_rng(9)
        net = random_net(rng, sizes=(6, 5, 3, 1))
        if case == "no_live_hidden":
            net = PhenotypeNetwork((np.zeros((6, 5)),) + net.weights[1:],
                                   (-np.ones(5),) + net.biases[1:])
        elif case == "huge":
            net = PhenotypeNetwork(tuple(w * 1e30 for w in net.weights), net.biases)
        elif case == "flat":
            net = random_net(rng, sizes=(6, 1))
        X = rng.normal(size=(50, 6))
        if case == "huge_input":
            X[7, 2] = 1e300
        tensors = DatasetTensors("training", 5, X, np.zeros(50), np.zeros(50, bool))
        rows = self._spy(monkeypatch)
        assert np.array_equal(match_flags(net, tensors), dense_forward(net, X) > 0.0)
        assert rows == [50]

    @pytest.mark.parametrize("case", ["boundary_row", "huge"])
    def test_live_units_once_per_call(self, monkeypatch, case):
        # the float64 rows reuse the kernel's live sub-network
        import chartevo.evaluator as evaluator

        rng = np.random.default_rng(10)
        net = random_net(rng, sizes=(6, 5, 3, 1))
        masks = dropout_masks(net, 0.8, rng)
        X = rng.normal(size=(50, 6))
        if case == "huge":
            net = PhenotypeNetwork(tuple(w * 1e30 for w in net.weights), net.biases)
        else:
            # row 0's output becomes 0, so the float32 pass cannot certify it
            last = net.biases[-1] - dense_forward(net, X[:1], masks)
            net = PhenotypeNetwork(net.weights, net.biases[:-1] + (last,))
        calls = []
        real = evaluator.live_units
        monkeypatch.setattr(evaluator, "live_units", lambda *a: calls.append(1) or real(*a))
        rows = self._spy(monkeypatch)
        flags = positive_outputs(net, X, masks)
        assert calls == [1]
        assert rows == [50] if case == "huge" else len(rows) == 1 and 0 < rows[0] < 50
        reference = dense_forward(net, X, masks)
        near = np.abs(reference) <= 1e-12
        assert np.array_equal(flags[~near], (reference > 0.0)[~near])


class TestPenalty:
    def test_no_matches_no_penalty(self):
        assert penalty(0, 100000.0) == 1.0

    def test_alpha_matches(self):
        assert penalty(100000, 100000.0) == pytest.approx(math.exp(-6.0), rel=1e-15)

    def test_hand_value(self):
        assert penalty(5000, 100000.0) == pytest.approx(math.exp(-0.3), rel=1e-15)

    def test_monotone_decreasing(self):
        values = [penalty(m, 1000.0) for m in range(0, 5000, 250)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestFitness:
    def test_all_zero_network(self):
        net = PhenotypeNetwork((np.zeros((4, 1)),), (np.zeros(1),))
        data = random_dataset(np.random.default_rng(8), 20)
        report = fitness(net, data, EvalConfig(k=5))
        assert report.match_count == 0
        assert report.fitness == 0.0
        assert report.penalty == 1.0

    def test_positive_bias_matches_everything_unvetoed(self):
        net = PhenotypeNetwork((np.zeros((4, 1)),), (np.array([0.5]),))
        data = make_dataset(np.zeros((4, 2, 2)),
                            [[0.10, np.nan], [0.30, np.nan], [9.99, np.nan], [np.nan, 0.70]],
                            limit=[False, False, True, False])
        report = fitness(net, data, EvalConfig(k=5, alpha=100.0))
        assert report.match_count == 2
        assert report.mean_log_return == pytest.approx(0.2)
        assert report.penalty == pytest.approx(math.exp(-12.0 / 100.0), rel=1e-15)
        assert report.fitness == pytest.approx(0.2 * math.exp(-0.12), rel=1e-12)

    def test_limit_hit_vetoes_match(self):
        net = PhenotypeNetwork((np.zeros((4, 1)),), (np.array([1.0]),))
        data = make_dataset(np.zeros((1, 2, 2)), [[5.0]], (5,), limit=True)
        report = fitness(net, data, EvalConfig(k=5))
        assert report.match_count == 0
        assert report.fitness == 0.0

    def test_strictly_positive_output_required(self):
        net = PhenotypeNetwork((np.zeros((4, 1)),), (np.zeros(1),))
        data = make_dataset(np.zeros((1, 2, 2)), [[1.0]], (5,))
        flags = match_flags(net, DatasetTensors.from_dataset(data, 5))
        assert not flags[0]

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            net = random_net(rng)
            data = random_dataset(rng, 40)
            config = EvalConfig(k=5, alpha=50.0)
            report = fitness(net, data, config)
            want_fit, want_m, want_pen = naive_fitness(net, data, 5, 50.0)
            assert report.match_count == want_m
            assert report.penalty == pytest.approx(want_pen, rel=1e-12)
            assert report.fitness == pytest.approx(want_fit, rel=1e-9, abs=1e-12)

    def test_negative_mean_return_allowed(self):
        net = PhenotypeNetwork((np.zeros((4, 1)),), (np.array([1.0]),))
        data = make_dataset(np.zeros((1, 2, 2)), [[-0.4]], (5,))
        report = fitness(net, data, EvalConfig(k=5, alpha=1e5))
        assert report.fitness < 0.0


class TestDropout:
    def _net(self):
        return random_net(np.random.default_rng(10), sizes=(4, 2000, 100, 1))

    def test_same_key_same_masks(self):
        net = self._net()
        a = dropout_masks(net, 0.8, dropout_rng(7, 3, 12))
        b = dropout_masks(net, 0.8, dropout_rng(7, 3, 12))
        for ma, mb in zip(a, b):
            assert np.array_equal(ma, mb)

    def test_distinct_keys_distinct_masks(self):
        net = self._net()
        base = dropout_masks(net, 0.8, dropout_rng(7, 3, 12))
        for gen, org in ((4, 12), (3, 13), (2, 12)):
            other = dropout_masks(net, 0.8, dropout_rng(7, gen, org))
            assert not all(np.array_equal(a, b) for a, b in zip(base, other))

    def test_mask_values_inverted_scale(self):
        masks = dropout_masks(self._net(), 0.8, dropout_rng(0, 0, 0))
        for m in masks:
            assert set(np.unique(m)) <= {0.0, 1.25}

    def test_retain_fraction(self):
        masks = dropout_masks(self._net(), 0.8, dropout_rng(1, 0, 0))
        kept = sum(int((m > 0).sum()) for m in masks)
        total = sum(m.size for m in masks)
        sigma = math.sqrt(0.8 * 0.2 / total)
        assert abs(kept / total - 0.8) < 3 * sigma

    def test_hidden_layers_only(self):
        net = express(minimal_genome(np.random.default_rng(11)),
                      standard_substrates()["network"])
        masks = dropout_masks(net, 0.8, dropout_rng(0, 0, 0))
        assert [m.shape for m in masks] == [(192,), (48,)]


class TestEvaluatePopulation:
    def _population(self, n=6):
        rng = np.random.default_rng(12)
        return [random_net(rng) for _ in range(n)]

    def test_dropout_off_equals_plain_fitness(self):
        nets = self._population()
        data = random_dataset(np.random.default_rng(14), 30)
        config = EvalConfig(k=5, alpha=100.0, dropout_enabled=False)
        reports = evaluate_population(nets, data, config)
        assert reports == [fitness(net, data, config) for net in nets]

    def test_generation_changes_masked_scores(self):
        nets = [random_net(np.random.default_rng(15), sizes=(4, 300, 1))] * 4
        data = random_dataset(np.random.default_rng(16), 200)
        config = EvalConfig(k=5, alpha=100.0, rng_seed=5)
        g0 = evaluate_population(nets, data, config, generation=0)
        g1 = evaluate_population(nets, data, config, generation=1)
        assert g0 != g1

    def test_reports_align_with_indices(self):
        nets = self._population(3)
        data = random_dataset(np.random.default_rng(17), 40)
        config = EvalConfig(k=5, alpha=100.0, rng_seed=9)
        all_reports = evaluate_population(nets, data, config, generation=4)
        for i, net in enumerate(nets):
            masks = dropout_masks(net, 0.8, dropout_rng(9, 4, i))
            assert fitness(net, data, config, masks) == all_reports[i]


def dyadic(rng, size, scale):
    """Multiples of 1/8 in [-scale, scale]: sums of a few of their products are exact."""
    return rng.integers(-8 * scale, 8 * scale + 1, size=size) / 8.0


class TestStackedScoring:
    """Networks without a hidden layer are scored in stacked blocks; every
    report must equal the one :func:`fitness` gives that network alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=st.sampled_from([1, 31, 32, 33, 100]),
        hidden_share=st.sampled_from([0.0, 0.3]),
        dropout=st.booleans(),
    )
    def test_equals_per_network_fitness(self, seed, size, hidden_share, dropout):
        rng = np.random.default_rng(seed)
        n, width = 200, 6
        X = dyadic(rng, (n, width), 2)
        # arbitrary returns over six decades: a reordered sum shows in the last bits
        returns = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        limit = rng.random(n) < 0.2
        tensors = DatasetTensors("training", 5, X, returns, limit)
        nets = []
        for _ in range(size):
            if rng.random() < hidden_share:
                nets.append(random_net(rng, sizes=(width, 4, 1)))
                continue
            w = dyadic(rng, (width, 1), 2)
            # the chart at ``on`` outputs exactly 0.0 unless the bias is shifted
            on = int(rng.integers(n))
            b = -(X[on] @ w) + (dyadic(rng, 1, 1) if rng.random() < 0.5 else 0.0)
            nets.append(PhenotypeNetwork((w,), (b,)))
        config = EvalConfig(k=5, alpha=50.0, dropout_enabled=dropout, rng_seed=3)

        reports = evaluate_population(nets, tensors, config, generation=2)

        expected = []
        for i, net in enumerate(nets):
            masks = None
            if dropout and net.n_hidden_layers:
                masks = dropout_masks(net, config.dropout_retain, dropout_rng(3, 2, i))
            expected.append(fitness(net, tensors, config, masks))
        assert reports == expected

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), size=st.sampled_from([1, 32, 33, 100]))
    def test_agrees_away_from_zero_on_arbitrary_floats(self, seed, size):
        # inexact sums: the stacked product and ``X @ w`` may round in their
        # own orders, so only outputs clear of that rounding must agree
        rng = np.random.default_rng(seed)
        n, width = 300, 64
        X = rng.normal(size=(n, width))
        returns = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        tensors = DatasetTensors("training", 5, X, returns, rng.random(n) < 0.2)
        nets = [PhenotypeNetwork((rng.normal(size=(width, 1)),), (rng.normal(size=1),))
                for _ in range(size)]
        config = EvalConfig(k=5, alpha=50.0)

        reports = evaluate_population(nets, tensors, config)

        tradeable = ~tensors.limit_hit
        for net, report in zip(nets, reports):
            out = forward_output(net, X)
            w, b = net.weights[0][:, 0], net.biases[0][0]
            # error bound of any summation order of width + 1 terms
            tol = 2 * (width + 1) * np.finfo(float).eps * (np.abs(X) @ np.abs(w) + abs(b))
            near = (np.abs(out) <= tol) & tradeable
            if near.any():
                sure = int(((out > tol) & tradeable).sum())
                assert sure <= report.match_count <= sure + int(near.sum())
            else:
                assert report == fitness(net, tensors, config)

    def test_no_dropout_stream_for_flat_networks(self, monkeypatch):
        import chartevo.evaluator as evaluator

        rng = np.random.default_rng(21)
        nets = [random_net(rng, sizes=(4, 1)), random_net(rng, sizes=(4, 3, 1))]
        keys = []
        real = evaluator.dropout_rng
        monkeypatch.setattr(evaluator, "dropout_rng",
                            lambda seed, g, i: keys.append(i) or real(seed, g, i))
        evaluate_population(nets, random_dataset(rng, 30), EvalConfig(k=5, alpha=100.0))
        assert keys == [1]


class TestConfig:
    def test_retain_bounds(self):
        with pytest.raises(ConfigError):
            EvalConfig(dropout_retain=0.0)
        with pytest.raises(ConfigError):
            EvalConfig(dropout_retain=1.2)

    def test_horizon_positive(self):
        with pytest.raises(ConfigError):
            EvalConfig(k=0)

    def test_alpha_positive(self):
        with pytest.raises(ConfigError):
            EvalConfig(alpha=0.0)
