from __future__ import annotations

import datetime
import math

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings, strategies as st

from chartevo import preprocess
from chartevo.cli import main
from chartevo.preprocess import (
    PreprocessConfig,
    SplitRange,
    build_corpus,
    chart_values,
    charts_from_series,
    default_split_ranges,
    forward_returns,
    limit_hit,
    load_price_directory,
    slice_series,
    smooth,
    write_price_directory,
)
from chartevo.synthdata import SynthConfig, generate
from chartevo.types import COLUMNS, ConfigError, Dataset, PriceSeries, load_dataset


def weekday_series(closes, instrument="S", start=datetime.date(2012, 1, 2)):
    closes = np.asarray(closes, dtype=np.float64)
    dates = []
    day = start
    while len(dates) < len(closes):
        if day.weekday() < 5:
            dates.append(day)
        day += datetime.timedelta(days=1)
    return PriceSeries(instrument, tuple(dates), closes)


def random_series(n, seed=0, vol=0.02):
    rng = np.random.default_rng(seed)
    closes = 50.0 * np.exp(np.cumsum(rng.normal(0, vol, n)))
    return weekday_series(closes)


SMALL = PreprocessConfig(
    smoothing_window=3,
    slice_window=8,
    downsample_factor=2,
    channel2_scale=0.25,
    horizons=(2, 5),
    limit_threshold=0.295,
)


def naive_charts(series, cfg):
    """Pure-python reimplementation used as an oracle."""
    w, s, f = cfg.smoothing_window, cfg.slice_window, cfg.downsample_factor
    closes = [float(c) for c in series.closes]
    l = len(closes)
    sm = [sum(closes[i - w + 1:i + 1]) / w for i in range(w - 1, l)]
    out = []
    for j in range(1, len(sm) - s + 1):
        e = j + s + w - 1
        if e >= l:
            continue
        window = sm[j:j + s]
        prev = sm[j - 1]
        ch1 = [math.log(window[i] / (window[i - 1] if i else prev)) for i in range(s)]
        ch2 = [math.log(window[i] / window[-1]) for i in range(s)]
        d1 = [sum(ch1[b * f:(b + 1) * f]) / f for b in range(s // f)]
        d2 = [sum(ch2[b * f:(b + 1) * f]) / f * cfg.channel2_scale for b in range(s // f)]
        returns = {
            k: math.log(closes[e + k] / closes[e]) for k in cfg.horizons if e + k < l
        }
        limit = closes[e] / closes[e - 1] - 1.0 >= cfg.limit_threshold
        out.append((series.dates[e], d1, d2, returns, limit))
    return out


class TestSmooth:
    def test_hand_example(self):
        s = weekday_series([1.0, 2.0, 3.0, 4.0])
        sm = smooth(s, 2)
        assert np.allclose(sm.closes, [1.5, 2.5, 3.5])
        assert sm.dates == s.dates[1:]

    def test_constant_series_exact(self):
        s = weekday_series([2.0] * 30)
        assert np.array_equal(smooth(s, 7).closes, np.full(24, 2.0))

    def test_window_one_is_identity(self):
        s = weekday_series([1.0, 3.0, 2.0])
        sm = smooth(s, 1)
        assert np.array_equal(sm.closes, s.closes)

    def test_short_series_warns_and_empty(self, caplog):
        s = weekday_series([1.0, 2.0])
        with caplog.at_level("WARNING"):
            sm = smooth(s, 5)
        assert len(sm) == 0
        assert any("shorter" in r.message for r in caplog.records)


class TestSlice:
    def test_exact_fit(self):
        s = weekday_series([1.0] * 8)
        assert slice_series(s, 8).shape == (1, 8)

    def test_counts(self):
        s = weekday_series(np.linspace(1, 2, 130))
        assert slice_series(s, 128).shape == (3, 128)

    def test_count_formula(self):
        n = 200
        s = random_series(n)
        assert len(slice_series(s, 40)) == n - 40 + 1

    def test_too_short_is_empty(self):
        assert len(slice_series(weekday_series([1.0, 2.0]), 5)) == 0


def one_chart_values(window, preceding, cfg):
    return chart_values(np.asarray(window)[None], np.array([preceding]), cfg)[0]


class TestChartValues:
    def test_constant_window_is_zero(self):
        cfg = SMALL
        values = one_chart_values(np.full(8, 3.0), 3.0, cfg)
        assert values.shape == (4, 2)
        assert np.all(values == 0.0)

    def test_geometric_growth_constant_channel1(self):
        cfg = SMALL
        g = 1.01
        window = 5.0 * g ** np.arange(8)
        values = one_chart_values(window, 5.0 / g, cfg)
        assert np.allclose(values[:, 0], math.log(g), rtol=1e-12)
        # channel 2: log distance to the final value, then scaled
        expected_last = 0.0
        assert values[-1, 1] == pytest.approx(
            cfg.channel2_scale * (math.log(g ** -1) + expected_last) / 2, rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            one_chart_values(np.full(8, 1.0), 0.0, SMALL)

    def test_batch_rows_are_independent(self):
        windows = 5.0 * 1.01 ** np.arange(24).reshape(3, 8)
        batch = chart_values(windows, np.array([4.0, 4.5, 6.0]), SMALL)
        assert batch.shape == (3, 4, 2)
        for i, preceding in enumerate([4.0, 4.5, 6.0]):
            assert np.array_equal(batch[i], one_chart_values(windows[i], preceding, SMALL))


def returns_dict(horizons, row):
    """One row of returns as a {horizon: return} dict, NaN (missing) left out."""
    return {k: float(r) for k, r in zip(horizons, row) if not np.isnan(r)}


def returns_at(series, entry, horizons):
    return returns_dict(horizons, forward_returns(series, np.array([entry]), horizons)[0])


class TestLabels:
    def test_forward_returns_flat(self):
        s = weekday_series([4.0] * 20)
        assert returns_at(s, 5, (2, 5)) == {2: 0.0, 5: 0.0}

    def test_forward_returns_hand_value(self):
        closes = [1.0] * 10
        closes[7] = 1.1
        s = weekday_series(closes)
        r = returns_at(s, 5, (2,))
        assert r[2] == pytest.approx(math.log(1.1), rel=1e-12)

    def test_missing_horizon_absent(self):
        s = weekday_series([1.0] * 10)
        assert returns_at(s, 8, (1, 5)) == {1: 0.0}
        assert np.isnan(forward_returns(s, np.array([8]), (1, 5))[0, 1])

    def test_limit_hit_threshold_inclusive(self):
        # 1.25 / 1.0 - 1.0 is exactly 0.25 in binary, so this probes the
        # >= boundary without float-representation slack
        s = weekday_series([1.0, 1.25, 1.25])
        assert list(limit_hit(s, np.array([1, 2]), 0.25)) == [True, False]

    def test_limit_hit_default_threshold(self):
        assert limit_hit(weekday_series([1.0, 1.30]), np.array([1]), 0.295)[0]
        assert not limit_hit(weekday_series([1.0, 1.29]), np.array([1]), 0.295)[0]

    def test_limit_hit_needs_preceding_close(self):
        with pytest.raises(ValueError):
            limit_hit(weekday_series([1.0, 1.30]), np.array([0, 1]), 0.295)


def reference_charts(series, cfg):
    """Per-window loop over the single-window preprocessing steps, kept as an oracle.

    Rows are (entry date, values, {horizon: return}, limit hit), one per
    tradeable window, with every step written for one window at a time.
    """
    w, s = cfg.smoothing_window, cfg.slice_window
    smoothed = smooth(series, w)
    windows = slice_series(smoothed, s)
    closes = series.closes
    out = []
    for j in range(1, len(windows)):
        entry_index = j + s + w - 1
        if entry_index >= len(series):
            continue
        window, preceding = windows[j], float(smoothed.closes[j - 1])
        shifted = np.concatenate(([preceding], window[:-1]))
        daily = np.log(window / shifted)
        to_last = np.log(window / window[-1])
        f = cfg.downsample_factor
        daily = daily.reshape(-1, f).mean(axis=1)
        to_last = to_last.reshape(-1, f).mean(axis=1) * cfg.channel2_scale
        returns = {}
        for k in cfg.horizons:
            if entry_index + k < len(closes):
                returns[k] = float(np.log(closes[entry_index + k] / closes[entry_index]))
        change = closes[entry_index] / closes[entry_index - 1] - 1.0
        out.append((series.dates[entry_index], np.stack([daily, to_last], axis=1), returns,
                    bool(change >= cfg.limit_threshold)))
    return out


class TestChartsFromSeries:
    def test_matches_naive_oracle(self):
        series = random_series(60, seed=3)
        charts = charts_from_series(series, SMALL)
        oracle = naive_charts(series, SMALL)
        assert len(charts) == len(oracle)
        for i, (entry, d1, d2, returns, limit) in enumerate(oracle):
            assert datetime.date.fromordinal(int(charts.entry_ordinals[i])) == entry
            assert np.allclose(charts.values[i, :, 0], d1, rtol=0, atol=1e-14)
            assert np.allclose(charts.values[i, :, 1], d2, rtol=0, atol=1e-14)
            assert charts.limit_hit[i] == limit
            row = returns_dict(charts.horizons, charts.returns[i])
            assert set(row) == set(returns)
            for k, v in returns.items():
                assert row[k] == pytest.approx(v, rel=1e-12)

    @given(
        n_days=st.integers(0, 300),
        seed=st.integers(0, 2**31 - 1),
        smoothing=st.integers(1, 6),
        steps=st.integers(1, 6),
        factor=st.sampled_from([1, 2, 4, 8]),
        horizons=st.lists(st.integers(1, 400), min_size=1, max_size=3, unique=True),
        jump_day=st.integers(0, 299),
    )
    def test_bit_identical_to_per_window_reference(self, n_days, seed, smoothing, steps,
                                                   factor, horizons, jump_day):
        rng = np.random.default_rng(seed)
        closes = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.02, n_days)))
        if jump_day < n_days:
            closes[jump_day:] *= 1.4  # one limit-hit day
        series = weekday_series(closes)
        cfg = PreprocessConfig(smoothing_window=smoothing, slice_window=steps * factor,
                               downsample_factor=factor, channel2_scale=0.25,
                               horizons=tuple(horizons))
        charts = charts_from_series(series, cfg)
        reference = reference_charts(series, cfg)
        assert len(charts) == len(reference)
        assert charts.horizons == tuple(sorted(horizons))
        for i, (entry, values, returns, limit) in enumerate(reference):
            assert charts.chart_id(i) == f"S:{entry.isoformat()}"
            assert np.array_equal(charts.values[i], values)
            expected = [returns.get(k, np.nan) for k in charts.horizons]
            assert np.array_equal(charts.returns[i], expected, equal_nan=True)
            assert np.array_equal(np.isnan(charts.returns[i]), np.isnan(expected))
            assert charts.limit_hit[i] == limit

    def test_chart_count(self):
        # dropping the no-preceding-window start and the no-entry-day end
        # leaves length - smoothing - slice + 1 - 1 charts
        n = 70
        series = random_series(n, seed=5)
        charts = charts_from_series(series, SMALL)
        expected = n - SMALL.smoothing_window - SMALL.slice_window
        assert len(charts) == expected

    def test_full_size_config_shape(self):
        series = random_series(180, seed=8)
        charts = charts_from_series(series, PreprocessConfig())
        assert len(charts) == 180 - 24 - 128
        assert charts.values.shape[1:] == (32, 2)

    def test_too_short_yields_nothing(self):
        assert len(charts_from_series(random_series(100), PreprocessConfig())) == 0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15)
    def test_doubling_prices_is_exact_noop(self, seed):
        series = random_series(64, seed=seed)
        doubled = PriceSeries(series.instrument_id, series.dates, series.closes * 2.0)
        a = charts_from_series(series, SMALL)
        b = charts_from_series(doubled, SMALL)
        assert len(a) == len(b)
        assert np.array_equal(a.values, b.values)  # exact, not approximate
        assert np.array_equal(a.limit_hit, b.limit_hit)

    def test_all_values_finite(self):
        assert np.all(np.isfinite(charts_from_series(random_series(90, seed=11), SMALL).values))

    @pytest.mark.parametrize("rows", [slice(0, 0), slice(0, 1), slice(5, 17), slice(30, 40),
                                      slice(39, 60), slice(50, 80)])
    def test_rows_equal_the_rows_of_every_chart(self, rows):
        # each requested chart is built from its own closes, bit for bit
        series = random_series(60, seed=4)
        cfg = PreprocessConfig(smoothing_window=3, slice_window=8, downsample_factor=2,
                               horizons=(1, 5, 30))
        every = charts_from_series(series, cfg)
        part = charts_from_series(series, cfg, rows)
        assert len(every) == 49 and len(part) == len(range(49)[rows])
        for column in COLUMNS:
            a, b = getattr(part, column), getattr(every, column)[rows]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column


class TestConfigValidation:
    def test_no_split_range_rejected(self):
        with pytest.raises(ConfigError, match="no split ranges"):
            PreprocessConfig(split_ranges={})

    def test_slice_must_divide(self):
        with pytest.raises(ConfigError):
            PreprocessConfig(slice_window=10, downsample_factor=4)

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            PreprocessConfig(
                split_ranges={
                    "training": SplitRange(datetime.date(2012, 1, 1), datetime.date(2015, 6, 30)),
                    "validation": SplitRange(datetime.date(2015, 1, 1), datetime.date(2015, 12, 31)),
                }
            )

    def test_unknown_split_rejected(self):
        with pytest.raises(ConfigError, match="unknown split"):
            PreprocessConfig(
                split_ranges={"holdout": SplitRange(datetime.date(2012, 1, 1), datetime.date(2012, 2, 1))}
            )

    def test_duplicate_horizons_rejected(self):
        with pytest.raises(ConfigError):
            PreprocessConfig(horizons=(20, 20))


class TestBuildCorpus:
    def _series_set(self):
        return [random_series(700, seed=s) for s in range(3)]

    def _unique_ids(self, series_set):
        return [
            PriceSeries(f"I{i}", s.dates, s.closes) for i, s in enumerate(series_set)
        ]

    def test_split_assignment_matches_date_filter(self):
        cfg = PreprocessConfig(
            smoothing_window=3, slice_window=8, downsample_factor=2, horizons=(2,),
            split_ranges=default_split_ranges(),
        )
        series_set = self._unique_ids(self._series_set())
        corpus = build_corpus(series_set, cfg)
        # oracle: re-derive every chart and filter by entry date directly
        expected = {name: 0 for name in cfg.split_ranges}
        for series in series_set:
            charts = charts_from_series(series, cfg)
            for ordinal in charts.entry_ordinals:
                entry_date = datetime.date.fromordinal(int(ordinal))
                for name, span in cfg.split_ranges.items():
                    if span.start <= entry_date <= span.end:
                        expected[name] += 1
        assert {name: len(ds) for name, ds in corpus.items()} == expected
        assert sum(expected.values()) > 0

    def test_charts_outside_ranges_dropped(self):
        cfg = PreprocessConfig(
            smoothing_window=3, slice_window=8, downsample_factor=2, horizons=(2,),
            split_ranges={"test": SplitRange(datetime.date(1999, 1, 1), datetime.date(1999, 12, 31))},
        )
        corpus = build_corpus(self._unique_ids(self._series_set()), cfg)
        assert len(corpus["test"]) == 0

    def test_duplicate_instrument_ids_rejected(self):
        series = random_series(40)
        with pytest.raises(ConfigError, match="duplicate"):
            build_corpus([series, series], SMALL)

    def test_order_independent(self):
        cfg = PreprocessConfig(
            smoothing_window=3, slice_window=8, downsample_factor=2, horizons=(2,),
            split_ranges=default_split_ranges(),
        )
        series_set = self._unique_ids(self._series_set())
        a = build_corpus(series_set, cfg)
        b = build_corpus(list(reversed(series_set)), cfg)
        for name in a:
            ids_a = [a[name].chart_id(i) for i in range(len(a[name]))]
            ids_b = [b[name].chart_id(i) for i in range(len(b[name]))]
            assert ids_a == ids_b


def concatenated_corpus(series_set, cfg):
    """build_corpus's splits as one np.concatenate per column over every instrument's block."""
    blocks = [charts_from_series(s, cfg) for s in sorted(series_set, key=lambda s: s.instrument_id)]
    horizons = tuple(sorted(cfg.horizons))
    corpus = {}
    for name, span in cfg.split_ranges.items():
        bounds = [span.start.toordinal(), span.end.toordinal() + 1]
        parts = [(b, *np.searchsorted(b.entry_ordinals, bounds)) for b in blocks]
        parts = [(b, lo, hi) for b, lo, hi in parts if hi > lo]
        corpus[name] = Dataset(name, horizons, **{
            column: np.concatenate([getattr(b, column)[lo:hi] for b, lo, hi in parts])
            for column in COLUMNS
        }) if parts else Dataset.empty(name, horizons, cfg.chart_steps)
    return corpus


class TestBuildCorpusInPlace:
    def test_equals_concatenated_blocks(self):
        # ids of three lengths; LONGEST's series ends in 2012, so the widest id has no
        # validation row, and no chart enters in 2030
        cfg = PreprocessConfig(
            smoothing_window=3, slice_window=8, downsample_factor=2, horizons=(5, 2),
            split_ranges={
                "training": SplitRange(datetime.date(2012, 1, 1), datetime.date(2012, 12, 31)),
                "validation": SplitRange(datetime.date(2013, 1, 1), datetime.date(2014, 12, 31)),
                "test": SplitRange(datetime.date(2030, 1, 1), datetime.date(2030, 12, 31)),
            },
        )
        series_set = [PriceSeries(name, s.dates, s.closes) for name, s in (
            ("B", random_series(700, seed=1)),
            ("LONGEST", random_series(200, seed=2)),
            ("AB", random_series(700, seed=3)),
        )]
        corpus = build_corpus(series_set, cfg)
        reference = concatenated_corpus(series_set, cfg)
        assert list(corpus) == list(reference)
        for name, expected in reference.items():
            got = corpus[name]
            assert (got.split, got.horizons, len(got)) == (expected.split, expected.horizons, len(expected))
            for column in COLUMNS:
                a, b = getattr(got, column), getattr(expected, column)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), (name, column)
                assert a.tobytes() == b.tobytes(), (name, column)
        assert corpus["training"].source_ids.dtype == np.dtype("<U7")
        assert corpus["validation"].source_ids.dtype == np.dtype("<U2")
        assert len(corpus["test"]) == 0

    def test_peak_memory_is_the_split_columns(self):
        # beside the split columns only one instrument's charts and temporaries are alive
        series_set, _ = generate(SynthConfig(n_instruments=30, seed=3))
        corpus, peak = traced_peak(lambda: build_corpus(series_set, PreprocessConfig()))
        columns = sum(getattr(d, column).nbytes for d in corpus.values() for column in COLUMNS)
        assert columns > 16 * 2**20
        assert peak < columns + 8 * 2**20


class TestPreprocessCommand:
    """``chartevo preprocess`` builds, writes and drops one split at a time."""

    @pytest.fixture(scope="class")
    def prices(self, tmp_path_factory):
        # charts enter from mid-2012 to 2017, so some fall outside every split range
        series_set, _ = generate(SynthConfig(n_instruments=30, seed=3))
        directory = tmp_path_factory.mktemp("prices")
        write_price_directory(directory, series_set)
        return directory, series_set

    def _preprocess(self, prices, out):
        assert main(["preprocess", "--prices", str(prices), "--out", str(out)]) == 0

    def test_one_split_per_build_and_members_equal_concatenated(self, prices, tmp_path,
                                                               monkeypatch):
        import chartevo.cli as cli

        directory, series_set = prices
        built, real = [], cli.build_corpus
        monkeypatch.setattr(cli, "build_corpus",
                            lambda series, cfg: built.append([*cfg.split_ranges]) or real(series, cfg))
        self._preprocess(directory, tmp_path)
        assert built == [[name] for name in default_split_ranges()]
        reference = concatenated_corpus(series_set, PreprocessConfig())
        for name, expected in reference.items():
            got = load_dataset(tmp_path / f"{name}.npz")
            assert (got.split, got.horizons) == (expected.split, expected.horizons)
            for column in COLUMNS:
                a, b = getattr(got, column), getattr(expected, column)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column

    def test_builds_only_charts_in_a_split(self, prices, tmp_path, monkeypatch):
        directory, series_set = prices
        rows = []
        real = preprocess.charts_from_series

        def counted(*args, **kwargs):
            block = real(*args, **kwargs)
            rows.append(len(block))
            return block

        monkeypatch.setattr(preprocess, "charts_from_series", counted)
        self._preprocess(directory, tmp_path)
        kept = sum(len(load_dataset(tmp_path / f"{name}.npz")) for name in default_split_ranges())
        every = sum(len(real(s, PreprocessConfig())) for s in series_set)
        assert sum(rows) == kept < every

    def test_peak_memory_is_the_largest_split(self, prices, tmp_path):
        directory, _ = prices
        _, peak = traced_peak(lambda: self._preprocess(directory, tmp_path))
        splits = [load_dataset(tmp_path / f"{name}.npz") for name in default_split_ranges()]
        largest = max(sum(getattr(d, column).nbytes for column in COLUMNS) for d in splits)
        assert largest > 8 * 2**20
        assert peak < largest + 8 * 2**20


class TestPriceDirectory:
    def test_round_trip(self, tmp_path):
        series_set = [random_series(30, seed=s) for s in range(2)]
        series_set = [PriceSeries(f"A{i}", s.dates, s.closes) for i, s in enumerate(series_set)]
        write_price_directory(tmp_path, series_set)
        again = load_price_directory(tmp_path)
        assert [s.instrument_id for s in again] == ["A0", "A1"]
        for a, b in zip(again, series_set):
            assert np.array_equal(a.closes, b.closes)

    def test_missing_index(self, tmp_path):
        with pytest.raises(ConfigError, match="instrument index"):
            load_price_directory(tmp_path)
