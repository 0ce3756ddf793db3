from __future__ import annotations

import datetime
import math

import numpy as np
import pytest

from chartevo.preprocess import PreprocessConfig, charts_from_series
from chartevo.synthdata import (
    Injection,
    SynthConfig,
    generate,
    load_injections,
    trading_dates,
    write_injections,
)
from chartevo.types import ConfigError


class TestTradingDates:
    def test_weekdays_only(self):
        dates = trading_dates(datetime.date(2012, 1, 2), 30)
        assert len(dates) == 30
        assert all(d.weekday() < 5 for d in dates)
        assert all(a < b for a, b in zip(dates, dates[1:]))

    def test_weekend_start_rolls_forward(self):
        dates = trading_dates(datetime.date(2012, 1, 7), 3)  # a Saturday
        assert dates[0] == datetime.date(2012, 1, 9)


class TestGenerate:
    def test_deterministic(self):
        config = SynthConfig(n_instruments=3, n_days=300, injection_rate=0.02,
                             drift=0.05, seed=99)
        series_a, inj_a = generate(config)
        series_b, inj_b = generate(config)
        assert inj_a == inj_b
        for a, b in zip(series_a, series_b):
            assert a.instrument_id == b.instrument_id
            assert np.array_equal(a.closes, b.closes)

    def test_seed_changes_output(self):
        base = SynthConfig(n_instruments=2, n_days=100)
        a, _ = generate(base)
        b, _ = generate(SynthConfig(n_instruments=2, n_days=100, seed=1))
        assert not np.array_equal(a[0].closes, b[0].closes)

    def test_shapes_and_names(self):
        series, _ = generate(SynthConfig(n_instruments=4, n_days=120))
        assert [s.instrument_id for s in series] == ["SYN000", "SYN001", "SYN002", "SYN003"]
        assert all(len(s.closes) == 120 for s in series)
        assert all(len(s.dates) == 120 for s in series)

    def test_prices_positive(self):
        series, _ = generate(SynthConfig(n_instruments=3, n_days=500,
                                         base_volatility=0.05, seed=5))
        for s in series:
            assert np.all(s.closes > 0)

    def test_zero_rate_no_injections(self):
        _, injections = generate(SynthConfig(n_instruments=3, n_days=400))
        assert injections == []

    def test_base_price_scales_start(self):
        series, _ = generate(SynthConfig(n_instruments=1, n_days=10, base_price=42.0))
        assert series[0].closes[0] == pytest.approx(42.0)


class TestInjectionGeometry:
    def _quiet_run(self, shape="soaring", drift=0.1):
        config = SynthConfig(
            n_instruments=1, n_days=260, base_volatility=0.0,
            injection_rate=1.0, motif_shape=shape, motif_length=30,
            motif_amplitude=0.3, drift=drift, drift_horizon=20,
            warmup_days=170, seed=0,
        )
        series, injections = generate(config)
        return config, series[0], injections

    def test_ramp_spans_motif_amplitude(self):
        config, series, injections = self._quiet_run()
        assert injections, "rate 1.0 must inject"
        for inj in injections:
            start = series.dates.index(inj.motif_start)
            entry = series.dates.index(inj.entry_date)
            assert entry - start == config.motif_length
            move = math.log(series.closes[entry] / series.closes[start])
            assert move == pytest.approx(0.3, rel=1e-9)

    def test_drift_follows_entry(self):
        config, series, injections = self._quiet_run(drift=0.1)
        for inj in injections:
            entry = series.dates.index(inj.entry_date)
            after = math.log(series.closes[entry + 20] / series.closes[entry])
            assert after == pytest.approx(0.1, rel=1e-9)

    def test_falling_shape_drops(self):
        _, series, injections = self._quiet_run(shape="falling", drift=0.0)
        for inj in injections:
            start = series.dates.index(inj.motif_start)
            entry = series.dates.index(inj.entry_date)
            move = math.log(series.closes[entry] / series.closes[start])
            assert move == pytest.approx(-0.3, rel=1e-9)

    def test_entries_respect_warmup(self):
        config = SynthConfig(n_instruments=4, n_days=500, injection_rate=0.05,
                             warmup_days=170, seed=3)
        series, injections = generate(config)
        by_id = {s.instrument_id: s for s in series}
        for inj in injections:
            entry = by_id[inj.instrument_id].dates.index(inj.entry_date)
            assert entry >= config.warmup_days

    def test_motifs_do_not_overlap(self):
        config = SynthConfig(n_instruments=4, n_days=900, injection_rate=0.2,
                             drift=0.05, seed=4)
        series, injections = generate(config)
        by_id = {s.instrument_id: s for s in series}
        spacing = config.motif_length + config.drift_horizon
        per_instrument: dict[str, list[int]] = {}
        for inj in injections:
            start = by_id[inj.instrument_id].dates.index(inj.motif_start)
            per_instrument.setdefault(inj.instrument_id, []).append(start)
        for starts in per_instrument.values():
            assert all(b - a >= spacing for a, b in zip(starts, starts[1:]))

    def test_return_on_chart_tail_fits(self):
        # every entry leaves room for the drift horizon before the series ends
        config = SynthConfig(n_instruments=3, n_days=400, injection_rate=0.1, seed=6)
        series, injections = generate(config)
        by_id = {s.instrument_id: s for s in series}
        for inj in injections:
            entry = by_id[inj.instrument_id].dates.index(inj.entry_date)
            assert entry + config.drift_horizon <= config.n_days - 1


class TestDriftStatistics:
    def test_mean_forward_return_near_drift(self):
        config = SynthConfig(
            n_instruments=10, n_days=1330, base_volatility=0.015,
            injection_rate=0.03, drift=0.08, drift_horizon=20, seed=7,
        )
        series, injections = generate(config)
        by_id = {s.instrument_id: s for s in series}
        realized = []
        for inj in injections:
            s = by_id[inj.instrument_id]
            entry = s.dates.index(inj.entry_date)
            realized.append(math.log(s.closes[entry + 20] / s.closes[entry]))
        assert len(realized) > 50
        sigma_mean = 0.015 * math.sqrt(20) / math.sqrt(len(realized))
        assert abs(np.mean(realized) - 0.08) < 3 * sigma_mean


class TestRecoverability:
    def test_injected_entries_chart_with_better_returns(self):
        config = SynthConfig(
            n_instruments=3, n_days=600, base_volatility=0.01,
            injection_rate=0.05, motif_amplitude=0.25, drift=0.10,
            drift_horizon=20, seed=8,
        )
        series, injections = generate(config)
        pre = PreprocessConfig()
        by_id = {s.instrument_id: s for s in series}
        entries: dict[str, list[int]] = {}
        for inj in injections:
            entries.setdefault(inj.instrument_id, []).append(
                by_id[inj.instrument_id].dates.index(inj.entry_date)
            )
        injected, clean = [], []
        span = config.motif_length + config.drift_horizon
        for s in series:
            marks = entries.get(s.instrument_id, [])
            charts = charts_from_series(s, pre)
            for ordinal, r20 in zip(charts.entry_ordinals, charts.returns[:, charts.horizons.index(20)]):
                if np.isnan(r20):
                    continue
                idx = s.dates.index(datetime.date.fromordinal(int(ordinal)))
                if idx in marks:
                    injected.append(r20)
                elif all(abs(idx - e) > span for e in marks):
                    # far from every motif, so the forward window is pure noise
                    clean.append(r20)
        assert injected, "planted entries must produce charts"
        assert np.mean(injected) > np.mean(clean) + 0.05


class TestInjectionIO:
    def test_round_trip(self, tmp_path):
        injections = [
            Injection("SYN000", datetime.date(2012, 5, 1), datetime.date(2012, 6, 12), "soaring"),
            Injection("SYN001", datetime.date(2013, 2, 4), datetime.date(2013, 3, 18), "falling"),
        ]
        path = tmp_path / "truth.csv"
        write_injections(path, injections)
        assert load_injections(path) == injections

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ConfigError):
            load_injections(path)


class TestConfigValidation:
    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            SynthConfig(injection_rate=1.5)

    def test_shape_names(self):
        with pytest.raises(ConfigError):
            SynthConfig(motif_shape="sideways")

    def test_minimum_span(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_days=1)
