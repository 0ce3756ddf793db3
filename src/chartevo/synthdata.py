"""Synthetic price corpora with optional planted, labeled patterns.

Each instrument is a geometric random walk in log space.  At random
(non-overlapping) spots a motif is injected: a monotone multiplicative
ramp spread over a fixed number of days, followed by a configured drift
over the next ``drift_horizon`` days.  The day right after the ramp is
the motif's entry day; a ground-truth record of entry dates lets tests
check whether a search recovered the planted pattern.
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .types import ConfigError, PriceSeries, atomic_open

MOTIF_SHAPES = ("soaring", "falling")


@dataclass(frozen=True)
class SynthConfig:
    n_instruments: int = 10
    n_days: int = 1330  # about five trading years, enough for year splits
    base_price: float = 100.0
    base_volatility: float = 0.015
    start_date: datetime.date = datetime.date(2012, 1, 2)
    injection_rate: float = 0.0  # per-day probability once injection is allowed
    motif_shape: str = "soaring"
    motif_length: int = 30
    motif_amplitude: float = 0.3  # total log move of the ramp
    drift: float = 0.0  # mean log return planted over the horizon after entry
    drift_horizon: int = 20
    warmup_days: int = 170  # no entries before this day, so every motif charts
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_instruments < 1 or self.n_days < 2:
            raise ConfigError("need at least one instrument and two days")
        if self.base_price <= 0 or self.base_volatility < 0:
            raise ConfigError("base_price must be positive and volatility non-negative")
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ConfigError("injection_rate must lie in [0, 1]")
        if self.motif_shape not in MOTIF_SHAPES:
            raise ConfigError(f"motif_shape must be one of {MOTIF_SHAPES}")
        if self.motif_length < 1 or self.drift_horizon < 1:
            raise ConfigError("motif_length and drift_horizon must be >= 1")
        if self.motif_amplitude < 0:
            raise ConfigError("motif_amplitude must be >= 0")
        if self.warmup_days < 1:
            raise ConfigError("warmup_days must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class Injection:
    """One planted motif: the ramp start and the entry day that follows it."""

    instrument_id: str
    motif_start: datetime.date
    entry_date: datetime.date
    shape: str


def trading_dates(start: datetime.date, n: int) -> tuple[datetime.date, ...]:
    """n consecutive weekdays beginning at (or after) ``start``."""
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += datetime.timedelta(days=1)
    return tuple(out)


def generate(config: SynthConfig) -> tuple[list[PriceSeries], list[Injection]]:
    """Build the corpus; same config and seed always yield identical output."""
    rng = np.random.default_rng(config.seed)
    dates = trading_dates(config.start_date, config.n_days)
    length, horizon = config.motif_length, config.drift_horizon
    sign = 1.0 if config.motif_shape == "soaring" else -1.0
    series_list: list[PriceSeries] = []
    injections: list[Injection] = []
    for i in range(config.n_instruments):
        instrument = f"SYN{i:03d}"
        steps = rng.normal(0.0, config.base_volatility, config.n_days - 1)
        if config.injection_rate > 0.0:
            t = max(1, config.warmup_days - length)
            last_start = config.n_days - 1 - horizon - length
            while t <= last_start:
                if rng.random() < config.injection_rate:
                    steps[t:t + length] += sign * config.motif_amplitude / length
                    entry = t + length
                    steps[entry:entry + horizon] += config.drift / horizon
                    injections.append(
                        Injection(instrument, dates[t], dates[entry], config.motif_shape)
                    )
                    t += length + horizon
                else:
                    t += 1
        closes = config.base_price * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
        series_list.append(PriceSeries(instrument, dates, closes))
    return series_list, injections


def write_injections(path, injections: Sequence[Injection]) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("instrument_id,motif_start,entry_date,shape\n")
        for inj in injections:
            fh.write(f"{inj.instrument_id},{inj.motif_start.isoformat()},"
                     f"{inj.entry_date.isoformat()},{inj.shape}\n")


def load_injections(path) -> list[Injection]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "instrument_id,motif_start,entry_date,shape":
            raise ConfigError(f"{path}: not an injection ground-truth file")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            instrument, start, entry, shape = line.split(",")
            out.append(Injection(
                instrument,
                datetime.date.fromisoformat(start),
                datetime.date.fromisoformat(entry),
                shape,
            ))
    return out
