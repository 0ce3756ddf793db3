"""Core domain types shared across the pipeline.

Everything here is an immutable value object: construct, validate once,
then pass around freely (including across worker threads).  Numpy arrays
held by these types are defensively copied and marked read-only.
"""
from __future__ import annotations

import datetime
import json
import math
import zipfile
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

CHART_STEPS = 32
CHART_CHANNELS = 2
SPLIT_NAMES = ("training", "validation", "test")

CORPUS_MAGIC = "chartevo-corpus"
CORPUS_VERSION = 1


class ConfigError(ValueError):
    """A configuration value violates its contract."""


class CorpusFormatError(ValueError):
    """A corpus file is missing, truncated, or has a bad header."""


def _frozen_array(values, shape=None, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PriceSeries:
    """Daily closing prices for one instrument, in trading-day order."""

    instrument_id: str
    dates: tuple[datetime.date, ...]
    closes: np.ndarray

    def __post_init__(self) -> None:
        if not self.instrument_id:
            raise ValueError("instrument_id must be non-empty")
        object.__setattr__(self, "dates", tuple(self.dates))
        closes = _frozen_array(self.closes)
        if closes.ndim != 1 or len(closes) != len(self.dates):
            raise ValueError("closes must be 1-d and parallel to dates")
        if len(closes) and not np.all(closes > 0.0):
            raise ValueError(f"{self.instrument_id}: closes must be strictly positive")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError(f"{self.instrument_id}: dates must be strictly increasing")
        object.__setattr__(self, "closes", closes)

    def __len__(self) -> int:
        return len(self.dates)

    def index_of(self, day: datetime.date) -> int:
        """Position of ``day`` in this series; raises KeyError if absent."""
        try:
            return self._date_index[day]
        except AttributeError:
            index = {d: i for i, d in enumerate(self.dates)}
            object.__setattr__(self, "_date_index", index)
            return index[day]


@dataclass(frozen=True)
class Chart:
    """One preprocessed chart window.

    ``values`` has shape (steps, 2) with 32 steps under the standard
    configuration: column 0 is the day-over-day log change of the
    smoothed price, column 1 the (scaled) log change relative to the
    window's last day.  ``returns`` maps a horizon k to the forward log
    return measured from the entry day (the first trading day after the
    window); horizons that run past the end of the series are simply
    absent.  ``limit_hit`` marks charts whose entry day opened on a
    price jump large enough that the pattern could not have been traded.
    """

    values: np.ndarray
    entry_date: datetime.date
    returns: Mapping[int, float]
    limit_hit: bool
    source_id: str

    def __post_init__(self) -> None:
        values = _frozen_array(self.values)
        if values.ndim != 2 or values.shape[1] != CHART_CHANNELS or values.shape[0] < 1:
            raise ValueError(f"chart values must have shape (steps, {CHART_CHANNELS}), "
                             f"got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("chart values must be finite")
        object.__setattr__(self, "values", values)
        returns = dict(self.returns)
        for k, r in returns.items():
            if int(k) <= 0:
                raise ValueError(f"horizon must be positive, got {k}")
            if not math.isfinite(r):
                raise ValueError(f"return at horizon {k} must be finite")
        object.__setattr__(self, "returns", returns)

    @property
    def chart_id(self) -> str:
        return f"{self.source_id}:{self.entry_date.isoformat()}"


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of charts for one split."""

    charts: tuple[Chart, ...]
    split: str

    def __post_init__(self) -> None:
        if self.split not in SPLIT_NAMES:
            raise ValueError(f"split must be one of {SPLIT_NAMES}, got {self.split!r}")
        charts = tuple(self.charts)
        if len({c.values.shape for c in charts}) > 1:
            raise ValueError("all charts in a dataset must share one shape")
        object.__setattr__(self, "charts", charts)

    def __len__(self) -> int:
        return len(self.charts)

    def __iter__(self) -> Iterator[Chart]:
        return iter(self.charts)


@dataclass(frozen=True)
class FitnessReport:
    """Outcome of evaluating one discriminant on one dataset."""

    k: int
    match_count: int
    mean_log_return: float
    penalty: float
    fitness: float

    def __post_init__(self) -> None:
        if self.match_count < 0:
            raise ValueError("match_count must be non-negative")
        if not 0.0 < self.penalty <= 1.0:
            raise ValueError(f"penalty must lie in (0, 1], got {self.penalty}")
        if self.match_count == 0:
            expected = 0.0
        else:
            expected = self.mean_log_return * self.penalty
        if not math.isclose(self.fitness, expected, rel_tol=1e-12, abs_tol=1e-15):
            raise ValueError("fitness must equal mean_log_return * penalty (or 0 with no matches)")

    @classmethod
    def from_stats(cls, k: int, match_count: int, mean_log_return: float, penalty: float) -> FitnessReport:
        fitness = mean_log_return * penalty if match_count else 0.0
        return cls(k, match_count, mean_log_return, penalty, fitness)

    def to_text(self) -> str:
        lines = [
            "chartevo-fitness 1",
            f"k {self.k}",
            f"match_count {self.match_count}",
            f"mean_log_return {self.mean_log_return!r}",
            f"penalty {self.penalty!r}",
            f"fitness {self.fitness!r}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> FitnessReport:
        fields: dict[str, str] = {}
        lines = text.strip().splitlines()
        if not lines or lines[0].split() != ["chartevo-fitness", "1"]:
            raise ValueError("not a chartevo-fitness document")
        for line in lines[1:]:
            key, value = line.split(maxsplit=1)
            fields[key] = value
        return cls(
            k=int(fields["k"]),
            match_count=int(fields["match_count"]),
            mean_log_return=float(fields["mean_log_return"]),
            penalty=float(fields["penalty"]),
            fitness=float(fields["fitness"]),
        )


def save_dataset(path, dataset: Dataset) -> None:
    """Write a Dataset to ``path`` as a compressed npz archive.

    The archive round-trips bit-identically: float64 payloads are stored
    raw, dates as proleptic ordinals, and missing horizons as NaN slots
    in a dense (n_charts, n_horizons) matrix.
    """
    horizons = sorted({k for chart in dataset.charts for k in chart.returns})
    n = len(dataset.charts)
    steps = dataset.charts[0].values.shape[0] if n else CHART_STEPS
    values = np.empty((n, steps, CHART_CHANNELS), dtype=np.float64)
    returns = np.full((n, len(horizons)), np.nan, dtype=np.float64)
    entry_ordinals = np.empty(n, dtype=np.int64)
    limit_hit = np.empty(n, dtype=np.bool_)
    source_ids = []
    for i, chart in enumerate(dataset.charts):
        values[i] = chart.values
        entry_ordinals[i] = chart.entry_date.toordinal()
        limit_hit[i] = chart.limit_hit
        source_ids.append(chart.source_id)
        for j, k in enumerate(horizons):
            if k in chart.returns:
                returns[i, j] = chart.returns[k]
    header = json.dumps(
        {
            "format": CORPUS_MAGIC,
            "version": CORPUS_VERSION,
            "split": dataset.split,
            "count": n,
            "horizons": [int(k) for k in horizons],
        },
        sort_keys=True,
    )
    np.savez_compressed(
        path,
        header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
        values=values,
        returns=returns,
        entry_ordinals=entry_ordinals,
        limit_hit=limit_hit,
        source_ids=np.array(source_ids, dtype=np.str_),
    )


def load_dataset(path) -> Dataset:
    """Read a Dataset written by :func:`save_dataset`."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            try:
                header_bytes = bytes(archive["header"].tobytes())
                header = json.loads(header_bytes.decode("utf-8"))
            except (KeyError, ValueError, UnicodeDecodeError) as exc:
                raise CorpusFormatError(f"{path}: corrupt corpus header ({exc})") from exc
            if header.get("format") != CORPUS_MAGIC:
                raise CorpusFormatError(f"{path}: not a {CORPUS_MAGIC} archive")
            if header.get("version") != CORPUS_VERSION:
                raise CorpusFormatError(
                    f"{path}: unsupported corpus version {header.get('version')!r}"
                )
            values = archive["values"]
            returns = archive["returns"]
            entry_ordinals = archive["entry_ordinals"]
            limit_hit = archive["limit_hit"]
            source_ids = archive["source_ids"]
    except OSError as exc:
        raise CorpusFormatError(f"{path}: cannot read corpus ({exc})") from exc
    except (zipfile.BadZipFile, EOFError) as exc:
        raise CorpusFormatError(f"{path}: not an npz archive ({exc})") from exc
    except ValueError as exc:
        if isinstance(exc, CorpusFormatError):
            raise
        raise CorpusFormatError(f"{path}: not a corpus archive ({exc})") from exc
    horizons = [int(k) for k in header["horizons"]]
    n = header["count"]
    if values.ndim != 3 or values.shape[0] != n or values.shape[2] != CHART_CHANNELS:
        raise CorpusFormatError(f"{path}: values payload has shape {values.shape}")
    charts = []
    for i in range(n):
        chart_returns = {
            k: float(returns[i, j]) for j, k in enumerate(horizons) if not np.isnan(returns[i, j])
        }
        charts.append(
            Chart(
                values=values[i],
                entry_date=datetime.date.fromordinal(int(entry_ordinals[i])),
                returns=chart_returns,
                limit_hit=bool(limit_hit[i]),
                source_id=str(source_ids[i]),
            )
        )
    return Dataset(charts=tuple(charts), split=header["split"])


def write_price_csv(path, series: PriceSeries) -> None:
    """Write one instrument as ``date,close`` rows (repr floats, lossless)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,close\n")
        for day, close in zip(series.dates, series.closes):
            fh.write(f"{day.isoformat()},{float(close)!r}\n")


def read_price_csv(path, instrument_id: str) -> PriceSeries:
    dates: list[datetime.date] = []
    closes: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or (lineno == 1 and line.lower().startswith("date")):
                continue
            try:
                date_part, close_part = line.split(",")
                dates.append(datetime.date.fromisoformat(date_part.strip()))
                closes.append(float(close_part))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad price row {line!r}") from exc
    return PriceSeries(instrument_id, tuple(dates), np.array(closes, dtype=np.float64))
