"""Turn raw daily price series into fixed-size chart windows.

The pipeline per instrument:

1. smooth the closes with a trailing moving average,
2. slide a fixed window over the smoothed series (stride one day),
3. per window, build a two-channel image: day-over-day log changes and
   log changes relative to the window's last day, block-averaged down to
   32 steps, with the second channel rescaled after downsampling,
4. label each chart with forward log returns of the *raw* closes,
   measured from the entry day (the first trading day after the window),
5. flag charts whose entry day cannot be traded because the raw price
   jumped past the daily limit.

Each step runs on all of an instrument's windows at once.  Channel 0 is
built once per instrument: its day-over-day logs and block means depend
only on the day, so every window reads its steps from the one series.
Windows are dropped when they lack a preceding smoothed value (the very
first window) or when no entry day exists (the very last window).  A
missing forward return at some horizon is NaN rather than dropping the
chart.
"""
from __future__ import annotations

import bisect
import datetime
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import CHART_CHANNELS, ConfigError, Dataset, PriceSeries, SPLIT_NAMES, atomic_open

log = logging.getLogger(__name__)

PRICES_MAGIC = "chartevo-prices"
PRICES_VERSION = 1


@dataclass(frozen=True)
class SplitRange:
    """Inclusive date range assigning charts (by entry date) to a split."""

    start: datetime.date
    end: datetime.date

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigError(f"split range ends before it starts: {self}")


@dataclass(frozen=True)
class PreprocessConfig:
    smoothing_window: int = 24
    slice_window: int = 128
    downsample_factor: int = 4
    channel2_scale: float = 1.0 / 32.0
    horizons: tuple[int, ...] = (20, 50, 100)
    limit_threshold: float = 0.295
    split_ranges: Mapping[str, SplitRange] = field(default_factory=lambda: default_split_ranges())

    def __post_init__(self) -> None:
        if self.smoothing_window < 1:
            raise ConfigError("smoothing_window must be >= 1")
        if self.slice_window < 1:
            raise ConfigError("slice_window must be >= 1")
        if self.downsample_factor < 1 or self.slice_window % self.downsample_factor:
            raise ConfigError("slice_window must be a positive multiple of downsample_factor")
        if not self.horizons or any(k <= 0 for k in self.horizons):
            raise ConfigError("horizons must be positive")
        if len(set(self.horizons)) != len(self.horizons):
            raise ConfigError("horizons must be distinct")
        if self.limit_threshold <= 0:
            raise ConfigError("limit_threshold must be positive")
        object.__setattr__(self, "horizons", tuple(int(k) for k in self.horizons))
        ranges = dict(self.split_ranges)
        if not ranges:
            raise ConfigError("no split ranges configured")
        for name in ranges:
            if name not in SPLIT_NAMES:
                raise ConfigError(f"unknown split {name!r}")
        spans = sorted(ranges.values(), key=lambda r: r.start)
        for a, b in zip(spans, spans[1:]):
            if b.start <= a.end:
                raise ConfigError(f"split ranges overlap: {a} and {b}")
        object.__setattr__(self, "split_ranges", ranges)

    @property
    def chart_steps(self) -> int:
        return self.slice_window // self.downsample_factor


def default_split_ranges() -> dict[str, SplitRange]:
    """Three-year training block, then one held-out year each."""
    return {
        "training": SplitRange(datetime.date(2012, 1, 1), datetime.date(2014, 12, 31)),
        "validation": SplitRange(datetime.date(2015, 1, 1), datetime.date(2015, 12, 31)),
        "test": SplitRange(datetime.date(2016, 1, 1), datetime.date(2016, 12, 31)),
    }


def smooth(series: PriceSeries, window: int) -> PriceSeries:
    """Trailing moving average; day t averages the ``window`` closes ending at t.

    The first ``window - 1`` days have no full history and are consumed:
    the result is shorter by that amount and keeps the dates of the days
    that do have full history.  A series shorter than the window yields
    an empty series (with a log warning) rather than an error.
    """
    if window < 1:
        raise ConfigError("smoothing window must be >= 1")
    if len(series) < window:
        log.warning(
            "%s: series of length %d shorter than smoothing window %d, no output",
            series.instrument_id, len(series), window,
        )
        return PriceSeries(series.instrument_id, (), np.empty(0))
    if window == 1:
        return series
    return PriceSeries(series.instrument_id, series.dates[window - 1:],
                       moving_average(series.closes, window))


def moving_average(closes: np.ndarray, window: int) -> np.ndarray:
    """The values of :func:`smooth` for ``closes``, at least ``window`` of them."""
    return closes if window == 1 else sliding_window_view(closes, window).mean(axis=-1)


def chart_values(smoothed: np.ndarray, m: int, config: PreprocessConfig) -> np.ndarray:
    """Build the (m, steps, 2) channel images of m windows of one smoothed series.

    Window j covers ``smoothed[j + 1 : j + 1 + slice_window]`` and its
    preceding value is ``smoothed[j]``, so ``smoothed`` holds at least
    m + slice_window values when m > 0.  Channel 0 holds day-over-day log changes
    (the day before the window supplies the first delta); channel 1 holds
    log changes relative to the window's final value.  Both are
    block-averaged by the downsample factor, then channel 1 is rescaled.

    Every window is a stride-1 slice of the one series, so channel 0's
    logs and block means are computed once per day and each window reads
    its steps as a strided view of them.  Channel 1 depends on the
    window's last value and is computed per window.  Each block mean adds
    in numpy's own order, so every value equals that of a per-window
    ``reshape(...).mean()``.
    """
    smoothed = np.asarray(smoothed, dtype=np.float64)
    s, f, steps = config.slice_window, config.downsample_factor, config.chart_steps
    if smoothed.ndim != 1 or m < 0 or (m and len(smoothed) < m + s):
        raise ValueError(f"{m} windows of {s} days need a 1-d series of at least {m + s} "
                         f"smoothed values, got shape {smoothed.shape}")
    out = np.empty((m, steps, CHART_CHANNELS))
    if m == 0:
        return out
    smoothed = smoothed[:m + s]
    if not np.all(smoothed > 0):
        raise ValueError("smoothed prices must be strictly positive")
    # ratios first, logs second: rescaling the whole series then cancels
    # exactly in the division, so charts are invariant to price units
    daily = np.log(smoothed[1:] / smoothed[:-1])
    # block means of daily[t : t + f] for every start day t, one phase of
    # start days at a time so that each phase's blocks are contiguous rows
    block_means = np.empty(m + s - f)
    for phase in range(f):
        rows = len(block_means[phase::f])
        block_means[phase::f] = daily[phase:phase + rows * f].reshape(rows, f).mean(axis=1)
    out[:, :, 0] = sliding_window_view(block_means, s - f + 1)[:, ::f]
    windows = sliding_window_view(smoothed[1:], s)
    to_last = windows / windows[:, -1:]
    np.log(to_last, out=to_last)
    channel1 = out[:, :, 1]
    if f < 8:
        # numpy reduces blocks this short by in-order adds; strided adds skip its per-row set-up
        np.copyto(channel1, to_last[:, 0::f])
        for i in range(1, f):
            channel1 += to_last[:, i::f]
        channel1 /= f
    else:
        # longer blocks are summed pairwise, in an order the adds above would not match
        channel1[...] = to_last.reshape(m, steps, f).mean(axis=2)
    channel1 *= config.channel2_scale
    return out


def forward_returns(series: PriceSeries, entry_indices: np.ndarray, horizons: Sequence[int]) -> np.ndarray:
    """k-day forward log returns of raw closes, shape (m, len(horizons)).

    Row i is measured from raw index ``entry_indices[i]``; horizons that
    run past the end of the series are NaN.
    """
    closes = series.closes
    entry = np.asarray(entry_indices, dtype=np.int64)
    ahead = entry[:, None] + np.asarray(horizons, dtype=np.int64)
    last = len(closes) - 1
    logs = np.log(closes[np.minimum(ahead, last)] / closes[entry, None])
    return np.where(ahead <= last, logs, np.nan)


def limit_hit(series: PriceSeries, entry_indices: np.ndarray, threshold: float) -> np.ndarray:
    """Per entry index: does the raw change into the entry day reach the daily limit?"""
    entry = np.asarray(entry_indices, dtype=np.int64)
    if np.any(entry < 1):
        raise ValueError("entry day needs a preceding raw close")
    closes = series.closes
    return closes[entry] / closes[entry - 1] - 1.0 >= threshold


def charts_from_series(series: PriceSeries, config: PreprocessConfig,
                       rows: slice | None = None) -> Dataset:
    """One instrument's tradeable charts, in entry-date order: those of the
    chart indices in ``rows`` (a step-1 slice), or all of them.

    Chart r enters on raw day r + s + w and is built from raw days
    r .. r + s + w - 1 (its window start in the smoothed series is r + 1;
    start 0 lacks a preceding smoothed value and the last start lacks an
    entry day).  So only the closes of the requested charts are smoothed
    and charted, and returns and limit flags read the raw closes from each
    entry day on.  The result is an unsplit block (``split`` is None).
    """
    w, s = config.smoothing_window, config.slice_window
    first = s + w
    lo, hi, _ = (slice(None) if rows is None else rows).indices(max(len(series) - first, 0))
    m = max(hi - lo, 0)
    smoothed = moving_average(series.closes[lo:lo + m + first], w) if m else np.empty(0)
    entries = np.arange(lo + first, lo + first + m)
    # numpy's datetime64 conversion of date objects is slower than one pass
    ordinals = np.fromiter((day.toordinal() for day in series.dates[lo + first:lo + first + m]),
                           np.int64, count=m)
    horizons = tuple(sorted(config.horizons))
    return Dataset(
        split=None,
        horizons=horizons,
        values=chart_values(smoothed, m, config),
        entry_ordinals=ordinals,
        returns=forward_returns(series, entries, horizons),
        limit_hit=limit_hit(series, entries, config.limit_threshold),
        source_ids=np.full(m, series.instrument_id),
    )


def build_corpus(series_set: Sequence[PriceSeries], config: PreprocessConfig) -> dict[str, Dataset]:
    """Preprocess every series and bucket charts into splits by entry date.

    Charts whose entry date falls outside every configured range are not
    built.  Instruments are processed in id order so the result is
    independent of input ordering.  Each split's columns are allocated
    once, sized from the entry dates alone, and filled with one
    instrument's charts of that split at a time, so only those exist
    beside the splits; a caller that holds one split at a time passes a
    config with that one split range.
    """
    ids = [s.instrument_id for s in series_set]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate instrument ids in input")
    ordered = sorted(series_set, key=lambda s: s.instrument_id)
    horizons = tuple(sorted(config.horizons))
    first = config.slice_window + config.smoothing_window
    # chart r enters on day first + r and dates ascend, so each split is one
    # range of an instrument's charts, found by bisection on its entry days
    rows = [[slice(bisect.bisect_left(s.dates, span.start, first) - first,
                   bisect.bisect_right(s.dates, span.end, first) - first)
             for span in config.split_ranges.values()] for s in ordered]
    splits = {}
    for j, name in enumerate(config.split_ranges):
        counts = [r[j].stop - r[j].start for r in rows]
        n = sum(counts)
        # the widest id with rows in this split: the dtype np.concatenate would give
        width = max((len(s.instrument_id) for s, k in zip(ordered, counts) if k), default=0)
        splits[name] = {
            "values": np.empty((n, config.chart_steps, CHART_CHANNELS)),
            "returns": np.empty((n, len(horizons))),
            "entry_ordinals": np.empty(n, np.int64),
            "limit_hit": np.empty(n, np.bool_),
            "source_ids": np.empty(n, f"<U{width}"),
        }
    filled = dict.fromkeys(splits, 0)
    for series, split_rows in zip(ordered, rows):
        for name, part in zip(splits, split_rows):
            if part.stop == part.start:
                continue
            block = charts_from_series(series, config, part)
            start = filled[name]
            for column, out in splits[name].items():
                out[start:start + len(block)] = getattr(block, column)
            filled[name] = start + len(block)
            del block  # freed before the next block is built
    corpus = {name: Dataset(name, horizons, **columns) if filled[name]
              else Dataset.empty(name, horizons, config.chart_steps)
              for name, columns in splits.items()}
    log.info("corpus: %d charts from %d instruments", sum(filled.values()), len(series_set))
    for name, dataset in corpus.items():
        log.info("corpus: split %s has %d charts", name, len(dataset))
    return corpus


INSTRUMENT_INDEX = "instruments.json"


def write_price_directory(directory, series_set: Sequence[PriceSeries]) -> None:
    """Write one CSV per instrument plus an index naming them."""
    from .types import write_price_csv

    os.makedirs(directory, exist_ok=True)
    entries = []
    for series in sorted(series_set, key=lambda s: s.instrument_id):
        filename = f"{series.instrument_id}.csv"
        write_price_csv(os.path.join(directory, filename), series)
        entries.append({"id": series.instrument_id, "file": filename})
    index = {"format": PRICES_MAGIC, "version": PRICES_VERSION, "instruments": entries}
    with atomic_open(os.path.join(directory, INSTRUMENT_INDEX), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_price_directory(directory) -> list[PriceSeries]:
    from .types import read_price_csv, read_text

    index_path = os.path.join(directory, INSTRUMENT_INDEX)
    try:
        index = json.loads(read_text(index_path))
    except OSError as exc:
        raise ConfigError(f"{directory}: missing instrument index ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{index_path}: corrupt instrument index ({exc})") from exc
    if not isinstance(index, dict) or index.get("format") != PRICES_MAGIC:
        raise ConfigError(f"{index_path}: not a {PRICES_MAGIC} index")
    entries = index.get("instruments", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{index_path}: 'instruments' must be a list")
    series_set = []
    for n, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                and isinstance(entry.get("file"), str)):
            raise ConfigError(f"{index_path}: instrument {n} needs a string 'id' and 'file'")
        path = os.path.join(directory, entry["file"])
        series_set.append(read_price_csv(path, entry["id"]))
    return series_set
