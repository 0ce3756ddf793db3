"""Core domain types shared across the pipeline.

Everything here is an immutable value object: construct, validate once,
then pass around freely.  Numpy arrays
held by these types are read-only; ``PriceSeries`` copies its closes,
``Dataset`` takes ownership of its columns.
"""
from __future__ import annotations

import contextlib
import datetime
import json
import math
import os
import zipfile
from dataclasses import dataclass

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


# the per-chart columns of a Dataset, in field order, with their dtypes;
# each is one member of the corpus .npz archive
COLUMNS = {
    "values": np.float64,
    "returns": np.float64,
    "entry_ordinals": np.int64,
    "limit_hit": np.bool_,
    "source_ids": np.str_,
}


@dataclass(frozen=True)
class Dataset:
    """One split's charts as parallel columns, one row per chart, in order.

    ``values`` has shape (n, steps, 2), 32 steps under the standard
    configuration: column 0 is the day-over-day log change of the
    smoothed price, column 1 the (scaled) log change relative to the
    window's last day.  ``entry_ordinals`` holds the entry day (the first
    trading day after the window) as a proleptic Gregorian ordinal.
    ``returns[i, j]`` is the forward log return at ``horizons[j]``
    measured from the entry day, NaN where the horizon runs past the end
    of the series.  ``limit_hit`` marks charts whose entry day opened on a
    price jump large enough that the pattern could not have been traded.

    ``split`` is None for rows not bucketed into a split yet (one
    instrument's charts).  The dataset takes ownership of the arrays it is
    given: they are not copied, only marked read-only.
    """

    split: str | None
    horizons: tuple[int, ...]
    values: np.ndarray
    returns: np.ndarray
    entry_ordinals: np.ndarray
    limit_hit: np.ndarray
    source_ids: np.ndarray

    def __post_init__(self) -> None:
        if self.split is not None and self.split not in SPLIT_NAMES:
            raise ValueError(f"split must be one of {SPLIT_NAMES}, got {self.split!r}")
        horizons = tuple(int(k) for k in self.horizons)
        if any(k <= 0 for k in horizons):
            raise ValueError(f"horizons must be positive, got {horizons}")
        if len(set(horizons)) != len(horizons):
            raise ValueError(f"horizons must be distinct, got {horizons}")
        object.__setattr__(self, "horizons", horizons)
        for name, dtype in COLUMNS.items():
            column = np.asarray(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        values = self.values
        if values.ndim != 3 or values.shape[1] < 1 or values.shape[2] != CHART_CHANNELS:
            raise ValueError(f"chart values must have shape (n, steps, {CHART_CHANNELS}), "
                             f"got {values.shape}")
        n = len(values)
        for name, shape in (("returns", (n, len(horizons))), ("entry_ordinals", (n,)),
                            ("limit_hit", (n,)), ("source_ids", (n,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, "
                                 f"expected {shape} for {n} charts")
        if not np.isfinite(values).all():
            raise ValueError("chart values must be finite")
        if np.isinf(self.returns).any():
            raise ValueError("returns must be finite or NaN")
        ordinals = self.entry_ordinals
        if n and (ordinals.min() < 1 or ordinals.max() > datetime.date.max.toordinal()):
            raise ValueError("entry ordinals must be valid dates")

    @classmethod
    def empty(cls, split: str | None, horizons, steps: int = CHART_STEPS) -> Dataset:
        """A dataset with no rows."""
        return cls(split, tuple(horizons), np.empty((0, steps, CHART_CHANNELS)),
                   np.empty((0, len(horizons))), np.empty(0, np.int64),
                   np.empty(0, np.bool_), np.empty(0, np.str_))

    def __len__(self) -> int:
        return len(self.values)

    def chart_id(self, row: int) -> str:
        day = datetime.date.fromordinal(int(self.entry_ordinals[row]))
        return f"{self.source_ids[row]}:{day.isoformat()}"


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


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open ``<path>.<pid>.tmp`` for writing and move it over ``path`` on success.

    If the block raises, the temporary file is removed and any previous
    file at ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_npy(archive: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    """Add ``array`` to ``archive`` as the member ``<name>.npy``, the bytes ``np.savez`` writes.

    The data go out as one view of the array's own buffer (bytes for a
    ``<U`` column, whose buffer format memoryview cannot read), not as
    the 16 MiB copies that ``np.lib.format.write_array`` makes on the way.
    """
    array = np.ascontiguousarray(array)
    with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(array))
        member.write(memoryview(array.reshape(-1).view(np.uint8)))


def save_dataset(path, dataset: Dataset) -> None:
    """Write a Dataset to ``path`` as an uncompressed npz archive, atomically.

    Each column is one ``.npy`` member of the archive, so the round trip
    is bit-identical; a JSON ``header`` member holds the split, the row
    count and the horizons.  Members are stored, not deflated: zlib would
    cost more time than the corpus takes to build, and zipfile's CRC
    check still catches a damaged member on load.  Each member is written
    straight from its column (:func:`_write_npy`), so saving holds no copy
    of the split.  The write goes through :func:`atomic_open`, so a failed
    one leaves any previous file in place.
    """
    header = json.dumps(
        {
            "format": CORPUS_MAGIC,
            "version": CORPUS_VERSION,
            "split": dataset.split,
            "count": len(dataset),
            "horizons": list(dataset.horizons),
        },
        sort_keys=True,
    )
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
        _write_npy(archive, "header", np.frombuffer(header.encode("utf-8"), dtype=np.uint8))
        for name in COLUMNS:
            _write_npy(archive, name, getattr(dataset, name))


def load_dataset(path) -> Dataset:
    """Read a Dataset written by :func:`save_dataset`, stored or deflated
    (as earlier versions wrote it)."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            try:
                header_bytes = bytes(archive["header"].tobytes())
                header = json.loads(header_bytes.decode("utf-8"))
            except (KeyError, ValueError, UnicodeDecodeError) as exc:
                raise CorpusFormatError(f"{path}: corrupt corpus header ({exc})") from exc
            if not isinstance(header, dict) or header.get("format") != CORPUS_MAGIC:
                raise CorpusFormatError(f"{path}: not a {CORPUS_MAGIC} archive")
            if header.get("version") != CORPUS_VERSION:
                raise CorpusFormatError(
                    f"{path}: unsupported corpus version {header.get('version')!r}"
                )
            missing = [name for name in COLUMNS if name not in archive.files]
            if missing:
                raise CorpusFormatError(f"{path}: missing members {', '.join(missing)}")
            columns = {name: archive[name] for name in COLUMNS}
    except OSError as exc:
        raise CorpusFormatError(f"{path}: cannot read corpus ({exc})") from exc
    except (zipfile.BadZipFile, EOFError) as exc:
        raise CorpusFormatError(f"{path}: damaged or not an npz archive ({exc})") from exc
    except ValueError as exc:
        if isinstance(exc, CorpusFormatError):
            raise
        raise CorpusFormatError(f"{path}: not a corpus archive ({exc})") from exc
    split, n, horizons = header.get("split"), header.get("count"), header.get("horizons")
    if (split not in SPLIT_NAMES or type(n) is not int or n < 0
            or not isinstance(horizons, list) or not all(type(k) is int for k in horizons)):
        raise CorpusFormatError(
            f"{path}: header needs a split name, an integer count and integer horizons")
    for name, dtype in COLUMNS.items():
        if not np.issubdtype(columns[name].dtype, dtype):
            raise CorpusFormatError(f"{path}: member {name} has dtype {columns[name].dtype}, "
                                    f"expected {np.dtype(dtype).name}")
    if columns["values"].shape[:1] != (n,):
        raise CorpusFormatError(f"{path}: values has shape {columns['values'].shape}, "
                                f"header count is {n}")
    try:
        return Dataset(split, tuple(horizons), **columns)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def write_price_csv(path, series: PriceSeries) -> None:
    """Write one instrument as ``date,close`` rows (repr floats, lossless), atomically."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
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
                if not math.isfinite(closes[-1]):
                    raise ValueError("close is not finite")
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad price row {line!r}") from exc
    try:
        return PriceSeries(instrument_id, tuple(dates), np.array(closes, dtype=np.float64))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
