from __future__ import annotations

import datetime
import re
import zipfile

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, strategies as st

from chartevo import types
from chartevo.types import (
    COLUMNS,
    ConfigError,
    CorpusFormatError,
    Dataset,
    FitnessReport,
    PriceSeries,
    load_dataset,
    read_price_csv,
    save_dataset,
    write_price_csv,
)


def days(n, start=datetime.date(2012, 1, 2)):
    return tuple(start + datetime.timedelta(days=i) for i in range(n))


def make_dataset(seeds=(0,), entry=datetime.date(2013, 5, 6), limit=False, returns=None,
                 split="training"):
    """One row per seed: random values, ``returns`` a per-row {horizon: value} dict."""
    rows = [{20: 0.05, 50: -0.01} if returns is None else returns(i) for i in range(len(seeds))]
    horizons = sorted({k for row in rows for k in row})
    return Dataset(
        split=split,
        horizons=tuple(horizons),
        values=np.array([np.random.default_rng(seed).normal(0, 0.01, (32, 2)) for seed in seeds]),
        returns=np.array([[row.get(k, np.nan) for k in horizons] for row in rows]).reshape(
            len(rows), len(horizons)),
        entry_ordinals=np.full(len(seeds), entry.toordinal()),
        limit_hit=np.full(len(seeds), limit),
        source_ids=np.array([f"T{seed}" for seed in seeds]),
    )


def one_row(values):
    """A one-chart training Dataset holding ``values``, with no returns."""
    return Dataset("training", (), np.asarray(values)[None], np.empty((1, 0)),
                   [datetime.date(2013, 1, 2).toordinal()], [False], ["X"])


class TestPriceSeries:
    def test_valid_series(self):
        s = PriceSeries("A", days(3), np.array([1.0, 2.0, 3.0]))
        assert len(s) == 3
        assert s.dates.index(days(3)[1]) == 1

    def test_rejects_nonpositive_close(self):
        with pytest.raises(ValueError, match="positive"):
            PriceSeries("A", days(2), np.array([1.0, 0.0]))

    def test_rejects_unsorted_dates(self):
        d = days(3)
        with pytest.raises(ValueError, match="increasing"):
            PriceSeries("A", (d[0], d[2], d[1]), np.array([1.0, 1.0, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PriceSeries("A", days(2), np.array([1.0, 2.0, 3.0]))

    def test_closes_are_read_only(self):
        s = PriceSeries("A", days(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.closes[0] = 5.0


class TestChart:
    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            one_row(np.zeros((16, 3)))
        with pytest.raises(ValueError):
            one_row(np.zeros(32))

    def test_rejects_nonfinite_values(self):
        values = np.zeros((32, 2))
        values[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            one_row(values)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            make_dataset(returns=lambda i: {0: 0.1})

    def test_chart_id(self):
        c = make_dataset(seeds=(3,), entry=datetime.date(2013, 5, 6))
        assert c.chart_id(0) == "T3:2013-05-06"


class TestDataset:
    def test_columns_are_read_only_and_not_copied(self):
        values = np.zeros((2, 32, 2))
        ds = Dataset("test", (20,), values, np.zeros((2, 1)), [1, 2], [False, True], ["A", "B"])
        assert ds.values is values
        with pytest.raises(ValueError):
            values[0, 0, 0] = 1.0

    def test_rejects_infinite_return(self):
        with pytest.raises(ValueError, match="finite or NaN"):
            make_dataset(returns=lambda i: {20: np.inf})

    def test_rejects_duplicate_horizons(self):
        with pytest.raises(ValueError, match="distinct"):
            Dataset("test", (20, 20), np.zeros((1, 32, 2)), np.zeros((1, 2)), [1], [False], ["A"])

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="limit_hit"):
            Dataset("test", (20,), np.zeros((2, 32, 2)), np.zeros((2, 1)), [1, 2], [False], ["A", "B"])

    def test_rejects_unknown_split(self):
        with pytest.raises(ValueError, match="split"):
            make_dataset(split="holdout")

    def test_empty(self):
        ds = Dataset.empty("validation", (20, 50))
        assert len(ds) == 0
        assert ds.values.shape == (0, 32, 2)
        assert ds.returns.shape == (0, 2)


class TestFitnessReport:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError, match="fitness"):
            FitnessReport(k=20, match_count=5, mean_log_return=0.1, penalty=0.5, fitness=0.9)

    def test_zero_matches_means_zero_fitness(self):
        r = FitnessReport.from_stats(20, 0, 0.0, 1.0)
        assert r.fitness == 0.0

    def test_from_stats(self):
        r = FitnessReport.from_stats(50, 4, 0.2, 0.5)
        assert r.fitness == pytest.approx(0.1)

    def test_text_round_trip(self):
        r = FitnessReport.from_stats(50, 7, 0.123456789012345, 0.987654321)
        lines = r.to_text().splitlines()
        assert lines[0] == "chartevo-fitness 1"
        fields = dict(line.split() for line in lines[1:])
        again = FitnessReport(int(fields["k"]), int(fields["match_count"]),
                              float(fields["mean_log_return"]), float(fields["penalty"]),
                              float(fields["fitness"]))
        assert again == r


class TestCorpusPersistence:
    def test_round_trip_bit_identical(self, tmp_path):
        ds = make_dataset(seeds=range(7),
                          returns=lambda i: {20: 0.1 * i} if i % 2 else {20: 0.05, 50: -0.01})
        path = tmp_path / "training.npz"
        save_dataset(path, ds)
        again = load_dataset(path)
        assert again.split == ds.split
        assert len(again) == len(ds)
        assert again.horizons == ds.horizons
        assert np.array_equal(again.values, ds.values)  # bit-exact payload
        assert np.array_equal(again.entry_ordinals, ds.entry_ordinals)
        assert np.array_equal(again.returns, ds.returns, equal_nan=True)
        assert np.array_equal(again.limit_hit, ds.limit_hit)
        assert np.array_equal(again.source_ids, ds.source_ids)

    def test_empty_dataset_round_trip(self, tmp_path):
        path = tmp_path / "validation.npz"
        save_dataset(path, Dataset.empty("validation", ()))
        assert len(load_dataset(path)) == 0

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "training.npz"
        save_dataset(path, make_dataset(seeds=range(3)))
        before = path.read_bytes()

        def fail_partway(archive, name, array):
            archive.writestr(f"{name}.npy", b"partial member")
            raise OSError("disk full")

        monkeypatch.setattr(types, "_write_npy", fail_partway)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(path, make_dataset(seeds=range(5)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["training.npz"]

    def test_members_are_stored(self, tmp_path):
        path = tmp_path / "training.npz"
        save_dataset(path, make_dataset(seeds=range(3)))
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
            assert sorted(archive.namelist()) == sorted(f"{m}.npy" for m in ("header", *COLUMNS))

    def test_deflated_corpus_loads_bit_identically(self, tmp_path):
        # the layout earlier versions wrote, each member deflated
        ds = make_dataset(seeds=range(6), limit=True,
                          returns=lambda i: {20: 0.1 * i} if i % 2 else {20: 0.05, 50: -0.01})
        stored, deflated = tmp_path / "stored.npz", tmp_path / "deflated.npz"
        save_dataset(stored, ds)
        with np.load(stored) as archive:
            np.savez_compressed(deflated, **{name: archive[name] for name in archive.files})
        with zipfile.ZipFile(deflated) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}
        again = load_dataset(deflated)
        assert (again.split, again.horizons) == (ds.split, ds.horizons)
        for name in COLUMNS:
            a, b = getattr(again, name), getattr(ds, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("ds", [
        make_dataset(seeds=range(7), limit=True,
                     returns=lambda i: {20: 0.1 * i} if i % 2 else {20: 0.05, 50: -0.01}),
        make_dataset(seeds=[3, 1000, 5]),
        Dataset.empty("validation", (20, 50)),
    ], ids=["nan-returns-limit-hits", "ids-of-two-widths", "empty"])
    def test_members_equal_np_savez(self, tmp_path, ds):
        # every dtype a corpus holds: float64, int64, bool, <U and the uint8 header
        path, reference = tmp_path / "written.npz", tmp_path / "savez.npz"
        save_dataset(path, ds)
        with np.load(path) as archive:
            header = archive["header"]
        np.savez(reference, header=header, **{name: getattr(ds, name) for name in COLUMNS})
        with zipfile.ZipFile(path) as got, zipfile.ZipFile(reference) as expected:
            assert got.namelist() == expected.namelist()
            for member in expected.namelist():
                assert got.read(member) == expected.read(member), member

    def test_saving_holds_no_copy_of_a_column(self, tmp_path):
        # np.savez passes each member through a 16 MiB tobytes() copy
        n = 60_000
        rng = np.random.default_rng(0)
        ds = Dataset("training", (20,), rng.normal(0, 0.01, (n, 32, 2)), rng.normal(size=(n, 1)),
                     np.full(n, 735000), rng.random(n) < 0.1,
                     np.array([f"I{i % 997:04d}" for i in range(n)]))
        assert ds.values.nbytes > 16 * 2**20 and ds.source_ids.nbytes > 2**20
        _, peak = traced_peak(lambda: save_dataset(tmp_path / "training.npz", ds))
        assert peak < 2**20
        again = load_dataset(tmp_path / "training.npz")
        for name in COLUMNS:
            assert getattr(again, name).tobytes() == getattr(ds, name).tobytes()

    def test_writes_exactly_the_given_path(self, tmp_path):
        path = tmp_path / "corpus-part"
        save_dataset(path, make_dataset())
        assert [p.name for p in tmp_path.iterdir()] == ["corpus-part"]
        assert len(load_dataset(path)) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_dataset(tmp_path / "absent.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not an archive")
        with pytest.raises(CorpusFormatError):
            load_dataset(path)

    def test_wrong_format_header(self, tmp_path):
        path = tmp_path / "odd.npz"
        np.savez(path, header=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(CorpusFormatError, match="header|chartevo"):
            load_dataset(path)


class TestPriceCsv:
    @given(closes=st.lists(st.floats(min_value=1e-3, max_value=1e6,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=40))
    def test_round_trip_exact(self, closes, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("csv")
        series = PriceSeries("RT", days(len(closes)), np.array(closes))
        path = tmp / "rt.csv"
        write_price_csv(path, series)
        again = read_price_csv(path, "RT")
        assert np.array_equal(again.closes, series.closes)
        assert again.dates == series.dates

    @pytest.mark.parametrize("content, lineno", [
        # blank and blank-looking lines still count
        (b"date,close\n2012-01-02,1.5\n\n   \n2012-01-03,x\n", 5),
        (b"date,close\r\n2012-01-02,1.5\r\n2012-01-03,1.6\r\n2012-01-04,x\r\n", 4),
        # a bad last row with no final newline
        (b"date,close\n2012-01-02,1.5\n2012-01-03,oops", 3),
        # a lone carriage return ends a line, as in text-mode iteration
        (b"date,close\r2012-01-02,1.5\r2012-01-03,x\r", 3),
        # separators that str.splitlines would split on are whitespace inside a row
        (b"date,close\n2012-01-02,1.5\x1c\n2012-01-03,1.6\x0b\n2012-01-04,x\n", 4),
    ])
    def test_bad_row_reports_its_line(self, tmp_path, content, lineno):
        path = tmp_path / "p.csv"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{lineno}: bad price row")):
            read_price_csv(path, "P")

    def test_rows_around_blank_lines_and_carriage_returns_load(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"date,close\r\n\r\n 2012-01-02 , 1.5 \r\n\n2012-01-03,1.75")
        series = read_price_csv(path, "P")
        assert series.dates == days(2)
        assert series.closes.tolist() == [1.5, 1.75]

    def test_non_utf8_file_is_refused_by_name(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"date,close\n2012-01-02,1.5\n2012-01-03,1.\xe96\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not UTF-8")):
            read_price_csv(path, "P")
