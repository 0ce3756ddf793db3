from __future__ import annotations

import contextlib
import dataclasses
import errno
import io
import json
import os
import shutil
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chartevo.cli import (
    DROPOUT_STREAM,
    EVOLUTION_STREAM,
    RUN_FILES,
    SYNTH_STREAM,
    load_corpus,
    main,
    stream_seed,
)
from chartevo import cppn, types
from chartevo.substrate import PhenotypeNetwork, phenotype_to_text
from chartevo.types import CorpusFormatError, load_dataset, save_dataset


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> preprocess run shared by the module's tests."""
    root = tmp_path_factory.mktemp("pipeline")
    config = {
        "synth": {
            "n_instruments": 3,
            "n_days": 600,
            "injection_rate": 0.02,
            "drift": 0.05,
            "seed": 11,
        },
        "preprocess": {
            "horizons": [5, 20],
            "split_ranges": {
                "training": ["2012-01-01", "2012-12-31"],
                "validation": ["2013-01-01", "2013-06-30"],
                "test": ["2013-07-01", "2013-12-31"],
            },
        },
        "evolution": {"population_size": 8, "generations": 3},
        "eval": {"k": 20, "alpha": 1000.0},
        "search": {"substrate": "template"},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    prices = root / "prices"
    corpus = root / "corpus"
    assert main(["synth", "--config", str(config_path), "--out", str(prices)]) == 0
    assert main(["preprocess", "--config", str(config_path), "--prices", str(prices),
                 "--out", str(corpus)]) == 0
    return {"root": root, "config": config_path, "prices": prices, "corpus": corpus}


class TestParser:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])
        assert exc.value.code == 2

    def test_unknown_substrate_rejected_by_parser(self, tmp_path):
        for argv in (["search", "--out", str(tmp_path)],
                     ["evaluate", "--pattern", str(tmp_path / "pattern.cppn")],
                     ["export-overlay", "--pattern", str(tmp_path / "pattern.cppn"),
                      "--out", str(tmp_path / "overlay.csv")]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--corpus", str(tmp_path), "--substrate", "bogus"])
            assert exc.value.code == 2, argv[0]

    def test_negative_seed_rejected_by_parser(self, tmp_path):
        for argv in (["synth", "--out", str(tmp_path)],
                     ["search", "--corpus", str(tmp_path), "--out", str(tmp_path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seed", "-1"])
            assert exc.value.code == 2, argv[0]

    def test_workers_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--corpus", str(tmp_path), "--out", str(tmp_path),
                  "--workers", "1"])
        assert exc.value.code == 2


class TestDiagnostics:
    def test_missing_corpus_directory(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = main(["search", "--corpus", str(empty), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "no corpus files found" in err

    def test_corrupt_corpus_file_distinct_message(self, tmp_path, capsys):
        bad = tmp_path / "corpus"
        bad.mkdir()
        (bad / "training.npz").write_bytes(b"this is not an archive")
        code = main(["search", "--corpus", str(bad), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "no corpus files found" not in err
        assert "training.npz" in err

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "p")])
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"bogus_knob": 3}}))
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "p")])
        assert code == 1
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["ten", [10], None, 4.5, True],
                             ids=["string", "list", "null", "float", "bool"])
    def test_wrong_typed_config_value(self, pipeline, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"evolution": {"population_size": value}}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["search", "--config", str(cfg), "--corpus", str(pipeline["corpus"]),
                         "--out", str(tmp_path / "run")])
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("chartevo: config section 'evolution'")

    def test_garbage_pattern_file(self, pipeline, tmp_path, capsys):
        pattern = tmp_path / "pattern.net"
        pattern.write_text("scribble\n")
        code = main(["evaluate", "--corpus", str(pipeline["corpus"]),
                     "--pattern", str(pattern), "--k", "20"])
        assert code == 1
        assert "cannot parse pattern" in capsys.readouterr().err

    def test_evaluate_missing_split(self, pipeline, tmp_path, capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        data = (pipeline["corpus"] / "training.npz").read_bytes()
        (partial / "training.npz").write_bytes(data)
        pattern = tmp_path / "p.net"
        # build a trivially valid phenotype to get past parsing
        net = PhenotypeNetwork((np.zeros((64, 1)),), (np.zeros(1),))
        pattern.write_text(phenotype_to_text(net))
        code = main(["evaluate", "--corpus", str(partial), "--pattern", str(pattern),
                     "--split", "test", "--k", "20"])
        assert code == 1
        assert "no 'test' split" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "export-overlay"])
    def test_pattern_width_mismatch(self, pipeline, tmp_path, command):
        pattern = tmp_path / "narrow.net"
        pattern.write_text(phenotype_to_text(PhenotypeNetwork((np.ones((3, 1)),), (np.zeros(1),))))
        overlay = tmp_path / "overlay.csv"
        argv = [command, "--corpus", str(pipeline["corpus"]), "--pattern", str(pattern),
                "--split", "validation"]
        argv += ["--k", "20"] if command == "evaluate" else ["--out", str(overlay)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"chartevo: pattern {pattern} expects 3 inputs")
        assert "validation charts have 64 values" in lines[0]
        assert not overlay.exists()

    @pytest.mark.parametrize("substrate", ["network", "template"])
    def test_corpus_width_mismatch(self, pipeline, tmp_path, substrate):
        config = json.loads(pipeline["config"].read_text())
        config["preprocess"]["slice_window"] = 64
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        corpus = tmp_path / "corpus"
        assert main(["preprocess", "--config", str(cfg), "--prices", str(pipeline["prices"]),
                     "--out", str(corpus)]) == 0
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["search", "--config", str(cfg), "--corpus", str(corpus),
                         "--out", str(tmp_path / "run"), "--substrate", substrate])
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("chartevo: ")
        assert f"charts have 32 values, but the {substrate} substrate expects 64 inputs" in lines[0]
        assert not (tmp_path / "run" / "manifest.json").exists()


BAD_CONFIG_FILES = {
    "missing": None,
    "invalid JSON": "{not json",
    "not an object": "[1, 2]",
}


@pytest.mark.parametrize("problem", sorted(BAD_CONFIG_FILES))
@pytest.mark.parametrize("argv", [
    ["synth", "--out", "prices"],
    ["preprocess", "--prices", "prices", "--out", "corpus"],
    ["search", "--corpus", "corpus", "--out", "run"],
    ["evaluate", "--corpus", "corpus", "--pattern", "pattern.net"],
    ["export-overlay", "--corpus", "corpus", "--pattern", "pattern.net", "--out", "overlay.csv"],
], ids=lambda argv: argv[0])
def test_bad_config_file_gives_one_error_line(tmp_path, monkeypatch, argv, problem):
    monkeypatch.chdir(tmp_path)
    if BAD_CONFIG_FILES[problem] is not None:
        (tmp_path / "config.json").write_text(BAD_CONFIG_FILES[problem])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--config", "config.json"])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chartevo: ")
    assert "config" in lines[0]


class TestSynthOutputs:
    def test_price_directory_contents(self, pipeline):
        names = {p.name for p in pipeline["prices"].iterdir()}
        assert {"manifest.json", "instruments.json", "injections.csv"} <= names
        assert {"SYN000.csv", "SYN001.csv", "SYN002.csv"} <= names

    def test_corpus_contents(self, pipeline):
        names = {p.name for p in pipeline["corpus"].iterdir()}
        assert {"manifest.json", "training.npz", "validation.npz", "test.npz"} <= names
        corpus = load_corpus(pipeline["corpus"])
        assert len(corpus["training"]) > 50
        assert len(corpus["validation"]) > 50
        assert corpus["training"].values.shape[1:] == (32, 2)

    def test_synth_manifest_dates_are_iso_strings(self, pipeline):
        manifest = json.loads((pipeline["prices"] / "manifest.json").read_text())
        assert manifest["config"]["synth"]["start_date"] == "2012-01-02"

    def test_preprocess_manifest_config(self, pipeline):
        config = json.loads((pipeline["corpus"] / "manifest.json").read_text())["config"]
        assert config["preprocess"]["horizons"] == [5, 20]
        assert config["preprocess"]["split_ranges"] == {
            "training": {"start": "2012-01-01", "end": "2012-12-31"},
            "validation": {"start": "2013-01-01", "end": "2013-06-30"},
            "test": {"start": "2013-07-01", "end": "2013-12-31"},
        }

    def test_load_corpus_missing(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path)

    def test_load_corpus_named_splits_only(self, pipeline):
        corpus = load_corpus(pipeline["corpus"], ("validation",))
        assert list(corpus) == ["validation"]


def _drop_horizons(arrays):
    header = json.loads(arrays["header"].tobytes())
    del header["horizons"]
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)


MALFORMED_MEMBERS = {
    "short returns": lambda a: a.update(returns=a["returns"][:10]),
    "missing limit_hit": lambda a: a.pop("limit_hit"),
    "header without horizons": _drop_horizons,
    "three channels": lambda a: a.update(values=np.concatenate([a["values"], a["values"][:, :, :1]], axis=2)),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_MEMBERS))
def test_malformed_corpus_member_gives_one_error_line(pipeline, run_dir, tmp_path, damage):
    with np.load(pipeline["corpus"] / "training.npz") as archive:
        arrays = {name: archive[name] for name in archive.files}
    MALFORMED_MEMBERS[damage](arrays)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    np.savez_compressed(corpus / "training.npz", **arrays)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--corpus", str(corpus), "--pattern", str(run_dir / "pattern.net"),
                     "--split", "training", "--k", "20"])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chartevo: ")
    assert "training.npz" in lines[0]


def _values_data_span(path):
    """(start, size) of the ``values`` member's bytes in a stored corpus archive."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("values.npy")
    assert info.compress_type == zipfile.ZIP_STORED
    data = path.read_bytes()
    name_len, extra_len = struct.unpack("<HH", data[info.header_offset + 26:info.header_offset + 30])
    return info.header_offset + 30 + name_len + extra_len, info.compress_size


@pytest.mark.parametrize("damage", ["flipped byte", "cut"])
def test_damaged_stored_corpus_gives_one_error_line(pipeline, run_dir, tmp_path, damage):
    source = pipeline["corpus"] / "training.npz"
    start, size = _values_data_span(source)
    data = bytearray(source.read_bytes())
    middle = start + size // 2  # past the .npy header, inside the array data
    if damage == "cut":
        data = data[:middle]
    else:
        data[middle] ^= 0xFF
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "training.npz").write_bytes(bytes(data))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--corpus", str(corpus), "--pattern", str(run_dir / "pattern.net"),
                     "--split", "training", "--k", "20"])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chartevo: ")
    assert "training.npz" in lines[0]


class TestSeedPrecedence:
    def _synth_manifest_seed(self, tmp_path, name, extra_args, config=None):
        out = tmp_path / name
        argv = ["synth", "--out", str(out), "--instruments", "1", "--days", "10"]
        if config is not None:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert main(argv + extra_args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return manifest["config"]["synth"]["seed"]

    def test_default_seed_derived_from_zero(self, tmp_path):
        seed = self._synth_manifest_seed(tmp_path, "a", [])
        assert seed == stream_seed(0, SYNTH_STREAM)

    def test_config_file_seed_wins_over_default(self, tmp_path):
        seed = self._synth_manifest_seed(tmp_path, "b", [], config={"synth": {"seed": 123}})
        assert seed == 123

    def test_cli_seed_wins_over_config(self, tmp_path):
        seed = self._synth_manifest_seed(
            tmp_path, "c", ["--seed", "42"], config={"synth": {"seed": 123}}
        )
        assert seed == stream_seed(42, SYNTH_STREAM)

    def test_search_streams_are_distinct(self):
        ev = stream_seed(9, EVOLUTION_STREAM)
        dr = stream_seed(9, DROPOUT_STREAM)
        sy = stream_seed(9, SYNTH_STREAM)
        assert len({ev, dr, sy}) == 3


@pytest.fixture(scope="module")
def run_dir(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["search", "--config", str(pipeline["config"]),
                 "--corpus", str(pipeline["corpus"]), "--out", str(out),
                 "--seed", "5"])
    assert code == 0
    return out


def _manifest_seed(directory):
    return json.loads((directory / "manifest.json").read_text())["seed"]


class TestManifestSeed:
    """``seed`` names the root the streams came from: --seed, 0 when every stream
    fell back to root 0, or null when the config file set a stream."""

    def _synth(self, tmp_path, extra_args, synth_config):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"synth": synth_config}))
        out = tmp_path / "prices"
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--instruments", "1",
                     "--days", "10"] + extra_args) == 0
        return _manifest_seed(out)

    def test_synth_cli_seed(self, tmp_path):
        assert self._synth(tmp_path, ["--seed", "42"], {"seed": 123}) == 42

    def test_synth_default_root(self, tmp_path):
        assert self._synth(tmp_path, [], {}) == 0

    def test_synth_config_seed(self, tmp_path):
        assert self._synth(tmp_path, [], {"seed": 123}) is None

    def test_preprocess_uses_no_seed(self, pipeline):
        assert _manifest_seed(pipeline["corpus"]) is None

    def test_search_cli_seed(self, run_dir):
        assert _manifest_seed(run_dir) == 5

    @pytest.mark.parametrize("sections, expected", [
        ({}, 0),
        ({"evolution": {"rng_seed": 3}}, None),
        ({"eval": {"rng_seed": 3}}, None),
    ], ids=["default_root", "evolution_seed", "dropout_seed"])
    def test_search_without_cli_seed(self, pipeline, tmp_path, sections, expected):
        config = json.loads(pipeline["config"].read_text())
        for name, section in sections.items():
            config[name].update(section)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["search", "--config", str(cfg), "--corpus", str(pipeline["corpus"]),
                     "--out", str(out), "--population", "4", "--generations", "1"]) == 0
        assert _manifest_seed(out) == expected


class TestSearchCommand:
    def test_outputs_written(self, run_dir):
        names = {p.name for p in run_dir.iterdir()}
        assert {"manifest.json", "history.csv", "pattern.cppn", "pattern.net",
                "results_row.csv", "report.txt", "overlay.csv"} <= names

    def test_manifest_records_resolved_config(self, pipeline, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tool"] == "chartevo"
        assert manifest["command"] == "search"
        assert manifest["config"]["evolution"]["population_size"] == 8
        assert manifest["config"]["evolution"]["rng_seed"] == stream_seed(5, EVOLUTION_STREAM)
        assert manifest["config"]["eval"]["rng_seed"] == stream_seed(5, DROPOUT_STREAM)
        assert manifest["config"]["eval"]["alpha"] == 1000.0
        assert len(manifest["inputs"]) == 3
        assert all(k.endswith(".npz") for k in manifest["inputs"])

    def test_cli_population_overrides_config(self, pipeline, tmp_path):
        out = tmp_path / "run2"
        code = main(["search", "--config", str(pipeline["config"]),
                     "--corpus", str(pipeline["corpus"]), "--out", str(out),
                     "--population", "6", "--generations", "2"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["evolution"]["population_size"] == 6
        assert manifest["config"]["evolution"]["generations"] == 2

    def test_history_matches_configured_generations(self, run_dir):
        lines = (run_dir / "history.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        assert lines[0].startswith("generation,best_fitness")

    def test_results_row_printed(self, pipeline, tmp_path, capsys):
        out = tmp_path / "run3"
        code = main(["search", "--config", str(pipeline["config"]),
                     "--corpus", str(pipeline["corpus"]), "--out", str(out),
                     "--generations", "2"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pattern,train20,valid20,test20" in stdout

    def test_evaluate_saved_phenotype(self, pipeline, run_dir, capsys):
        code = main(["evaluate", "--corpus", str(pipeline["corpus"]),
                     "--pattern", str(run_dir / "pattern.net"),
                     "--split", "validation", "--k", "20", "--alpha", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chartevo-fitness" in out
        assert "match_count" in out

    def test_evaluate_reads_eval_section(self, pipeline, run_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eval": {"k": 20}}))

        def report(*args):
            assert main(["evaluate", "--corpus", str(pipeline["corpus"]),
                         "--pattern", str(run_dir / "pattern.net"), *args]) == 0
            return capsys.readouterr().out

        assert report("--config", str(cfg)) == report("--k", "20")
        assert report("--config", str(cfg), "--k", "5") == report("--k", "5")

    def test_evaluate_genome_needs_substrate(self, pipeline, run_dir, capsys):
        code = main(["evaluate", "--corpus", str(pipeline["corpus"]),
                     "--pattern", str(run_dir / "pattern.cppn"),
                     "--substrate", "template", "--split", "test",
                     "--k", "20", "--alpha", "1000"])
        assert code == 0
        assert "fitness" in capsys.readouterr().out

    def test_evaluate_report_file(self, pipeline, run_dir, tmp_path):
        report = tmp_path / "report.txt"
        code = main(["evaluate", "--corpus", str(pipeline["corpus"]),
                     "--pattern", str(run_dir / "pattern.net"),
                     "--split", "test", "--k", "20", "--alpha", "1000",
                     "--out", str(report)])
        assert code == 0
        assert report.read_text().startswith("chartevo-fitness 1")

    def test_export_overlay_command(self, pipeline, run_dir, tmp_path):
        out = tmp_path / "overlay.csv"
        code = main(["export-overlay", "--corpus", str(pipeline["corpus"]),
                     "--pattern", str(run_dir / "pattern.net"),
                     "--split", "validation", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("chart_id,step,daily_change,change_to_last_day")


@pytest.fixture(scope="module")
def truncation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("truncated")


@given(data=st.data())
def test_truncated_pattern_gives_one_error_line(pipeline, run_dir, truncation_dir, data):
    """A pattern.net cut at any byte ends with exit 1 and one chartevo: line."""
    text = (run_dir / "pattern.net").read_bytes()
    cut = data.draw(st.integers(0, len(text) - 1), label="cut")
    pattern = truncation_dir / "cut.net"
    pattern.write_bytes(text[:cut])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--corpus", str(pipeline["corpus"]),
                     "--pattern", str(pattern), "--split", "validation", "--k", "20"])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chartevo: cannot parse pattern file")


def test_sigmoid_pattern_gives_one_error_line(pipeline, run_dir, tmp_path):
    pattern = tmp_path / "sigmoid.net"
    text = (run_dir / "pattern.net").read_text()
    pattern.write_text(text.replace("\nactivation relu\n", "\nactivation sigmoid\n", 1))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--corpus", str(pipeline["corpus"]),
                     "--pattern", str(pattern), "--split", "validation", "--k", "20"])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chartevo: cannot parse pattern file")
    assert "activation relu" in lines[0]


@given(data=st.data())
def test_truncated_genome_gives_one_error_line(pipeline, run_dir, truncation_dir, data):
    """A pattern.cppn cut at any byte not just after a newline ends with exit 1
    and one chartevo: line (a cut at a line boundary still parses)."""
    text = (run_dir / "pattern.cppn").read_bytes()
    cut = data.draw(st.integers(0, len(text) - 1).filter(lambda c: not text[:c].endswith(b"\n")),
                    label="cut")
    pattern = truncation_dir / "cut.cppn"
    pattern.write_bytes(text[:cut])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--corpus", str(pipeline["corpus"]), "--pattern", str(pattern),
                     "--substrate", "template", "--split", "validation", "--k", "20"])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chartevo: cannot parse pattern file")


def _first_price_csv(prices):
    index = json.loads((prices / "instruments.json").read_text())
    return prices / index["instruments"][0]["file"]


def _edit_price_rows(edit):
    def damage(prices, config):
        path = _first_price_csv(prices)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
    return damage


def _swap_days(lines):
    lines[5], lines[6] = lines[6], lines[5]


def _set_close(value):
    def edit(lines):
        lines[5] = f"{lines[5].split(',')[0]},{value}"
    return edit


def _edit_index(edit):
    def damage(prices, config):
        index = json.loads((prices / "instruments.json").read_text())
        edit(index)
        (prices / "instruments.json").write_text(json.dumps(index))
    return damage


def _set_config(section, key, value):
    def damage(prices, config):
        target = config if section is None else config[section]
        target[key] = value
    return damage


def _first_weight_row(value):
    def damage(prices, config):
        path = prices.parent / "pattern.net"
        lines = path.read_text().splitlines()
        lines[4] = " ".join([value] * len(lines[4].split()))
        path.write_text("\n".join(lines) + "\n")
    return damage



def _genome_enable_field(value):
    """A genome pattern in place of the ``.net`` whose first link's enable field reads ``value``."""
    def damage(prices, config):
        lines = cppn.to_text(cppn.minimal_genome(np.random.default_rng(0))).splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("conn "))
        lines[first] = " ".join(lines[first].split()[:5] + [value])
        (prices.parent / "pattern.net").write_text("\n".join(lines) + "\n")
    return damage

# a valid pattern for the pipeline's 64-value charts, with one hidden layer
PATTERN = PhenotypeNetwork((np.ones((64, 2)), np.ones((2, 1))), (np.zeros(2), np.zeros(1)))

# case -> (command and extra flags, damage to copies of the pipeline's price
# directory, of the pattern file beside it and of the config)
MALFORMED_INPUTS = {
    "price index is a list": ("preprocess", lambda p, c: (p / "instruments.json").write_text("[]\n")),
    "index entry without file": ("preprocess", _edit_index(lambda i: i["instruments"][0].pop("file"))),
    "index entry without id": ("preprocess", _edit_index(lambda i: i["instruments"][0].pop("id"))),
    "instruments is an object": ("preprocess", _edit_index(lambda i: i.update(instruments={}))),
    "swapped days": ("preprocess", _edit_price_rows(_swap_days)),
    "negative close": ("preprocess", _edit_price_rows(_set_close("-1.5"))),
    "nan close": ("preprocess", _edit_price_rows(_set_close("nan"))),
    "inf close": ("preprocess", _edit_price_rows(_set_close("inf"))),
    "training range with a bad date": (
        "preprocess", lambda p, c: c["preprocess"]["split_ranges"].update(training=["2012-13-01", "2012-12-31"])),
    "horizons are not integers": ("preprocess", _set_config("preprocess", "horizons", ["x"])),
    "horizons are a string of digits": ("preprocess", _set_config("preprocess", "horizons", "25")),
    "horizons hold a float and a bool": (
        "preprocess", _set_config("preprocess", "horizons", [20.7, True])),
    "training range with one date": (
        "preprocess", lambda p, c: c["preprocess"]["split_ranges"].update(training=["2012-01-01"])),
    "split_ranges is a number": ("preprocess", _set_config("preprocess", "split_ranges", 5)),
    "evolution section is a list": ("search", _set_config(None, "evolution", [])),
    "search.activation": ("search", _set_config("search", "activation", "sigmoid")),
    "search.scaling": ("search", _set_config("search", "scaling", "none")),
    "synth.seed is negative": ("synth", _set_config("synth", "seed", -1)),
    "synth.n_days is fractional": ("synth", _set_config("synth", "n_days", 600.5)),
    "evolution.rng_seed is negative": ("search", _set_config("evolution", "rng_seed", -1)),
    "eval.rng_seed is negative": ("search", _set_config("eval", "rng_seed", -1)),
    "eval.alpha is a bool": ("evaluate", _set_config("eval", "alpha", True)),
    "alpha flag is nan": ("search --alpha nan", lambda p, c: None),
    "k is not a corpus horizon": ("evaluate --k 7", lambda p, c: None),
    "pattern weight nan, evaluate": ("evaluate", _first_weight_row("nan")),
    "pattern weight inf, evaluate": ("evaluate", _first_weight_row("inf")),
    "pattern weight nan, export-overlay": ("export-overlay", _first_weight_row("nan")),
    "pattern weight inf, export-overlay": ("export-overlay", _first_weight_row("inf")),
    "genome enable field 2": ("evaluate", _genome_enable_field("2")),
    "genome enable field -1": ("evaluate", _genome_enable_field("-1")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_gives_one_error_line(pipeline, tmp_path, case):
    spec, damage = MALFORMED_INPUTS[case]
    command, *flags = spec.split()
    prices = tmp_path / "prices"
    shutil.copytree(pipeline["prices"], prices)
    pattern = tmp_path / "pattern.net"
    pattern.write_text(phenotype_to_text(PATTERN))
    config = json.loads(pipeline["config"].read_text())
    damage(prices, config)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    corpus = str(pipeline["corpus"])
    argv = {
        "synth": ["--out", str(tmp_path / "synth")],
        "preprocess": ["--prices", str(prices), "--out", str(tmp_path / "corpus")],
        "search": ["--corpus", corpus, "--out", str(tmp_path / "run")],
        "evaluate": ["--corpus", corpus, "--pattern", str(pattern), "--k", "20"],
        "export-overlay": ["--corpus", corpus, "--pattern", str(pattern),
                           "--out", str(tmp_path / "overlay.csv")],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, *argv, *flags, "--config", str(config_path)])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chartevo: ")


def _pattern_file(prices, kind):
    """A valid ``.net`` or ``.cppn`` pattern beside a copy of the price directory."""
    path = prices.parent / f"pattern.{kind}"
    genome = cppn.minimal_genome(np.random.default_rng(0))
    path.write_text(phenotype_to_text(PATTERN) if kind == "net" else cppn.to_text(genome))
    return path


# reader -> command, and the file it reads from a copy of the pipeline's inputs
NON_UTF8_INPUTS = {
    "price csv": ("preprocess", lambda prices, config: _first_price_csv(prices)),
    "instrument index": ("preprocess", lambda prices, config: prices / "instruments.json"),
    "config file": ("preprocess", lambda prices, config: config),
    "net pattern": ("evaluate", lambda prices, config: _pattern_file(prices, "net")),
    "cppn pattern": ("evaluate", lambda prices, config: _pattern_file(prices, "cppn")),
}


@pytest.mark.parametrize("reader", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_gives_one_error_line_naming_it(pipeline, tmp_path, reader):
    command, target = NON_UTF8_INPUTS[reader]
    prices = tmp_path / "prices"
    shutil.copytree(pipeline["prices"], prices)
    config = tmp_path / "config.json"
    shutil.copy(pipeline["config"], config)
    path = target(prices, config)
    text = path.read_bytes()
    path.write_bytes(text[:40] + b"\xe9" + text[40:])  # a Latin-1 byte in valid text
    argv = {
        "preprocess": ["--prices", str(prices), "--out", str(tmp_path / "corpus")],
        "evaluate": ["--corpus", str(pipeline["corpus"]), "--pattern", str(path), "--k", "20"],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, *argv, "--config", str(config)])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"chartevo: {path}: not UTF-8 text")


CHECKPOINT_ARGS = ["--seed", "5", "--population", "10", "--substrate", "template",
                   "--generations", "2"]


@pytest.fixture(scope="module")
def checkpoint(pipeline, tmp_path_factory):
    """A real checkpoint, made after generation 0 of a two-generation search."""
    root = tmp_path_factory.mktemp("checkpointed")
    config = json.loads(pipeline["config"].read_text())
    config["search"]["checkpoint_every"] = 1
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["search", "--config", str(config_path), "--corpus", str(pipeline["corpus"]),
                 "--out", str(root / "run"), *CHECKPOINT_ARGS]) == 0
    return {"config": config_path, "path": root / "run" / "checkpoints" / "checkpoint_g0001.json",
            "root": root}


def _resume(pipeline, checkpoint, path, *args, corpus=None):
    """Exit code and stderr lines of ``chartevo search --resume path``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["search", "--config", str(checkpoint["config"]),
                     "--corpus", str(corpus or pipeline["corpus"]),
                     "--out", str(checkpoint["root"] / "again"),
                     *CHECKPOINT_ARGS, *args, "--resume", str(path)])
    return code, err.getvalue().splitlines()


def test_resume_with_same_arguments(pipeline, checkpoint):
    code, _ = _resume(pipeline, checkpoint, checkpoint["path"])
    assert code == 0
    straight = (checkpoint["root"] / "run" / "history.csv").read_bytes()
    assert (checkpoint["root"] / "again" / "history.csv").read_bytes() == straight


@given(data=st.data())
def test_truncated_checkpoint_gives_one_error_line(pipeline, checkpoint, truncation_dir, data):
    """A checkpoint cut at any byte ends with exit 1 and one chartevo: line."""
    text = checkpoint["path"].read_bytes()
    cut = data.draw(st.integers(0, len(text) - 1), label="cut")
    path = truncation_dir / "cut.json"
    path.write_bytes(text[:cut])
    code, lines = _resume(pipeline, checkpoint, path)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("chartevo: ")


def test_version_1_checkpoint_gives_one_error_line(pipeline, checkpoint, tmp_path):
    state = json.loads(checkpoint["path"].read_text())
    state["version"] = 1
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(state) + "\n")
    code, lines = _resume(pipeline, checkpoint, path)
    assert code == 1
    assert len(lines) == 1 and "checkpoint version 1 is not supported" in lines[0]


@pytest.mark.parametrize("args, field", [
    (["--population", "30"], "evolution.population_size"),
    (["--substrate", "network"], "search.substrate"),
    (["--population", "30", "--substrate", "network"], "evolution.population_size"),
    # no changed argument: the checkpoint saves a field this chartevo does not have
    ([], "search.activation"),
    ([], "search.scaling"),
])
def test_resume_with_changed_config_gives_one_error_line(pipeline, checkpoint, tmp_path,
                                                         args, field):
    path = checkpoint["path"]
    if not args:
        state = json.loads(path.read_text())
        section, name = field.split(".")
        # the values of the deleted options that no longer reproduce a run
        state["config"][section][name] = "sigmoid" if name == "activation" else "none"
        path = tmp_path / "saved.json"
        path.write_text(json.dumps(state) + "\n")
    code, lines = _resume(pipeline, checkpoint, path, *args)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("chartevo: ")
    assert f"checkpoint was made with {field}=" in lines[0]


def test_resume_on_another_corpus_gives_one_error_line(pipeline, checkpoint, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    code, _ = _resume(pipeline, checkpoint, checkpoint["path"], corpus=corpus)
    assert code == 0
    straight = (checkpoint["root"] / "run" / "history.csv").read_bytes()
    assert (checkpoint["root"] / "again" / "history.csv").read_bytes() == straight

    training = load_dataset(corpus / "training.npz")
    returns = training.returns.copy()
    column = training.horizons.index(json.loads(checkpoint["config"].read_text())["eval"]["k"])
    returns[np.flatnonzero(~np.isnan(returns[:, column]))[0], column] += 0.01
    save_dataset(corpus / "training.npz", dataclasses.replace(training, returns=returns))
    code, lines = _resume(pipeline, checkpoint, checkpoint["path"], corpus=corpus)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("chartevo: ")
    assert "checkpoint was made on a different training split" in lines[0]


class FullDisk:
    """A file that takes ``ROOM`` characters and then fails as a full disk does."""

    ROOM = 20

    def __init__(self, path, mode, **kwargs):
        self.fh = open(path, mode, **kwargs)
        self.room = self.ROOM

    def write(self, text):
        self.fh.write(text[:self.room])
        if len(text) > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("command, target", [
    ("search", "manifest.json"),
    ("search", "history.csv"),
    ("search", "pattern.net"),
    ("search", "overlay.csv"),
    ("synth", "SYN000.csv"),
    ("synth", "instruments.json"),
    ("synth", "injections.csv"),
])
def test_failed_write_keeps_previous_file(pipeline, tmp_path, monkeypatch, command, target):
    """A write cut short by a full disk leaves no temporary file.

    ``synth`` keeps the previous file.  A ``search`` into the directory of an
    earlier run leaves none of that run's files and no manifest, so nothing
    can pass the failed run's files off as one run; ``checkpoints/`` stays.
    """
    out = tmp_path / "out"
    out.mkdir()
    previous = RUN_FILES if command == "search" else (target,)
    for name in previous:
        (out / name).write_text("previous\n")
    (out / "checkpoints").mkdir()
    (out / "checkpoints" / "checkpoint_g0001.json").write_text("previous\n")
    real_open = open

    def open_filling_disk(path, mode="r", **kwargs):
        if os.path.basename(path).startswith(target + "."):
            return FullDisk(path, mode, **kwargs)
        return real_open(path, mode, **kwargs)

    monkeypatch.setattr(types, "open", open_filling_disk, raising=False)
    if command == "search":
        argv = ["search", "--corpus", str(pipeline["corpus"]), "--seed", "2"]
    else:
        argv = ["synth"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--config", str(pipeline["config"]), "--out", str(out)])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("chartevo: ")
    assert "No space left on device" in lines[0]
    if command == "search":
        assert not (out / "manifest.json").exists()
        assert not (out / target).exists()
        assert [name for name in RUN_FILES
                if (out / name).exists() and (out / name).read_text() == "previous\n"] == []
    else:
        assert (out / target).read_text() == "previous\n"
    assert (out / "checkpoints" / "checkpoint_g0001.json").read_text() == "previous\n"
    assert list(out.rglob("*.tmp")) == []


def test_refused_search_keeps_previous_run(pipeline, run_dir, tmp_path):
    """A search refused for its inputs leaves the earlier run's files as they were."""
    out = tmp_path / "run"
    shutil.copytree(run_dir, out)
    previous = {name: (out / name).read_bytes() for name in RUN_FILES}
    config = json.loads(pipeline["config"].read_text())
    config["preprocess"]["slice_window"] = 64
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    corpus = tmp_path / "corpus"
    assert main(["preprocess", "--config", str(cfg), "--prices", str(pipeline["prices"]),
                 "--out", str(corpus)]) == 0
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["search", "--config", str(cfg), "--corpus", str(corpus), "--out", str(out)])
    assert code == 1
    assert "charts have 32 values" in err.getvalue()
    assert {name: (out / name).read_bytes() for name in RUN_FILES} == previous


def test_run_files_do_not_depend_on_blas_threads(pipeline, tmp_path):
    # one network search per OpenBLAS thread count, each in its own process,
    # since OpenBLAS reads the variable once, when it loads
    import subprocess
    import sys

    import chartevo

    src = os.path.dirname(os.path.dirname(os.path.abspath(chartevo.__file__)))
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-m", "chartevo.cli", "search",
                        "--config", str(pipeline["config"]), "--corpus", str(pipeline["corpus"]),
                        "--out", str(out), "--substrate", "network", "--population", "6",
                        "--generations", "2", "--seed", "3"],
                       env=env, check=True, capture_output=True)
        outputs[threads] = {name: (out / name).read_bytes() for name in RUN_FILES
                            if name != "manifest.json"}
    assert outputs["1"] == outputs["2"]
