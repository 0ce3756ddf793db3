"""The traced benchmark replaces program functions by module attribute.

``bench/spans.py`` looks each hooked function up by name; a renamed or
deleted one makes ``Tracer.install()`` raise and the traced run fail.
An after-hook also reads the wrapped function's arguments, so a changed
signature fails only once the function runs.  These tests install every
hook, run a small pipeline through the CLI under them, and remove them.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import spans  # noqa: E402
from chartevo.cli import main  # noqa: E402


def _left_patched(patched) -> list[str]:
    return [f"{owner.__name__}.{attr}" for owner, attr, original in patched
            if owner.__dict__[attr] is not original]


def test_tracer_hooks_install_and_restore():
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    assert _left_patched(patched) == []


def test_pipeline_runs_under_every_hook(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth": {"n_instruments": 2, "n_days": 600, "injection_rate": 0.02, "seed": 4},
        "preprocess": {"horizons": [5, 20], "split_ranges": {
            "training": ["2012-01-01", "2012-12-31"],
            "validation": ["2013-01-01", "2013-06-30"],
            "test": ["2013-07-01", "2013-12-31"]}},
        "eval": {"k": 20, "alpha": 1000.0},
    }))
    prices, corpus, run = tmp_path / "prices", tmp_path / "corpus", tmp_path / "run"
    common = ["--config", str(config)]
    commands = [
        ["synth", "--out", str(prices)],
        ["preprocess", "--prices", str(prices), "--out", str(corpus)],
        ["search", "--corpus", str(corpus), "--out", str(run), "--substrate", "network",
         "--population", "4", "--generations", "1", "--seed", "1"],
        ["evaluate", "--corpus", str(corpus), "--pattern", str(run / "pattern.net"),
         "--k", "20"],
        # a genome on the template substrate has no hidden layer: forward_output runs
        ["evaluate", "--corpus", str(corpus), "--pattern", str(run / "pattern.cppn"),
         "--substrate", "template", "--k", "20"],
        ["export-overlay", "--corpus", str(corpus), "--pattern", str(run / "pattern.net"),
         "--out", str(tmp_path / "overlay.csv")],
    ]
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        codes = []
        for argv in commands:
            codes.append(main(argv + common))
            tracer.end_command()
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands)
    names = {span[1] for span in tracer.spans}
    assert {"search.run_search", "evaluator.evaluate_population", "evaluator.forward_output",
            "search.export_overlay", "types.load_dataset", "types.save_dataset"} <= names
    for count in ("types.charts_loaded", "types.corpus_bytes", "preprocess.charts",
                  "cppn.activate_batch_calls", "substrate.express_calls",
                  "evaluator.forward_calls", "neat.advance_calls", "types.charts_scored"):
        assert tracer.counts[count] > 0, count
    assert _left_patched(patched) == []
