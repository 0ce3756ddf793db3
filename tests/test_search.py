from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import logging
import math
import os

import numpy as np
import pytest

import chartevo.search as search_mod
from chartevo import cppn
from chartevo.cppn import minimal_genome
from chartevo.evaluator import DatasetTensors, EvalConfig
from chartevo.neat import EvolutionConfig
from chartevo.search import (
    HISTORY_COLUMNS,
    ChampionRecord,
    GenerationRecord,
    SearchOptions,
    SearchRun,
    SelectedPattern,
    export_overlay,
    history_table,
    results_row,
    run_search,
    write_run_outputs,
)
from chartevo.substrate import PhenotypeNetwork, express, phenotype_to_text, standard_substrates
from chartevo.types import ConfigError, Dataset, FitnessReport


def make_corpus(sizes=(60, 40, 40), seed=0, k=5, limit_all=False):
    rng = np.random.default_rng(seed)
    corpus = {}
    for split, n in zip(("training", "validation", "test"), sizes):
        values, returns = np.empty((n, 32, 2)), np.empty((n, 1))
        for i in range(n):
            values[i] = rng.normal(scale=0.05, size=(32, 2))
            returns[i] = float(rng.normal(0.01, 0.1))
        corpus[split] = Dataset(
            split=split,
            horizons=(k,),
            values=values,
            returns=returns,
            entry_ordinals=datetime.date(2015, 1, 1).toordinal() + np.arange(n),
            limit_hit=np.full(n, limit_all),
            source_ids=[f"T{i:03d}" for i in range(n)],
        )
    return corpus


def small_configs(generations=4, seed=7, population=10, k=5):
    return (
        EvolutionConfig(population_size=population, generations=generations, rng_seed=seed),
        EvalConfig(k=k, alpha=1000.0, rng_seed=seed + 1),
    )


class TestRunSearchValidation:
    def test_missing_training_split_rejected(self):
        corpus = make_corpus()
        del corpus["training"]
        evc, evalc = small_configs()
        with pytest.raises(ConfigError):
            run_search(corpus, evc, evalc)

    def test_unusable_horizon_rejected(self):
        corpus = make_corpus(k=5)
        evc, evalc = small_configs(k=9)
        with pytest.raises(ConfigError):
            run_search(corpus, evc, evalc)

    def test_unknown_substrate_rejected(self):
        evc, evalc = small_configs()
        with pytest.raises(ConfigError):
            run_search(make_corpus(), evc, evalc, SearchOptions(substrate="mystery"))


class TestRunSearchBehavior:
    def test_history_structure(self):
        corpus = make_corpus()
        evc, evalc = small_configs(generations=4)
        run = run_search(corpus, evc, evalc, SearchOptions(substrate="template"))
        assert [r.generation for r in run.history] == [0, 1, 2, 3]
        assert len(run.champions) == 4
        assert run.selected is not None
        assert set(run.selected.reports) == {"training", "validation", "test"}
        for record in run.history:
            assert record.best_fitness >= record.mean_fitness - 1e-12
            assert record.species_count >= 1

    def test_generations_zero_still_evaluates_once(self):
        corpus = make_corpus()
        evc, evalc = small_configs(generations=0)
        run = run_search(corpus, evc, evalc, SearchOptions(substrate="template"))
        assert len(run.history) == 1
        assert run.selected is not None

    def test_two_runs_byte_identical(self):
        evc, evalc = small_configs(generations=3, population=8)
        outputs = []
        for _ in range(2):
            run = run_search(make_corpus(), evc, evalc, SearchOptions(substrate="network"))
            outputs.append((
                history_table(run),
                cppn.to_text(run.selected.genome),
                phenotype_to_text(run.selected.network),
                results_row(run),
            ))
        assert outputs[0] == outputs[1]

    def test_test_split_scored_exactly_once(self, monkeypatch):
        import chartevo.search as search_mod
        calls = {"test": 0}
        real_fitness = search_mod.fitness

        def spy(net, tensors, config, masks=None):
            if tensors.split == "test":
                calls["test"] += 1
            return real_fitness(net, tensors, config, masks)

        monkeypatch.setattr(search_mod, "fitness", spy)
        evc, evalc = small_configs(generations=5)
        run = run_search(make_corpus(), evc, evalc, SearchOptions(substrate="template"))
        assert calls["test"] == 1
        assert run.selected.reports["test"].k == 5

    def test_per_generation_validation_recorded(self):
        evc, evalc = small_configs(generations=3)
        run = run_search(
            make_corpus(), evc, evalc,
            SearchOptions(substrate="template", validate_every_generation=True),
        )
        assert all(r.validation_fitness is not None for r in run.history)

    def test_per_generation_validation_values_pinned(self):
        # each generation's champion is expressed again for validation; expression
        # is deterministic, so these are the values of the network that was scored
        evc, evalc = small_configs(generations=5, population=12, seed=4)
        run = run_search(make_corpus(seed=4), evc, evalc,
                         SearchOptions(substrate="network", validate_every_generation=True))
        assert [r.validation_fitness for r in run.history] == [
            0.014270113135627802, 0.03732483284350698, 0.013507039115368016,
            0.014270113135627802, 0.014270113135627802]
        assert [r.best_match_count for r in run.history] == [60, 2, 33, 60, 60]

    def test_no_validation_split_falls_back_to_training(self, caplog):
        corpus = make_corpus()
        del corpus["validation"]
        evc, evalc = small_configs(generations=3)
        with caplog.at_level(logging.WARNING, logger="chartevo.search"):
            run = run_search(corpus, evc, evalc, SearchOptions(substrate="template"))
        assert any("no validation split" in m for m in caplog.messages)
        assert run.selected is not None
        assert "validation" not in run.selected.reports
        best_train = max(c.train_report.fitness for c in run.champions)
        assert run.selected.reports["training"] is not None
        assert any(
            c.train_report.fitness == best_train and c.generation == run.selected.generation
            for c in run.champions
        )

    def test_unmatchable_corpus_warns_after_patience(self, caplog):
        corpus = make_corpus(limit_all=True)
        evc, evalc = small_configs(generations=21, population=6)
        with caplog.at_level(logging.WARNING, logger="chartevo.search"):
            run = run_search(corpus, evc, evalc, SearchOptions(substrate="template"))
        assert any("consecutive generations" in m for m in caplog.messages)
        assert all(r.best_fitness == 0.0 for r in run.history)
        assert run.selected.reports["test"].match_count == 0


class TestPatternSelection:
    """The first champion of each distinct genome is scored once, the highest
    score wins, and the earliest generation wins a tie."""

    # genome seed of each generation's champion; generations 1, 4 and 5 repeat one
    SEEDS = (0, 0, 1, 2, 1, 2)
    # scripted score of each genome seed: seeds 1 and 2 tie for the best
    SCORES = {0: 0.1, 1: 0.3, 2: 0.3}

    def _select(self, monkeypatch, splits):
        genomes = {seed: minimal_genome(np.random.default_rng(seed)) for seed in self.SCORES}
        assert len(set(genomes.values())) == len(genomes)
        run = SearchRun(run_id="demo", substrate="template", k=5)
        run.champions = [
            ChampionRecord(g, genomes[seed], FitnessReport.from_stats(5, 1, self.SCORES[seed], 1.0))
            for g, seed in enumerate(self.SEEDS)
        ]
        expressed = []  # (network, genome seed); holding the networks keeps their identity
        real_express, real_fitness = search_mod.express, search_mod.fitness

        def express_spy(genome, spec):
            net = real_express(genome, spec)
            expressed.append((net, next(s for s, g in genomes.items() if g is genome)))
            return net

        calls = []

        def fitness_spy(net, tensors, config, masks=None):
            seed = next(s for n, s in expressed if n is net)
            calls.append((tensors.split, seed))
            report = real_fitness(net, tensors, config, masks)
            if tensors.split == "validation":
                return FitnessReport.from_stats(report.k, 1, self.SCORES[seed], 1.0)
            return report

        monkeypatch.setattr(search_mod, "express", express_spy)
        monkeypatch.setattr(search_mod, "fitness", fitness_spy)
        corpus = make_corpus()
        tensors = {name: DatasetTensors.from_dataset(corpus[name], 5) for name in splits}
        selected = search_mod._select_pattern(run, standard_substrates()["template"], tensors,
                                              EvalConfig(k=5, alpha=1000.0, dropout_enabled=False))
        assert selected.genome is genomes[1]
        return selected, calls

    def test_best_validation_score_earliest_generation(self, monkeypatch):
        selected, calls = self._select(monkeypatch, ("training", "validation", "test"))
        assert selected.generation == 2
        assert selected.reports["validation"].fitness == 0.3
        # one validation scoring per distinct genome, then the winner's report
        assert [seed for split, seed in calls if split == "validation"] == [0, 1, 2, 1]
        assert [c for c in calls if c[0] != "validation"] == [("training", 1), ("test", 1)]

    def test_no_validation_split_same_rule_on_training_fitness(self, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger="chartevo.search"):
            selected, calls = self._select(monkeypatch, ("training", "test"))
        assert any("no validation split" in m for m in caplog.messages)
        assert selected.generation == 2
        assert calls == [("training", 1), ("test", 1)]


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        evc, evalc = small_configs(generations=6, population=8)
        options = SearchOptions(substrate="template", checkpoint_every=2)
        straight = run_search(make_corpus(), evc, evalc, options,
                              checkpoint_dir=tmp_path / "a")
        ckpt = tmp_path / "a" / "checkpoint_g0004.json"
        assert ckpt.exists()
        resumed = run_search(make_corpus(), evc, evalc, options, resume_from=ckpt)
        assert history_table(resumed) == history_table(straight)
        assert cppn.to_text(resumed.selected.genome) == cppn.to_text(straight.selected.genome)
        assert results_row(resumed) == results_row(straight)

    def test_resume_keeps_zero_fitness_streak(self, tmp_path, caplog):
        corpus = make_corpus(limit_all=True)
        evc, evalc = small_configs(generations=23, population=6)
        options = SearchOptions(substrate="template", checkpoint_every=10)
        with caplog.at_level(logging.WARNING, logger="chartevo.search"):
            run_search(corpus, evc, evalc, options, checkpoint_dir=tmp_path)
        straight = [m for m in caplog.messages if "consecutive generations" in m]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="chartevo.search"):
            run_search(corpus, evc, evalc, options,
                       resume_from=tmp_path / "checkpoint_g0010.json")
        resumed = [m for m in caplog.messages if "consecutive generations" in m]
        assert len(straight) == 1 and "through generation 19" in straight[0]
        assert resumed == straight

    @pytest.mark.parametrize("change, field", [
        ({"evolution": {"population_size": 12}}, "evolution.population_size"),
        ({"search": {"substrate": "network"}}, "search.substrate"),
        ({"eval": {"rng_seed": 99}}, "eval.rng_seed"),
    ])
    def test_resume_refuses_changed_config(self, tmp_path, change, field):
        evc, evalc = small_configs(generations=4, population=10)
        options = SearchOptions(substrate="template", checkpoint_every=2)
        run_search(make_corpus(), evc, evalc, options, checkpoint_dir=tmp_path)
        evc = dataclasses.replace(evc, **change.get("evolution", {}))
        evalc = dataclasses.replace(evalc, **change.get("eval", {}))
        options = dataclasses.replace(options, **change.get("search", {}))
        with pytest.raises(ConfigError, match=f"made with {field}="):
            run_search(make_corpus(), evc, evalc, options,
                       resume_from=tmp_path / "checkpoint_g0002.json")

    @pytest.mark.parametrize("drop", ["config", "history", "champions"])
    def test_resume_refuses_incomplete_extra(self, tmp_path, drop):
        evc, evalc = small_configs(generations=4, population=6)
        options = SearchOptions(substrate="template", checkpoint_every=2)
        run_search(make_corpus(), evc, evalc, options, checkpoint_dir=tmp_path)
        path = tmp_path / "checkpoint_g0002.json"
        state = json.loads(path.read_text())
        del state[drop]
        path.write_text(json.dumps(state) + "\n")
        with pytest.raises(ConfigError, match="malformed checkpoint"):
            run_search(make_corpus(), evc, evalc, options, resume_from=path)

    def test_resume_refuses_another_corpus(self, tmp_path):
        evc, evalc = small_configs(generations=4, population=6)
        options = SearchOptions(substrate="template", checkpoint_every=2)
        run_search(make_corpus(), evc, evalc, options, checkpoint_dir=tmp_path)
        corpus = make_corpus()
        returns = corpus["training"].returns.copy()
        returns[7, 0] += 0.01
        corpus["training"] = dataclasses.replace(corpus["training"], returns=returns)
        with pytest.raises(ConfigError, match="checkpoint was made on a different training split"):
            run_search(corpus, evc, evalc, options, resume_from=tmp_path / "checkpoint_g0002.json")

    def test_checkpoint_cadence(self, tmp_path):
        evc, evalc = small_configs(generations=5, population=6)
        options = SearchOptions(substrate="template", checkpoint_every=2)
        run_search(make_corpus(), evc, evalc, options, checkpoint_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        # the final generation does not reproduce, so no checkpoint lands there
        assert names == ["checkpoint_g0002.json", "checkpoint_g0004.json"]


class TestGoldenDigests:
    """Pinned sha256 of ``history.csv`` + ``pattern.cppn`` for two small searches.

    Both runs grow hidden nodes and links (add-connection and add-node at
    0.3), and the network run scores with dropout, so any drift in the
    variation draw stream, the CPPN arithmetic or the scoring moves a
    digest, and with it the run files of a given seed.
    """

    @pytest.mark.parametrize("substrate, population, generations, seed, expected", [
        ("template", 60, 6, 3, "e368c2025fa1f231c116a79240e1bcd60141ecd4789c3d818e29baba2f60ea15"),
        ("network", 12, 5, 4, "695f66c2e9ed2ed6ff6fc3780ddc78869576c6135573ca8577c24c48ea0c6267"),
    ])
    def test_run_files_unchanged(self, substrate, population, generations, seed, expected):
        evolution = EvolutionConfig(population_size=population, generations=generations,
                                    rng_seed=seed, add_connection_rate=0.3, add_node_rate=0.3)
        evaluation = EvalConfig(k=5, alpha=1000.0, rng_seed=seed + 1)
        assert evaluation.dropout_enabled
        run = run_search(make_corpus((120, 60, 60), seed=seed), evolution, evaluation,
                         SearchOptions(substrate=substrate))
        assert any(node.role == "hidden" for champ in run.champions for node in champ.genome.nodes)
        text = history_table(run) + cppn.to_text(run.selected.genome)
        assert hashlib.sha256(text.encode()).hexdigest() == expected


def bias_only_net(bias):
    return PhenotypeNetwork((np.zeros((64, 1)),), (np.array([bias]),))


class TestOverlay:
    def test_no_match_header_only(self, tmp_path):
        corpus = make_corpus(sizes=(5, 1, 1))
        path = tmp_path / "overlay.csv"
        count = export_overlay(bias_only_net(-1.0), corpus["training"], path)
        assert count == 0
        assert path.read_text() == "chart_id,step,daily_change,change_to_last_day\n"

    def test_matches_expand_to_step_rows(self, tmp_path):
        corpus = make_corpus(sizes=(5, 1, 1))
        path = tmp_path / "overlay.csv"
        count = export_overlay(bias_only_net(1.0), corpus["training"], path)
        assert count == 5
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 5 * 32
        first = lines[1].split(",")
        chart = corpus["training"]
        assert first[0] == chart.chart_id(0)
        assert first[1] == "0"
        assert float(first[2]) == chart.values[0, 0, 0]
        assert float(first[3]) == chart.values[0, 0, 1]

    def test_limit_hits_never_exported(self, tmp_path):
        corpus = make_corpus(sizes=(4, 1, 1), limit_all=True)
        path = tmp_path / "overlay.csv"
        assert export_overlay(bias_only_net(1.0), corpus["training"], path) == 0


class TestReporting:
    def _manual_run(self):
        genome = minimal_genome(np.random.default_rng(0))
        net = express(genome, standard_substrates()["template"])
        reports = {
            "training": FitnessReport.from_stats(20, 120, 0.0123456, 1.0),
            "validation": FitnessReport.from_stats(20, 80, 0.034, 0.99),
            "test": FitnessReport.from_stats(20, 70, -0.00123, 0.98),
        }
        run = SearchRun(run_id="demo", substrate="template", k=20)
        run.history = [
            GenerationRecord(0, 0.5, 0.1, 12, 3, 3.0),
            GenerationRecord(1, 0.6, 0.2, 15, 4, 3.003, validation_fitness=0.55),
        ]
        run.champions = [ChampionRecord(0, genome, reports["training"])]
        run.selected = SelectedPattern(0, genome, net, reports)
        return run

    def test_history_table_layout(self):
        table = history_table(self._manual_run())
        lines = table.splitlines()
        assert lines[0] == HISTORY_COLUMNS
        assert lines[1] == "0,0.5,0.1,12,3,3.0,"
        assert lines[2] == "1,0.6,0.2,15,4,3.003,0.55"

    def test_results_row_layout(self):
        run = self._manual_run()
        row = results_row(run, pattern_name="demo-pattern")
        lines = row.splitlines()
        assert lines[0] == "pattern,train20,valid20,test20"
        cells = lines[1].split(",")
        assert cells[0] == "demo-pattern"
        assert cells[1] == f"{0.0123456 * 1.0 * 100:.4g}"
        assert cells[3] == f"{-0.00123 * 0.98 * 100:.4g}"

    def test_results_row_needs_selection(self):
        run = SearchRun(run_id="x", substrate="template", k=20)
        with pytest.raises(ValueError):
            results_row(run)

    def test_write_run_outputs(self, tmp_path):
        run = self._manual_run()
        write_run_outputs(run, tmp_path)
        files = {p.name for p in tmp_path.iterdir()}
        assert files == {"history.csv", "pattern.cppn", "pattern.net",
                         "results_row.csv", "report.txt"}
        assert (tmp_path / "history.csv").read_text() == history_table(run)
        assert (tmp_path / "results_row.csv").read_text() == results_row(run)
        report = (tmp_path / "report.txt").read_text()
        for split in ("training", "validation", "test"):
            assert f"[{split}]" in report
        parsed = cppn.from_text((tmp_path / "pattern.cppn").read_text())
        assert parsed == run.selected.genome
