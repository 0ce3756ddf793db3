"""End-to-end pattern search: evolve genomes, track champions, pick one.

Per generation every genome is expressed onto the substrate and scored
on the training split (with dropout, if enabled).  The best organism of
each generation is recorded as a champion.  After the last generation
the distinct champions are re-scored without dropout on the validation
split and the best one becomes the selected pattern; only that single
network is ever evaluated on the test split.

All randomness flows from the evolution config's seed plus the eval
config's dropout seed, so a run is reproducible byte-for-byte: history
tables and serialized genomes from two runs with the same seeds are
identical files.
"""
from __future__ import annotations

import itertools
import logging
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import cppn
from .evaluator import DatasetTensors, EvalConfig, evaluate_population, fitness, forward_output
from .neat import CHECKPOINT_ERRORS, Evolution, EvolutionConfig, load_checkpoint, save_checkpoint
from .substrate import (
    PhenotypeNetwork,
    SubstrateSpec,
    express,
    phenotype_to_text,
    standard_substrates,
)
from .types import ConfigError, Dataset, FitnessReport

log = logging.getLogger(__name__)

ZERO_FITNESS_PATIENCE = 20


@dataclass(frozen=True)
class SearchOptions:
    substrate: str = "network"
    activation: str = "relu"
    scaling: str = "he"
    validate_every_generation: bool = False
    checkpoint_every: int = 0  # generations between checkpoints; 0 disables

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_match_count: int
    species_count: int
    threshold: float
    validation_fitness: float | None = None


@dataclass(frozen=True)
class ChampionRecord:
    generation: int
    genome: cppn.CppnGenome
    train_report: FitnessReport


@dataclass(frozen=True)
class SelectedPattern:
    generation: int
    genome: cppn.CppnGenome
    network: PhenotypeNetwork
    reports: Mapping[str, FitnessReport]


@dataclass
class SearchRun:
    run_id: str
    substrate: str
    k: int
    history: list[GenerationRecord] = field(default_factory=list)
    champions: list[ChampionRecord] = field(default_factory=list)
    selected: SelectedPattern | None = None


def _substrate_by_name(name: str) -> SubstrateSpec:
    table = standard_substrates()
    if name not in table:
        raise ConfigError(f"unknown substrate {name!r}; have {sorted(table)}")
    return table[name]


def run_search(
    corpus: Mapping[str, Dataset],
    evolution_config: EvolutionConfig,
    eval_config: EvalConfig,
    options: SearchOptions = SearchOptions(),
    *,
    checkpoint_dir=None,
    resume_from=None,
) -> SearchRun:
    spec = _substrate_by_name(options.substrate)
    if "training" not in corpus:
        raise ConfigError("corpus has no training split")
    tensors: dict[str, DatasetTensors] = {}
    for name, dataset in corpus.items():
        if len(dataset):
            tensors[name] = DatasetTensors.from_dataset(dataset, eval_config.k)
    if "training" not in tensors or len(tensors["training"]) == 0:
        raise ConfigError(f"training split has no usable charts at k={eval_config.k}")

    # dropout (when enabled at all) applies to training evaluation only
    train_config = eval_config
    clean_config = replace(eval_config, dropout_enabled=False)

    run = SearchRun(
        run_id=f"{options.substrate}-k{eval_config.k}-s{evolution_config.rng_seed}",
        substrate=options.substrate,
        k=eval_config.k,
    )
    configs = {"evolution": asdict(evolution_config), "eval": asdict(eval_config),
               "search": asdict(options)}
    if resume_from is not None:
        evo = _resume(run, resume_from, evolution_config, configs)
        log.info("resumed run %s at generation %d", run.run_id, evo.generation)
    else:
        evo = Evolution(evolution_config)

    total_generations = max(1, evolution_config.generations)
    zero_streak = sum(1 for _ in itertools.takewhile(_matched_nothing, reversed(run.history)))
    for g in range(evo.generation, total_generations):
        nets = [
            express(genome, spec, scaling=options.scaling, activation=options.activation)
            for genome in evo.population
        ]
        reports = evaluate_population(nets, tensors["training"], train_config, generation=g)
        fits = [r.fitness for r in reports]
        best = max(range(len(fits)), key=lambda i: (fits[i], -i))
        run.champions.append(ChampionRecord(g, evo.population[best], reports[best]))

        validation_fitness = None
        if options.validate_every_generation and "validation" in tensors:
            validation_fitness = fitness(nets[best], tensors["validation"], clean_config).fitness

        stats = evo.advance(fits, reproduce_population=g < total_generations - 1)
        run.history.append(
            GenerationRecord(
                generation=g,
                best_fitness=fits[best],
                mean_fitness=float(sum(fits) / len(fits)),
                best_match_count=reports[best].match_count,
                species_count=stats.species_count,
                threshold=stats.threshold,
                validation_fitness=validation_fitness,
            )
        )
        record = run.history[-1]
        log.info(
            "generation %d: best %.6g (matches %d), mean %.6g, %d species",
            g, record.best_fitness, record.best_match_count, record.mean_fitness,
            record.species_count,
        )
        zero_streak = zero_streak + 1 if _matched_nothing(record) else 0
        if zero_streak == ZERO_FITNESS_PATIENCE:
            log.warning(
                "no organism has matched anything for %d consecutive generations "
                "(through generation %d); the corpus may be unmatchable or the penalty too harsh",
                zero_streak, g,
            )
        if (
            checkpoint_dir is not None
            and options.checkpoint_every
            and evo.generation == g + 1
            and (g + 1) % options.checkpoint_every == 0
        ):
            os.makedirs(checkpoint_dir, exist_ok=True)
            path = os.path.join(checkpoint_dir, f"checkpoint_g{g + 1:04d}.json")
            save_checkpoint(path, evo, extra=_run_extra(run, configs))

    run.selected = _select_pattern(run, spec, tensors, clean_config, options)
    return run


def _select_pattern(
    run: SearchRun,
    spec: SubstrateSpec,
    tensors: Mapping[str, DatasetTensors],
    clean_config: EvalConfig,
    options: SearchOptions,
) -> SelectedPattern:
    """Re-score distinct champions on validation, keep the best, test it once."""
    distinct: dict[tuple, ChampionRecord] = {}
    for champ in run.champions:
        distinct.setdefault(champ.genome.signature(), champ)
    candidates = list(distinct.values())
    nets = {
        id(c): express(c.genome, spec, scaling=options.scaling, activation=options.activation)
        for c in candidates
    }
    if "validation" in tensors:
        scored = [
            (fitness(nets[id(c)], tensors["validation"], clean_config).fitness, c.generation, c)
            for c in candidates
        ]
        best_score = max(s[0] for s in scored)
        chosen = min((c for s, _, c in scored if s == best_score), key=lambda c: c.generation)
    else:
        log.warning("no validation split; selecting on recorded training fitness")
        best_score = max(c.train_report.fitness for c in candidates)
        chosen = min(
            (c for c in candidates if c.train_report.fitness == best_score),
            key=lambda c: c.generation,
        )
    net = nets[id(chosen)]
    reports = {name: fitness(net, tensors[name], clean_config) for name in tensors}
    return SelectedPattern(chosen.generation, chosen.genome, net, reports)


def _matched_nothing(record: GenerationRecord) -> bool:
    """Every organism scored zero: best is the maximum and mean the mean of the scores."""
    return record.best_fitness == 0.0 and record.mean_fitness == 0.0


def _champion_to_jsonable(champ: ChampionRecord) -> dict:
    r = champ.train_report
    return {
        "generation": champ.generation,
        "genome": cppn.to_text(champ.genome),
        "train_report": [r.k, r.match_count, r.mean_log_return, r.penalty, r.fitness],
    }


def _champion_from_jsonable(data: dict) -> ChampionRecord:
    k, count, mean, pen, fit = data["train_report"]
    return ChampionRecord(
        int(data["generation"]),
        cppn.from_text(data["genome"]),
        FitnessReport(int(k), int(count), float(mean), float(pen), float(fit)),
    )


def _run_extra(run: SearchRun, configs: dict) -> dict:
    return {
        "config": configs,
        "history": [asdict(r) for r in run.history],
        "champions": [_champion_to_jsonable(c) for c in run.champions],
    }


def _resume(run: SearchRun, path, evolution_config: EvolutionConfig, configs: dict) -> Evolution:
    """Load a checkpoint into ``run``; refuse one made under any other configuration."""
    evo, extra = load_checkpoint(path, evolution_config)
    try:
        saved = extra["config"]
        changed = [
            (f"{section}.{name}", saved[section][name], value)
            for section, fields in configs.items()
            for name, value in fields.items()
            if saved[section][name] != value
        ]
        run.history = [GenerationRecord(**r) for r in extra["history"]]
        run.champions = [_champion_from_jsonable(c) for c in extra["champions"]]
    except CHECKPOINT_ERRORS as exc:
        raise ConfigError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    if changed:
        name, old, new = changed[0]
        raise ConfigError(f"{path}: checkpoint was made with {name}={old!r}, "
                          f"this run has {new!r}")
    return evo


HISTORY_COLUMNS = (
    "generation,best_fitness,mean_fitness,best_match_count,species_count,threshold,validation_fitness"
)


def history_table(run: SearchRun) -> str:
    """The per-generation history as CSV; floats use repr so reruns diff clean."""
    lines = [HISTORY_COLUMNS]
    for r in run.history:
        val = "" if r.validation_fitness is None else repr(r.validation_fitness)
        lines.append(
            f"{r.generation},{r.best_fitness!r},{r.mean_fitness!r},"
            f"{r.best_match_count},{r.species_count},{r.threshold!r},{val}"
        )
    return "\n".join(lines) + "\n"


def results_row(run: SearchRun, pattern_name: str | None = None) -> str:
    """One result line in the summary-table layout; values are fitness x100.

    Columns: pattern name, then training/validation/test at the run's
    horizon, each scaled by 100 and printed to four significant digits.
    """
    if run.selected is None:
        raise ValueError("run has no selected pattern yet")
    k = run.k
    name = pattern_name if pattern_name is not None else run.run_id
    header = f"pattern,train{k},valid{k},test{k}"
    cells = [name]
    for split in ("training", "validation", "test"):
        report = run.selected.reports.get(split)
        cells.append("" if report is None else f"{report.fitness * 100.0:.4g}")
    return header + "\n" + ",".join(cells) + "\n"


def export_overlay(net: PhenotypeNetwork, dataset: Dataset, path) -> int:
    """Write matched charts in long form for plotting; returns the match count.

    Columns: chart id, step index, then the two chart channels (the
    change-to-last-day column carries the chart's 1/32 scaling).  A
    pattern that matches nothing still produces the header line.
    """
    n, steps, channels = dataset.values.shape
    matched = forward_output(net, dataset.values.reshape(n, steps * channels)) > 0.0
    rows = np.flatnonzero(matched & ~dataset.limit_hit)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("chart_id,step,daily_change,change_to_last_day\n")
        for row in rows.tolist():
            chart_id = dataset.chart_id(row)
            fh.writelines(f"{chart_id},{step},{daily!r},{to_last!r}\n"
                          for step, (daily, to_last) in enumerate(dataset.values[row].tolist()))
    return len(rows)


def write_run_outputs(run: SearchRun, out_dir) -> None:
    """history.csv, pattern.cppn, pattern.net, report.txt, results_row.csv."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "history.csv"), "w", encoding="utf-8") as fh:
        fh.write(history_table(run))
    if run.selected is None:
        return
    with open(os.path.join(out_dir, "pattern.cppn"), "w", encoding="utf-8") as fh:
        fh.write(cppn.to_text(run.selected.genome))
    with open(os.path.join(out_dir, "pattern.net"), "w", encoding="utf-8") as fh:
        fh.write(phenotype_to_text(run.selected.network))
    with open(os.path.join(out_dir, "results_row.csv"), "w", encoding="utf-8") as fh:
        fh.write(results_row(run))
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"run {run.run_id}\nselected generation {run.selected.generation}\n\n")
        for split in ("training", "validation", "test"):
            report = run.selected.reports.get(split)
            if report is not None:
                fh.write(f"[{split}]\n{report.to_text()}\n")
