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
identical files.  The checkpoint format, its checks and resume live here too.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import cppn
from .evaluator import (
    DatasetTensors,
    EvalConfig,
    evaluate_population,
    fitness,
    forward_output,  # noqa: F401  (bench/spans.py patches this name here)
    positive_outputs,
)
from .neat import Evolution, EvolutionConfig, evolution_from_state, evolution_state
from .substrate import (
    PhenotypeNetwork,
    SubstrateSpec,
    express,
    phenotype_to_text,
    standard_substrates,
)
from .types import ConfigError, Dataset, FitnessReport, atomic_open

log = logging.getLogger(__name__)

ZERO_FITNESS_PATIENCE = 20

CHECKPOINT_MAGIC = "chartevo-checkpoint"
CHECKPOINT_VERSION = 3
CHECKPOINT_MEMBERS = {"format", "version", "config", "corpus", "evolution", "history", "champions"}
# what reading a well-formed JSON document with wrong keys or values can raise
CHECKPOINT_ERRORS = (AttributeError, LookupError, OverflowError, TypeError, ValueError)


@dataclass(frozen=True)
class SearchOptions:
    substrate: str = "network"
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
        width = math.prod(dataset.values.shape[1:])
        if width != spec.layer_sizes[0]:
            raise ConfigError(f"{name} charts have {width} values, but the {spec.name} "
                              f"substrate expects {spec.layer_sizes[0]} inputs")
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
    configs = {"evolution": evolution_config, "eval": eval_config, "search": options}
    if resume_from is not None:
        evo, run.history, run.champions = load_checkpoint(resume_from, configs, tensors)
        log.info("resumed run %s at generation %d", run.run_id, evo.generation)
    else:
        evo = Evolution.start(evolution_config)

    total_generations = max(1, evolution_config.generations)
    zero_streak = sum(1 for _ in itertools.takewhile(_matched_nothing, reversed(run.history)))
    for g in range(evo.generation, total_generations):
        nets = [express(genome, spec) for genome in evo.population]
        reports = evaluate_population(nets, tensors["training"], train_config, generation=g)
        fits = [r.fitness for r in reports]
        best = max(range(len(fits)), key=lambda i: (fits[i], -i))
        run.champions.append(ChampionRecord(g, evo.population[best], reports[best]))

        validation_fitness = None
        if options.validate_every_generation and "validation" in tensors:
            validation_fitness = fitness(nets[best], tensors["validation"], clean_config).fitness
        # free this generation's phenotypes before the next one is expressed
        del nets

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
            save_checkpoint(path, evo, run, configs, tensors)

    run.selected = _select_pattern(run, spec, tensors, clean_config)
    return run


def _select_pattern(
    run: SearchRun,
    spec: SubstrateSpec,
    tensors: Mapping[str, DatasetTensors],
    clean_config: EvalConfig,
) -> SelectedPattern:
    """Re-score distinct champions on validation, keep the best, test it once.

    Champions are walked in generation order, the first of each signature
    scored; a strict ``>`` keeps the earliest generation among equal scores.
    """
    validation = tensors.get("validation")
    if validation is None:
        log.warning("no validation split; selecting on recorded training fitness")
    seen: set[tuple] = set()
    best = None  # (score, champion, network) of the best champion so far
    for champ in run.champions:
        signature = champ.genome.signature()
        if signature in seen:
            continue
        seen.add(signature)
        candidate = express(champ.genome, spec)
        score = (champ.train_report.fitness if validation is None
                 else fitness(candidate, validation, clean_config).fitness)
        if best is None or score > best[0]:
            best = (score, champ, candidate)
    _, chosen, net = best
    reports = {name: fitness(net, tensors[name], clean_config) for name in tensors}
    return SelectedPattern(chosen.generation, chosen.genome, net, reports)


def _matched_nothing(record: GenerationRecord) -> bool:
    """Every organism scored zero: best is the maximum and mean the mean of the scores."""
    return record.best_fitness == 0.0 and record.mean_fitness == 0.0


def _corpus_digests(tensors: Mapping[str, DatasetTensors]) -> dict[str, str]:
    """sha256 of each scored split's charts, returns and limit flags at the run's horizon."""
    digests = {}
    for name, t in tensors.items():
        digest = hashlib.sha256()
        for column in (t.X, t.returns, t.limit_hit):
            digest.update(column.tobytes())
        digests[name] = digest.hexdigest()
    return digests


def save_checkpoint(path, evo: Evolution, run: SearchRun, configs: Mapping,
                    tensors: Mapping[str, DatasetTensors]) -> None:
    """Write everything a resume needs as one JSON document ending in a newline, atomically.

    ``configs`` maps section names to the run's config dataclasses;
    ``tensors`` are the scored splits, stored as digests only.
    """
    document = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": {section: asdict(config) for section, config in configs.items()},
        "corpus": _corpus_digests(tensors),
        "evolution": evolution_state(evo),
        "history": [asdict(r) for r in run.history],
        "champions": [{"generation": c.generation, "genome": cppn.to_text(c.genome),
                       "train_report": asdict(c.train_report)} for c in run.champions],
    }
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.write("\n")


def load_checkpoint(
    path, configs: Mapping, tensors: Mapping[str, DatasetTensors]
) -> tuple[Evolution, list[GenerationRecord], list[ChampionRecord]]:
    """Read a checkpoint back as (evolution, history, champions).

    Anything but a complete checkpoint of this version, made under the
    same ``configs`` on the same ``tensors``, raises :class:`ConfigError`.
    The writer always ends the document with a newline, so a file cut
    just before it is refused too.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not text.endswith("\n"):
            raise ValueError("no final newline (file truncated?)")
        document = json.loads(text)
        if not isinstance(document, dict) or document.get("format") != CHECKPOINT_MAGIC:
            raise ConfigError("not a chartevo checkpoint")
        if document.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"checkpoint version {document.get('version')!r} is not supported "
                              f"(this chartevo reads version {CHECKPOINT_VERSION})")
        if set(document) != CHECKPOINT_MEMBERS:
            raise ValueError(f"members are {sorted(document)}, expected {sorted(CHECKPOINT_MEMBERS)}")
        for section, config in configs.items():
            fields = asdict(config)
            for name, saved in document["config"][section].items():
                if name not in fields:
                    raise ConfigError(f"checkpoint was made with {section}.{name}={saved!r}, "
                                      f"which this chartevo does not have")
            for name, value in fields.items():
                saved = document["config"][section][name]
                if saved != value:
                    raise ConfigError(f"checkpoint was made with {section}.{name}={saved!r}, "
                                      f"this run has {value!r}")
        digests = _corpus_digests(tensors)
        for name in sorted(set(digests) | set(document["corpus"])):
            if document["corpus"].get(name) != digests.get(name):
                raise ConfigError(f"checkpoint was made on a different {name} split")
        evo = evolution_from_state(document["evolution"], configs["evolution"])
        history = [GenerationRecord(**r) for r in document["history"]]
        champions = [
            ChampionRecord(int(c["generation"]), cppn.from_text(c["genome"]),
                           FitnessReport(**c["train_report"]))
            for c in document["champions"]
        ]
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except CHECKPOINT_ERRORS as exc:
        raise ConfigError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    return evo, history, champions


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
    matched = positive_outputs(net, dataset.values.reshape(n, steps * channels))
    rows = np.flatnonzero(matched & ~dataset.limit_hit)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("chart_id,step,daily_change,change_to_last_day\n")
        for row in rows.tolist():
            chart_id = dataset.chart_id(row)
            fh.writelines(f"{chart_id},{step},{daily!r},{to_last!r}\n"
                          for step, (daily, to_last) in enumerate(dataset.values[row].tolist()))
    return len(rows)


def write_run_outputs(run: SearchRun, out_dir) -> None:
    """history.csv, then with a selected pattern pattern.cppn, pattern.net,
    results_row.csv and report.txt; each atomically."""
    files = {"history.csv": history_table(run)}
    if (selected := run.selected) is not None:
        reports = "".join(f"[{split}]\n{selected.reports[split].to_text()}\n"
                          for split in ("training", "validation", "test") if split in selected.reports)
        files.update({
            "pattern.cppn": cppn.to_text(selected.genome),
            "pattern.net": phenotype_to_text(selected.network),
            "results_row.csv": results_row(run),
            "report.txt": f"run {run.run_id}\nselected generation {selected.generation}\n\n{reports}",
        })
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with atomic_open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
