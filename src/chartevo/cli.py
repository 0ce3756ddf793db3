"""Command-line front end.

Subcommands cover the full pipeline: ``synth`` writes a synthetic price
directory, ``preprocess`` turns prices into a chart corpus, ``search``
evolves a pattern against a corpus, ``evaluate`` scores a saved pattern
on one split, and ``export-overlay`` dumps its matched charts for
plotting.  Options resolve as defaults < config file < command line.

Every command that writes an output directory drops a ``manifest.json``:
tool version, resolved configuration, seed, and sha256 digests of the
inputs, so any result can be traced back to what produced it.  ``search``
removes the previous run's files only once its own run has finished, and
writes its manifest last: a search refused for its inputs or failed during
evolution leaves an earlier run untouched, and a run directory with a
manifest holds one complete run.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import hashlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .evaluator import EvalConfig, fitness
from .neat import EvolutionConfig
from .preprocess import (
    INSTRUMENT_INDEX,
    PreprocessConfig,
    SplitRange,
    build_corpus,
    load_price_directory,
    write_price_directory,
)
from .search import SearchOptions, export_overlay, results_row, run_search, write_run_outputs
from .substrate import PhenotypeNetwork, express, phenotype_from_text, standard_substrates
from .synthdata import SynthConfig, generate, write_injections
from .types import (
    ConfigError,
    CorpusFormatError,
    Dataset,
    SPLIT_NAMES,
    atomic_open,
    load_dataset,
    save_dataset,
)
from . import cppn

log = logging.getLogger(__name__)

# named sub-streams of the root seed, so the same root never feeds two
# consumers the same entropy
EVOLUTION_STREAM = 1
DROPOUT_STREAM = 2
SYNTH_STREAM = 3

# what one search writes into its run directory, the manifest last
RUN_FILES = ("history.csv", "pattern.cppn", "pattern.net", "results_row.csv", "report.txt",
             "overlay.csv", "manifest.json")


def stream_seed(root: int, stream: int) -> int:
    return int(np.random.SeedSequence((root, stream)).generate_state(1, np.uint64)[0])


def _setup_logging(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def _config_sections(path, *names) -> list[dict]:
    """Copies of the named sections of the config file; a missing one is empty."""
    data = _load_config_file(path)
    sections = []
    for name in names:
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object, "
                              f"got {type(section).__name__}")
        sections.append(dict(section))
    return sections


# the values a config field of each plain type takes (a float also finite);
# the other fields are converted from JSON by their section's converter
PLAIN_FIELDS = {"int": ((int,), "an integer"), "float": ((int, float), "a finite number"),
                "bool": ((bool,), "true or false"), "str": ((str,), "a string")}


def _build_config(cls, name: str, section: dict, overrides: dict):
    """Merge config-file section ``name`` and CLI overrides onto dataclass defaults."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in merged.items():
        if kinds[key] not in PLAIN_FIELDS:
            continue
        allowed, what = PLAIN_FIELDS[kinds[key]]
        if type(value) not in allowed or (type(value) is float and not math.isfinite(value)):
            raise ConfigError(f"config section {name!r} has a value of the wrong type "
                              f"({key} must be {what}, got {value!r})")
    return cls(**merged)


def _parse_date(value) -> datetime.date:
    if isinstance(value, datetime.date):
        return value
    try:
        return datetime.date.fromisoformat(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad date {value!r}, expected YYYY-MM-DD") from exc


def _convert_preprocess_section(section: dict) -> dict:
    if "horizons" in section:
        horizons = section["horizons"]
        if not isinstance(horizons, list) or any(type(k) is not int for k in horizons):
            raise ConfigError(f"preprocess.horizons must be a list of integers, got {horizons!r}")
        section["horizons"] = tuple(horizons)
    if "split_ranges" in section:
        ranges = section["split_ranges"]
        if not isinstance(ranges, dict):
            raise ConfigError("preprocess.split_ranges must map split names to [start, end]")
        for name, span in ranges.items():
            if not isinstance(span, list) or len(span) != 2:
                raise ConfigError(f"preprocess.split_ranges.{name} must be [start, end], "
                                  f"got {span!r}")
        section["split_ranges"] = {
            name: SplitRange(_parse_date(start), _parse_date(end))
            for name, (start, end) in ranges.items()
        }
    return section


def _convert_synth_section(section: dict) -> dict:
    if "start_date" in section:
        section["start_date"] = _parse_date(section["start_date"])
    return section


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _root_seed(args, fell_back: bool) -> int | None:
    """The root seed a command's streams came from: ``--seed``; 0 when every
    stream fell back to root 0; None when the config file set some stream."""
    if args.seed is not None:
        return args.seed
    return 0 if fell_back else None


def _stream_seed_override(args, section: dict, key: str, stream: int) -> int | None:
    """Seed for config field ``key``: the stream of ``--seed``, else None when the
    config section sets it, else the stream of root 0."""
    if args.seed is not None:
        return stream_seed(args.seed, stream)
    return None if key in section else stream_seed(0, stream)


def write_manifest(out_dir, command: str, configs: dict, seed: int | None, inputs) -> None:
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "tool": "chartevo",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": {name: dataclasses.asdict(cfg) for name, cfg in configs.items()},
        "inputs": {str(p): _sha256(p) for p in inputs},
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with atomic_open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=datetime.date.isoformat)
        fh.write("\n")


def _corpus_files(directory) -> dict[str, str]:
    """Split name -> path of each ``<split>.npz`` present in ``directory``."""
    paths = {name: os.path.join(directory, f"{name}.npz") for name in SPLIT_NAMES}
    return {name: path for name, path in paths.items() if os.path.exists(path)}


def load_corpus(directory, splits=SPLIT_NAMES) -> dict[str, Dataset]:
    """Load those of ``splits`` that exist; raises if the directory has no split at all."""
    files = _corpus_files(directory)
    if not files:
        raise CorpusFormatError(f"{directory}: no corpus files found (expected <split>.npz)")
    return {name: load_dataset(path) for name, path in files.items() if name in splits}


def _cmd_synth(args) -> int:
    (section,) = _config_sections(args.config, "synth")
    section = _convert_synth_section(section)
    overrides = {
        "n_instruments": args.instruments,
        "n_days": args.days,
        "injection_rate": args.injection_rate,
        "drift": args.drift,
        "seed": _stream_seed_override(args, section, "seed", SYNTH_STREAM),
    }
    seed = _root_seed(args, "seed" not in section)
    config = _build_config(SynthConfig, "synth", section, overrides)
    series_list, injections = generate(config)
    write_manifest(args.out, "synth", {"synth": config}, seed, [])
    write_price_directory(args.out, series_list)
    write_injections(os.path.join(args.out, "injections.csv"), injections)
    print(f"wrote {len(series_list)} instruments, {len(injections)} injections to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    (section,) = _config_sections(args.config, "preprocess")
    section = _convert_preprocess_section(section)
    config = _build_config(PreprocessConfig, "preprocess", section, {})
    series_list = load_price_directory(args.prices)
    # each split is built, written and dropped before the next is built
    for name, span in config.split_ranges.items():
        (dataset,) = build_corpus(series_list, dataclasses.replace(
            config, split_ranges={name: span})).values()
        os.makedirs(args.out, exist_ok=True)
        save_dataset(os.path.join(args.out, f"{name}.npz"), dataset)
        print(f"{name}: {len(dataset)} charts")
        del dataset
    inputs = [os.path.join(args.prices, INSTRUMENT_INDEX)]
    write_manifest(args.out, "preprocess", {"preprocess": config}, None, inputs)
    return 0


def _search_configs(args) -> tuple[EvolutionConfig, EvalConfig, SearchOptions, int | None]:
    """The three search configs, then the root seed for the manifest."""
    evolution_section, eval_section, search_section = _config_sections(
        args.config, "evolution", "eval", "search")
    seed = _root_seed(args, "rng_seed" not in evolution_section and "rng_seed" not in eval_section)

    evolution_overrides = {
        "population_size": args.population,
        "generations": args.generations,
        "rng_seed": _stream_seed_override(args, evolution_section, "rng_seed", EVOLUTION_STREAM),
    }
    eval_overrides = {
        "k": args.k,
        "alpha": args.alpha,
        "rng_seed": _stream_seed_override(args, eval_section, "rng_seed", DROPOUT_STREAM),
    }
    options_overrides = {"substrate": args.substrate}
    evolution_config = _build_config(EvolutionConfig, "evolution", evolution_section,
                                     evolution_overrides)
    eval_config = _build_config(EvalConfig, "eval", eval_section, eval_overrides)
    options = _build_config(SearchOptions, "search", search_section, options_overrides)
    return evolution_config, eval_config, options, seed


def _cmd_search(args) -> int:
    evolution_config, eval_config, options, seed = _search_configs(args)
    corpus = load_corpus(args.corpus)
    run = run_search(
        corpus,
        evolution_config,
        eval_config,
        options,
        checkpoint_dir=os.path.join(args.out, "checkpoints"),
        resume_from=args.resume,
    )
    # a search refused or failed before this point leaves an earlier run untouched;
    # one whose writes fail must not leave that run's files beside its own.
    # checkpoints/ stays, since --resume may read from it
    for name in RUN_FILES:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.out, name))
    write_run_outputs(run, args.out)
    overlay_split = "test" if "test" in corpus else "training"
    count = export_overlay(
        run.selected.network, corpus[overlay_split], os.path.join(args.out, "overlay.csv")
    )
    log.info("overlay: %d matched charts on %s", count, overlay_split)
    write_manifest(
        args.out,
        "search",
        {"evolution": evolution_config, "eval": eval_config, "search": options},
        seed,
        list(_corpus_files(args.corpus).values()),
    )
    print(results_row(run), end="")
    return 0


def _load_pattern(args) -> tuple[Dataset, PhenotypeNetwork]:
    """The ``args.split`` charts of ``args.corpus`` and the network of
    ``args.pattern``, checked to fit them."""
    corpus = load_corpus(args.corpus, (args.split,))
    if args.split not in corpus:
        raise ConfigError(f"corpus has no {args.split!r} split")
    dataset = corpus[args.split]
    with open(args.pattern, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        if text.startswith(cppn.GENOME_MAGIC):
            net = express(cppn.from_text(text), standard_substrates()[args.substrate])
        else:
            net = phenotype_from_text(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse pattern file {args.pattern}: {exc}") from exc
    width = math.prod(dataset.values.shape[1:])
    if net.layer_sizes[0] != width:
        raise ConfigError(f"pattern {args.pattern} expects {net.layer_sizes[0]} inputs, "
                          f"but the {dataset.split} charts have {width} values")
    return dataset, net


def _cmd_evaluate(args) -> int:
    (section,) = _config_sections(args.config, "eval")
    config = _build_config(EvalConfig, "eval", section,
                           {"k": args.k, "alpha": args.alpha, "dropout_enabled": False})
    dataset, net = _load_pattern(args)
    if config.k not in dataset.horizons:
        raise ConfigError(f"k={config.k} is not a horizon of the {dataset.split} split "
                          f"(its horizons are {', '.join(map(str, dataset.horizons))})")
    report = fitness(net, dataset, config)
    sys.stdout.write(report.to_text())
    if args.out:
        with atomic_open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_text())
    return 0


def _cmd_export_overlay(args) -> int:
    _load_config_file(args.config)  # no section applies, but a bad file is still refused
    dataset, net = _load_pattern(args)
    count = export_overlay(net, dataset, args.out)
    print(f"{count} matched charts written to {args.out}")
    return 0


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartevo",
        description="Evolve chart-pattern discriminants over price corpora.",
    )
    parser.add_argument("--version", action="version", version=f"chartevo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=_seed, help="root seed for all randomness (>= 0)")
        p.add_argument("--verbose", action="store_true", help="log progress at INFO")

    p = sub.add_parser("synth", help="generate a synthetic price directory")
    common(p)
    p.add_argument("--out", required=True, help="output price directory")
    p.add_argument("--instruments", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--injection-rate", dest="injection_rate", type=float)
    p.add_argument("--drift", type=float)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="build a chart corpus from prices")
    common(p)
    p.add_argument("--prices", required=True, help="price directory with manifest.json")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("search", help="run the evolutionary pattern search")
    common(p)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output run directory")
    p.add_argument("--substrate", choices=sorted(standard_substrates()))
    p.add_argument("--k", type=int, help="return horizon in trading days")
    p.add_argument("--alpha", type=float, help="match-count penalty scale")
    p.add_argument("--population", type=int)
    p.add_argument("--generations", type=int)
    p.add_argument("--resume", help="checkpoint file to continue from")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("evaluate", help="score a saved pattern on one split")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--pattern", required=True, help=".net phenotype or .cppn genome file")
    p.add_argument("--substrate", default="network", choices=sorted(standard_substrates()),
                   help="used when --pattern is a genome")
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--k", type=int, help="return horizon in trading days")
    p.add_argument("--alpha", type=float, help="match-count penalty scale")
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("export-overlay", help="dump a pattern's matched charts as CSV")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--substrate", default="network", choices=sorted(standard_substrates()),
                   help="used when --pattern is a genome")
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_overlay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(getattr(args, "verbose", False))
    try:
        return args.func(args)
    except (ConfigError, CorpusFormatError, OSError) as exc:
        print(f"chartevo: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
