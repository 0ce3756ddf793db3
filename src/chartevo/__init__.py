"""chartevo: neuroevolution search for profitable stock chart patterns.

Genomes are compact generative networks queried over a layered geometry
to produce dense feed-forward discriminants; the discriminants flag
chart windows, and evolution rewards flags that precede high forward
returns without firing on everything.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .types import (  # noqa: F401
    ConfigError,
    CorpusFormatError,
    Dataset,
    FitnessReport,
    PriceSeries,
    load_dataset,
    save_dataset,
)
from .preprocess import (  # noqa: F401
    PreprocessConfig,
    SplitRange,
    build_corpus,
    charts_from_series,
    default_split_ranges,
)
from .cppn import CppnGenome, minimal_genome  # noqa: F401
from .neat import Evolution, EvolutionConfig  # noqa: F401
from .substrate import (  # noqa: F401
    Grid,
    PhenotypeNetwork,
    SubstrateSpec,
    express,
    standard_substrates,
)
from .evaluator import DatasetTensors, EvalConfig, evaluate_population, fitness  # noqa: F401
from .search import SearchOptions, SearchRun, run_search  # noqa: F401
from .synthdata import SynthConfig, generate  # noqa: F401
