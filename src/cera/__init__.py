"""Corpus scoring and sector analysis toolchain.

Mines keyword frequencies for ten disclosure criteria from report texts,
rates them on a banded scale, and analyzes the resulting scorecards across
industry sectors with one-way ANOVA, multivariate discriminant analysis,
and latent-construct covariance models.
"""

from .errors import (
    CeraError,
    ConditioningError,
    DegenerateVarianceError,
    IdentificationError,
    IngestionError,
    ParameterBoundsError,
    PreconditionError,
    ValidationError,
)
from .miner import (
    Document,
    FrequencyTable,
    KeywordFile,
    Sector,
    build_sorted_keyword_file,
    load_corpus,
    mine_binary,
    mine_linear,
)
from .scoring import (
    Criterion,
    ScoreCard,
    build_scorecards,
    default_criteria,
    filter_sample,
    rate_frequency,
    sector_composition,
)
from .anova import anova_table, one_way_anova
from .mda import run_mda, wilks_tests
from .sem import covariance_from_cards, default_model, fit_model, ml_discrepancy, parse_model

__version__ = "0.1.0"

__all__ = [
    "CeraError",
    "ConditioningError",
    "DegenerateVarianceError",
    "IdentificationError",
    "IngestionError",
    "ParameterBoundsError",
    "PreconditionError",
    "ValidationError",
    "Document",
    "FrequencyTable",
    "KeywordFile",
    "Sector",
    "build_sorted_keyword_file",
    "load_corpus",
    "mine_binary",
    "mine_linear",
    "Criterion",
    "ScoreCard",
    "build_scorecards",
    "default_criteria",
    "filter_sample",
    "rate_frequency",
    "sector_composition",
    "anova_table",
    "one_way_anova",
    "run_mda",
    "wilks_tests",
    "covariance_from_cards",
    "default_model",
    "fit_model",
    "ml_discrepancy",
    "parse_model",
    "__version__",
]
