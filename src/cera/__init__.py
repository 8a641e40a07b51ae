"""Corpus scoring and sector analysis toolchain.

Mines keyword frequencies for ten disclosure criteria from report texts,
rates them on a banded scale, and analyzes the resulting scorecards across
industry sectors with one-way ANOVA, multivariate discriminant analysis,
and latent-construct covariance models.

Exported names are imported from their modules on first access (PEP 562),
so importing the package loads only the modules a caller uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Module -> the names the package re-exports from it.
_EXPORTS = {
    "errors": (
        "CeraError",
        "ConditioningError",
        "IdentificationError",
        "IngestionError",
        "ParameterBoundsError",
        "ValidationError",
    ),
    "miner": (
        "Document",
        "FrequencyTable",
        "KeywordFile",
        "Sector",
        "build_sorted_keyword_file",
        "load_corpus",
        "mine_binary",
        "mine_linear",
    ),
    "scoring": (
        "Criterion",
        "ScoreCard",
        "build_scorecards",
        "default_criteria",
        "filter_sample",
        "rate_frequency",
        "sector_composition",
    ),
    "anova": ("anova_table", "one_way_anova"),
    "mda": ("run_mda", "wilks_tests"),
    "sem": ("covariance_from_cards", "default_model", "fit_model", "ml_discrepancy", "parse_model"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
