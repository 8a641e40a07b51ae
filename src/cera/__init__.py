"""Corpus scoring and sector analysis toolchain.

Mines keyword frequencies for ten disclosure criteria from report texts,
rates them on a banded scale, and analyzes the resulting scorecards across
industry sectors with one-way ANOVA, multivariate discriminant analysis,
and latent-construct covariance models.

The package defines only ``__version__`` and ``ELIMINATION_RULES``; import
each other name from its module, for example ``from cera.miner import load_corpus``.
"""

__version__ = "0.1.0"

# Sample-filter rules of ``scoring.filter_sample``, the default first. They live
# here so the command-line parser can offer them without importing ``scoring``.
ELIMINATION_RULES = ("conjunction", "disjunction")
