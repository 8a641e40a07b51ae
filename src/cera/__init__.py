"""Corpus scoring and sector analysis toolchain.

Mines keyword frequencies for ten disclosure criteria from report texts,
rates them on a banded scale, and analyzes the resulting scorecards across
industry sectors with one-way ANOVA, multivariate discriminant analysis,
and latent-construct covariance models.

The package defines only ``__version__``, ``ELIMINATION_RULES`` and ``DATA``; import each
other name from its module, for example ``from cera.miner import load_corpus``.
"""

from pathlib import Path

__version__ = "0.1.0"

# Sample-filter rules of ``scoring.filter_sample``, the default first, and the directory of
# the shipped data files. They live here so the command-line parser can offer them without
# importing ``scoring``.
ELIMINATION_RULES = ("conjunction", "disjunction")
DATA = Path(__file__).parent / "data"
