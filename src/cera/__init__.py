"""Corpus scoring and sector analysis toolchain.

Mines keyword frequencies for ten disclosure criteria from report texts,
rates them on a banded scale, and analyzes the resulting scorecards across
industry sectors with one-way ANOVA, multivariate discriminant analysis,
and latent-construct covariance models.

The package defines only ``__version__``; import each name from its module,
for example ``from cera.miner import load_corpus``.
"""

__version__ = "0.1.0"
