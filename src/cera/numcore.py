"""Dense linear algebra and distribution tails for the analysis modules.

Problem sizes here are tiny (at most 10x10: one row/column per scoring
criterion), so everything is a direct dense method. Matrices are plain
``numpy`` arrays; anything array-like is accepted and converted.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.special import betainc, gammaincc

from .errors import ConditioningError, ValidationError

# Symmetry tolerance used by consumers of symmetric matrices.
SYMMETRY_RTOL = 1e-10


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def check_symmetric(m, name: str = "matrix") -> np.ndarray:
    """Validate |a_ij - a_ji| <= SYMMETRY_RTOL * max(1, |a_ij|) entrywise."""
    a = as_square_matrix(m, name)
    tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(a))
    if not np.all(np.abs(a - a.T) <= tol):
        raise ValidationError(f"{name} is not symmetric within tolerance")
    return a


def generalized_eigen(b, w) -> list[tuple[float, np.ndarray]]:
    """Solve B v = lambda W v for symmetric B and symmetric positive-definite W.

    W is reduced by its Cholesky factor to a standard symmetric eigenproblem.
    Returns (eigenvalue, vector) pairs sorted by eigenvalue descending, with
    each vector normalized so v' W v = 1 and its first nonzero component
    positive.
    """
    b = check_symmetric(b, "b")
    w = check_symmetric(w, "w")
    if b.shape != w.shape:
        raise ValidationError(f"dimension mismatch: b is {b.shape}, w is {w.shape}")
    try:
        chol = np.linalg.cholesky(w)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("w is not positive definite") from exc
    # C = L^-1 B L^-T shares eigenvalues with the pencil (B, W).
    tmp = scipy.linalg.solve_triangular(chol, b, lower=True)
    c = scipy.linalg.solve_triangular(chol, tmp.T, lower=True)
    c = 0.5 * (c + c.T)
    values, vectors = np.linalg.eigh(c)
    out: list[tuple[float, np.ndarray]] = []
    for idx in np.argsort(values)[::-1]:
        u = vectors[:, idx]
        v = scipy.linalg.solve_triangular(chol, u, lower=True, trans="T")
        nonzero = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
        if nonzero.size and v[nonzero[0]] < 0:
            v = -v
        out.append((float(values[idx]), v))
    return out


def _check_df(df, name: str) -> int:
    if not float(df).is_integer() or df <= 0:
        raise ValidationError(f"{name} must be a positive integer, got {df!r}")
    return int(df)


def chisq_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) for a chi-square variable with ``df`` degrees of freedom.

    Computed as the regularized upper incomplete gamma Q(df/2, x/2); absolute
    error below 1e-10.
    """
    df = _check_df(df, "df")
    if x < 0:
        raise ValidationError(f"x must be nonnegative, got {x}")
    return float(gammaincc(df / 2.0, x / 2.0))


def f_sf(x: float, d1: float, d2: float) -> float:
    """Upper tail P(F > x) for an F variable with (d1, d2) degrees of freedom.

    Computed as the regularized incomplete beta I_{d2/(d2+d1*x)}(d2/2, d1/2);
    absolute error below 1e-10. Degrees of freedom may be fractional (some
    approximations, e.g. the F form of Box's M, produce non-integer d2) but
    must be positive and finite.
    """
    for name, df in (("d1", d1), ("d2", d2)):
        if not math.isfinite(df) or df <= 0:
            raise ValidationError(f"{name} must be positive and finite, got {df!r}")
    if x < 0:
        raise ValidationError(f"x must be nonnegative, got {x}")
    return float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x)))
