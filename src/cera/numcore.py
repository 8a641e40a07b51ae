"""Dense linear algebra and distribution tails for the analysis modules.

Problem sizes here are tiny (at most 10x10: one row/column per scoring
criterion), so everything is a direct dense method. Matrices are plain
``numpy`` arrays; anything array-like is accepted and converted. numpy is
imported by the matrix functions only, so the distribution tails (all that
ANOVA needs) load without it.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .errors import ConditioningError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

# Symmetry tolerance used by consumers of symmetric matrices.
SYMMETRY_RTOL = 1e-10

# Series and continued fractions stop when a term changes the sum by less
# than this relative amount; _TINY keeps modified-Lentz denominators off
# zero, and _MAX_TERMS ends the loop on a NaN argument.
_EPS = sys.float_info.epsilon
_TINY = 1e-300
_MAX_TERMS = 100_000


def check_symmetric(m, name: str = "matrix") -> np.ndarray:
    """Validate |a_ij - a_ji| <= SYMMETRY_RTOL * max(1, |a_ij|) entrywise."""
    import numpy as np

    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
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
    import numpy as np

    b = check_symmetric(b, "b")
    w = check_symmetric(w, "w")
    if b.shape != w.shape:
        raise ValidationError(f"dimension mismatch: b is {b.shape}, w is {w.shape}")
    try:
        chol = np.linalg.cholesky(w)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("w is not positive definite") from exc
    # C = L^-1 B L^-T shares eigenvalues with the pencil (B, W).
    tmp = np.linalg.solve(chol, b)
    c = np.linalg.solve(chol, tmp.T)
    c = 0.5 * (c + c.T)
    values, vectors = np.linalg.eigh(c)
    out: list[tuple[float, np.ndarray]] = []
    for idx in np.argsort(values)[::-1]:
        u = vectors[:, idx]
        v = np.linalg.solve(chol.T, u)
        nonzero = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
        if nonzero.size and v[nonzero[0]] < 0:
            v = -v
        out.append((float(values[idx]), v))
    return out


def _lentz_fix(value: float) -> float:
    return value if abs(value) >= _TINY else _TINY


def _upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) (Numerical Recipes 6.2).

    Below x = a + 1 the series for P(a, x) converges fast and Q = 1 - P;
    above it the continued fraction for Q, evaluated by modified Lentz.
    """
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _MAX_TERMS):
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        return 1.0 - total * front
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / _lentz_fix(an * d + b)
        c = _lentz_fix(b + an / c)
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    return front * h


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), modified Lentz (Numerical Recipes 6.4)."""
    c = 1.0
    d = 1.0 / _lentz_fix(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _MAX_TERMS):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / _lentz_fix(1.0 + numerator * d)
            c = _lentz_fix(1.0 + numerator / c)
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    return h


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), Stirling series, z >= 10."""
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _log_beta_front(a: float, b: float, x: float, y: float) -> float:
    """ln(x^a y^b / B(a, b)) for y = 1 - x.

    When one shape is large, lgamma(a + b) - lgamma(a) would subtract two
    large, rounded numbers; the Stirling form cancels them analytically.
    """
    log_x = math.log1p(-y) if x > 0.5 else math.log(x)
    log_y = math.log1p(-x) if y > 0.5 else math.log(y)
    large, small = max(a, b), min(a, b)
    if large < 10.0:
        growth = math.lgamma(a + b) - math.lgamma(large)
    else:
        # lgamma(large + small) - lgamma(large).
        growth = (
            (large - 0.5) * math.log1p(small / large)
            + small * math.log(large + small)
            - small
            + _stirling_tail(large + small)
            - _stirling_tail(large)
        )
    return growth - math.lgamma(small) + a * log_x + b * log_y


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) with y = 1 - x passed in, so neither end loses digits.

    The fraction converges fast for x < (a+1)/(a+b+2); beyond that point
    the symmetry I_x(a, b) = 1 - I_y(b, a) is used instead.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    front = math.exp(_log_beta_front(a, b, x, y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _check_df(df, name: str) -> int:
    if not float(df).is_integer() or df <= 0:
        raise ValidationError(f"{name} must be a positive integer, got {df!r}")
    return int(df)


def chisq_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) for a chi-square variable with ``df`` degrees of freedom.

    Computed as the regularized upper incomplete gamma Q(df/2, x/2) by a
    series or a continued fraction; absolute error below 1e-13 for df up to
    200.
    """
    df = _check_df(df, "df")
    if x < 0:
        raise ValidationError(f"x must be nonnegative, got {x}")
    return _upper_gamma(df / 2.0, x / 2.0)


def f_sf(x: float, d1: float, d2: float) -> float:
    """Upper tail P(F > x) for an F variable with (d1, d2) degrees of freedom.

    Computed as the regularized incomplete beta I_{d2/(d2+d1*x)}(d2/2, d1/2)
    by a continued fraction; absolute error below 1e-10 for d2 up to 1e6
    (Box's M on 539 reports has d2 near 4.5e5), growing with d2 beyond
    that. Degrees of freedom may be fractional (some approximations, e.g.
    the F form of Box's M, produce non-integer d2) but must be positive and
    finite.
    """
    for name, df in (("d1", d1), ("d2", d2)):
        if not math.isfinite(df) or df <= 0:
            raise ValidationError(f"{name} must be positive and finite, got {df!r}")
    if x < 0:
        raise ValidationError(f"x must be nonnegative, got {x}")
    denominator = d2 + d1 * x
    return _regularized_beta(d2 / 2.0, d1 / 2.0, d2 / denominator, d1 * x / denominator)
