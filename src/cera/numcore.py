"""Dense linear algebra and distribution tails for the analysis modules.

Problem sizes here are tiny (at most 23x23: one row/column per scoring
criterion, or per free parameter of a covariance model), so everything is a
direct dense method in plain Python. A matrix is a list of row lists of
floats; anything array-like is accepted and converted. Nothing here imports
numpy. Float totals add left to right (``total``) on every supported Python.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from operator import add, mul

from .errors import ConditioningError, ValidationError

# Symmetry tolerance used by consumers of symmetric matrices.
SYMMETRY_RTOL = 1e-10

# Machine epsilon. Series and continued fractions stop when a term changes
# the sum by less than this relative amount; _TINY keeps modified-Lentz denominators off
# zero, and _MAX_TERMS ends the loop on a NaN argument.
EPS = sys.float_info.epsilon
_TINY = 1e-300
_MAX_TERMS = 100_000

# Cyclic Jacobi converges quadratically; this many sweeps only bounds the
# loop on input it cannot diagonalize (non-finite entries).
_JACOBI_SWEEPS = 50


class Matrix(list):
    """A dense matrix as a list of row lists, for results that callers combine
    like arrays (scatter matrices, classification counts).

    ``+`` and ``+=`` add two matrices entry by entry and ``sum`` totals every
    entry or, with ``axis=1``, each row. ``*`` raises rather than repeat rows.
    """

    def __add__(self, other):
        return Matrix([[a + b for a, b in zip(r, s, strict=True)]
                       for r, s in zip(self, other, strict=True)])

    __iadd__ = __add__

    def __mul__(self, other):
        raise TypeError("Matrix supports only + and sum; convert it to an array first")

    __rmul__ = __imul__ = __mul__

    def sum(self, axis: int | None = None):
        if axis is None:
            return sum(map(sum, self))
        if axis == 1:
            return [sum(row) for row in self]
        raise ValueError(f"axis must be None or 1, got {axis!r}")


def total(values) -> float:
    return reduce(add, values, 0.0)


def dot(a, b) -> float:
    return total(map(mul, a, b))


def centered_columns(rows: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """The column means of ``rows`` and each column minus its mean."""
    cols = list(zip(*rows))
    means = [total(col) / len(rows) for col in cols]
    return means, [[v - m for v in col] for col, m in zip(cols, means)]


def gram(cols: list[list[float]]) -> list[list[float]]:
    """Inner products of every pair of ``cols``, exactly symmetric."""
    p = len(cols)
    out = [[0.0] * p for _ in range(p)]
    for j in range(p):
        for k in range(j, p):
            out[j][k] = out[k][j] = dot(cols[j], cols[k])
    return out


def as_rows(m, name: str = "matrix") -> list[list[float]]:
    """``m`` as a list of equal-length rows of floats; ValidationError unless 2-D."""
    try:
        rows = [[float(v) for v in row] for row in m]
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a 2-D array") from None
    if len({len(row) for row in rows}) > 1:
        raise ValidationError(f"{name} must be a 2-D array, got rows of unequal length")
    return rows


def shape(rows: list[list[float]]) -> tuple[int, int]:
    return (len(rows), len(rows[0]) if rows else 0)


def check_symmetric(m, name: str = "matrix") -> list[list[float]]:
    """Validate |a_ij - a_ji| <= SYMMETRY_RTOL * max(1, |a_ij|) entrywise."""
    a = as_rows(m, name)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValidationError(f"{name} must be square, got shape {shape(a)}")
    for i in range(n):
        for j in range(i, n):
            x, y = a[i][j], a[j][i]
            tol = SYMMETRY_RTOL * max(1.0, min(abs(x), abs(y)))
            if not abs(x - y) <= tol:
                raise ValidationError(f"{name} is not symmetric within tolerance")
    return a


def cholesky(a) -> list[list[float]] | None:
    """Lower factor L of a = L L' for symmetric ``a``, or None unless ``a`` is
    positive definite (some pivot is not positive and finite).

    Row i of L holds its i + 1 entries on and left of the diagonal.
    """
    chol: list[list[float]] = []
    for i, row in enumerate(a):
        li: list[float] = []
        for j in range(i):
            lj = chol[j]
            li.append((row[j] - dot(li, lj)) / lj[j])
        pivot = row[i] - dot(li, li)
        if not 0.0 < pivot < math.inf:
            return None
        li.append(math.sqrt(pivot))
        chol.append(li)
    return chol


def log_det(chol: list[list[float]]) -> float:
    """ln |a| from the Cholesky factor of a."""
    return 2.0 * total(math.log(row[-1]) for row in chol)


def log_det_pd(a, message: str) -> float:
    """ln |a| of symmetric ``a``; ConditioningError(message) unless it is positive definite."""
    chol = cholesky(a)
    if chol is None:
        raise ConditioningError(message)
    return log_det(chol)


def solve_lower(chol: list[list[float]], b) -> list[float]:
    """y with L y = b, by forward substitution."""
    y: list[float] = []
    for row, bi in zip(chol, b):
        y.append((bi - dot(row, y)) / row[-1])
    return y


def solve_lower_t(chol: list[list[float]], y) -> list[float]:
    """x with L' x = y, by back substitution."""
    x = list(y)
    for i in range(len(chol) - 1, -1, -1):
        row = chol[i]
        xi = x[i] = x[i] / row[i]
        x[:i] = [xk - lik * xi for xk, lik in zip(x[:i], row)]
    return x


def _inverse_columns(chol: list[list[float]]) -> list[list[float]]:
    """The columns of L^-1: column j is zero above row j and solves L y = e_j below."""
    n = len(chol)
    cols = []
    for j in range(n):
        tail = [1.0 / chol[j][j]]
        for row in chol[j + 1 :]:
            tail.append(-dot(row[j:], tail) / row[-1])
        cols.append([0.0] * j + tail)
    return cols


def inverse_from_cholesky(chol: list[list[float]]) -> list[list[float]]:
    """a^-1 = L^-T L^-1 from the Cholesky factor of a, exactly symmetric."""
    return gram(_inverse_columns(chol))


def eigh(a) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues, ascending, and unit eigenvectors of symmetric ``a``.

    Cyclic Jacobi: each rotation zeroes one off-diagonal pair; an entry is
    left alone once it is at most eps * sqrt(|a_pp a_qq|), too small to move
    an eigenvalue beyond rounding, and the sweeps stop when one rotates
    nothing. ``vectors[k]`` belongs to ``values[k]``.
    """
    n = len(a)
    a = [list(row) for row in a]
    vecs = [[float(i == j) for j in range(n)] for i in range(n)]  # rows are eigenvectors
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                app, aqq = a[p][p], a[q][q]
                if not abs(apq) > EPS * math.sqrt(abs(app)) * math.sqrt(abs(aqq)):
                    continue
                rotated = True
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p], a[q]
                new_p = [c * x - s * y for x, y in zip(rp, rq)]
                new_q = [s * x + c * y for x, y in zip(rp, rq)]
                new_p[p] = app - t * apq
                new_q[q] = aqq + t * apq
                new_p[q] = new_q[p] = 0.0
                a[p], a[q] = new_p, new_q
                for row, xp, xq in zip(a, new_p, new_q):
                    row[p] = xp
                    row[q] = xq
                vp, vq = vecs[p], vecs[q]
                vecs[p] = [c * x - s * y for x, y in zip(vp, vq)]
                vecs[q] = [s * x + c * y for x, y in zip(vp, vq)]
        if not rotated:
            break
    order = sorted(range(n), key=lambda k: a[k][k])
    return [a[k][k] for k in order], [vecs[k] for k in order]


def lstsq_symmetric(a, b) -> list[float]:
    """Minimum-norm least-squares solution of a x = b for symmetric ``a``.

    As ``np.linalg.lstsq(a, b, rcond=None)``: singular values (here the
    eigenvalues' magnitudes) at or below eps * n times the largest count as
    zero. When a Cholesky factor exists and bounds the smallest eigenvalue
    above that cutoff (lambda_min >= 1 / ||L^-1||_F^2, lambda_max <= ||a||_F),
    no value is cut and the factor solves the system; otherwise the solution
    is built from the eigendecomposition.
    """
    n = len(a)
    cutoff = EPS * n
    chol = cholesky(a)
    if chol is not None:
        inv_norm2 = total(dot(col, col) for col in _inverse_columns(chol))
        if 1.0 > cutoff * math.sqrt(total(dot(row, row) for row in a)) * inv_norm2:
            return solve_lower_t(chol, solve_lower(chol, b))
    values, vectors = eigh(a)
    largest = max((abs(v) for v in values), default=0.0)
    x = [0.0] * n
    for value, vec in zip(values, vectors):
        if abs(value) > cutoff * largest:
            coef = dot(vec, b) / value
            x = [xi + coef * vi for xi, vi in zip(x, vec)]
    return x


def generalized_eigen(b, w) -> list[tuple[float, list[float]]]:
    """Solve B v = lambda W v for symmetric B and symmetric positive-definite W.

    W is reduced by its Cholesky factor to a standard symmetric eigenproblem.
    Returns (eigenvalue, vector) pairs sorted by eigenvalue descending, with
    each vector normalized so v' W v = 1 and its first nonzero component
    positive.
    """
    b = check_symmetric(b, "b")
    w = check_symmetric(w, "w")
    if len(b) != len(w):
        raise ValidationError(f"dimension mismatch: b is {shape(b)}, w is {shape(w)}")
    chol = cholesky(w)
    if chol is None:
        raise ConditioningError("w is not positive definite")
    # C = L^-1 B L^-T shares eigenvalues with the pencil (B, W); B's rows are
    # its columns, and the columns of L^-1 B are the rows of its transpose.
    half = [solve_lower(chol, row) for row in b]
    cols = [solve_lower(chol, list(col)) for col in zip(*half)]
    c = [[0.5 * (x + y) for x, y in zip(row, col)] for row, col in zip(cols, zip(*cols))]
    values, vectors = eigh(c)
    out: list[tuple[float, list[float]]] = []
    for value, u in sorted(zip(values, vectors), key=lambda pair: -pair[0]):
        v = solve_lower_t(chol, u)
        floor = 1e-12 * max(1.0, max(map(abs, v)))
        first = next((x for x in v if abs(x) > floor), 0.0)
        if first < 0:
            v = [-x for x in v]
        out.append((value, v))
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
            if abs(term) < abs(total) * EPS:
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
        if abs(d * c - 1.0) <= EPS:
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
        if abs(d * c - 1.0) <= EPS:
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
