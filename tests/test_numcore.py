import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, gammaincc

from cera import numcore
from cera.errors import ConditioningError, ValidationError


class TestGeneralizedEigen:
    def test_zero_b_gives_zero_eigenvalues(self):
        pairs = numcore.generalized_eigen(np.zeros((3, 3)), np.eye(3))
        assert [value for value, _ in pairs] == pytest.approx([0, 0, 0], abs=1e-12)

    def test_identity_w_reduces_to_standard(self):
        pairs = numcore.generalized_eigen(np.diag([3.0, 1.0]), np.eye(2))
        assert [value for value, _ in pairs] == pytest.approx([3.0, 1.0])

    def test_descending_order_and_normalization(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        b = a @ a.T + 0.5 * np.eye(4)
        c = rng.standard_normal((4, 4))
        w = c @ c.T + 4 * np.eye(4)
        pairs = numcore.generalized_eigen(b, w)
        values = [value for value, _ in pairs]
        assert values == sorted(values, reverse=True)
        for value, vector in pairs:
            vector = np.asarray(vector)
            assert vector @ w @ vector == pytest.approx(1.0, abs=1e-10)
            nonzero = vector[np.abs(vector) > 1e-12 * np.max(np.abs(vector))]
            assert nonzero[0] > 0
            residual = np.max(np.abs(b @ vector - value * (w @ vector)))
            assert residual <= 1e-8 * np.max(np.abs(b))

    def test_matches_characteristic_roots_by_bisection(self):
        """det(B - lambda*W) must vanish at each reported eigenvalue."""
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        b = a @ a.T + np.eye(4)
        c = rng.standard_normal((4, 4))
        w = c @ c.T + 3 * np.eye(4)
        pairs = numcore.generalized_eigen(b, w)

        def charpoly(lam):
            return np.linalg.det(b - lam * w)

        for value, _ in pairs:
            lo, hi = value - 1e-3, value + 1e-3
            f_lo, f_hi = charpoly(lo), charpoly(hi)
            assert f_lo * f_hi < 0, "eigenvalue does not bracket a sign change"
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if charpoly(lo) * charpoly(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            root = 0.5 * (lo + hi)
            assert root == pytest.approx(value, abs=1e-8)

    def test_non_positive_definite_w_rejected(self):
        with pytest.raises(ConditioningError):
            numcore.generalized_eigen(np.eye(2), np.diag([1.0, -1.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            numcore.generalized_eigen(np.eye(2), np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            numcore.generalized_eigen(np.zeros((2, 3)), np.eye(2))


class TestChisqSf:
    def test_at_zero(self):
        for df in (1, 2, 7):
            assert numcore.chisq_sf(0.0, df) == pytest.approx(1.0, abs=1e-12)

    def test_df2_closed_form(self):
        # For df=2 the upper tail is exp(-x/2).
        assert numcore.chisq_sf(5.991, 2) == pytest.approx(0.0500, abs=1e-4)
        assert numcore.chisq_sf(5.991, 2) == pytest.approx(math.exp(-5.991 / 2), abs=1e-10)

    def test_df1_against_erfc_oracle(self):
        # For df=1 the upper tail is 2*Phi(-sqrt(x)) = erfc(sqrt(x/2)).
        assert numcore.chisq_sf(3.841, 1) == pytest.approx(0.0500, abs=1e-4)
        for x in (0.5, 1.0, 3.841, 10.0):
            assert numcore.chisq_sf(x, 1) == pytest.approx(
                math.erfc(math.sqrt(x / 2.0)), abs=1e-10
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            numcore.chisq_sf(-1.0, 2)
        with pytest.raises(ValidationError):
            numcore.chisq_sf(1.0, 0)
        with pytest.raises(ValidationError):
            numcore.chisq_sf(1.0, 2.5)

    def test_monotone_and_bounded(self):
        xs = np.linspace(0, 30, 61)
        for df in (1, 4, 10):
            values = [numcore.chisq_sf(x, df) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def f_density(x, d1, d2):
    log_num = (d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * math.log(x)
    log_den = ((d1 + d2) / 2) * math.log1p(d1 * x / d2)
    log_beta = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)
    return math.exp(log_num - log_den - log_beta)


class TestFSf:
    def test_at_zero(self):
        assert numcore.f_sf(0.0, 3, 7) == pytest.approx(1.0, abs=1e-12)

    def test_equal_df_symmetry_point(self):
        for d in (1, 5, 30):
            assert numcore.f_sf(1.0, d, d) == pytest.approx(0.5, abs=1e-10)

    def test_against_quadrature_oracle(self):
        value = numcore.f_sf(3.885, 2, 12)
        assert value == pytest.approx(0.050, abs=5e-4)
        tail, _ = quad(f_density, 3.885, np.inf, args=(2, 12))
        assert value == pytest.approx(tail, abs=1e-6)

    def test_fractional_df_accepted(self):
        # Approximations like Box's M produce non-integer df2.
        value = numcore.f_sf(2.0, 3, 7.5)
        assert 0.0 < value < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            numcore.f_sf(-0.5, 2, 2)
        with pytest.raises(ValidationError):
            numcore.f_sf(1.0, 0, 2)
        with pytest.raises(ValidationError):
            numcore.f_sf(1.0, 2, -3)

    def test_monotone_and_bounded(self):
        xs = np.linspace(0, 20, 41)
        values = [numcore.f_sf(x, 3, 9) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestTailsAgainstScipy:
    def test_chisq_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            df = int(rng.integers(1, 201))
            x = float(rng.uniform(0.0, 3.0 * df + 30.0))
            expected = gammaincc(df / 2.0, x / 2.0)
            assert numcore.chisq_sf(x, df) == pytest.approx(expected, abs=1e-13), (x, df)

    def test_f_random_draws(self):
        # d2 up to 1e6 covers Box's M, whose F form has d2 near 4.5e5 on 539 reports.
        rng = np.random.default_rng(12)
        for _ in range(2000):
            d1 = float(rng.uniform(0.5, 120.0))
            d2 = float(np.exp(rng.uniform(math.log(0.5), math.log(1e6))))
            x = float(rng.exponential(2.0))
            expected = betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))
            assert numcore.f_sf(x, d1, d2) == pytest.approx(expected, abs=1e-10), (x, d1, d2)

    def test_zero_is_exactly_one(self):
        for df in (1, 2, 39):
            assert numcore.chisq_sf(0.0, df) == 1.0
        for d1, d2 in ((1, 1), (0.5, 7.5), (110, 4.5e5)):
            assert numcore.f_sf(0.0, d1, d2) == 1.0

    def test_far_tail(self):
        for df in (1, 10, 200):
            assert numcore.chisq_sf(1e6, df) == 0.0
            assert numcore.chisq_sf(math.inf, df) == 0.0
        assert numcore.f_sf(math.inf, 3, 7) == 0.0
        for x, d1, d2 in ((1e12, 2, 5), (1e300, 3, 9)):
            expected = betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))
            assert numcore.f_sf(x, d1, d2) == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_series_fraction_switch(self):
        # chisq_sf switches method at x/2 = df/2 + 1; F at x = (a+1)/(a+b+2).
        for df in (1, 4, 39):
            for x in np.nextafter(df + 2.0, [0.0, np.inf]):
                assert numcore.chisq_sf(x, df) == pytest.approx(
                    gammaincc(df / 2.0, x / 2.0), abs=1e-13
                )
        for d1, d2 in ((3, 7), (110, 4.5e5), (2.5, 0.7)):
            a, b = d2 / 2.0, d1 / 2.0
            z = (a + 1.0) / (a + b + 2.0)
            x = d2 * (1.0 - z) / (d1 * z)
            for point in (0.999 * x, x, 1.001 * x):
                expected = betainc(a, b, d2 / (d2 + d1 * point))
                assert numcore.f_sf(point, d1, d2) == pytest.approx(expected, abs=1e-10)

    def test_f_df1_closed_form(self):
        # F(1, 1) is the square of a standard Cauchy: P(F > x) = 1 - (2/pi) atan(sqrt(x)).
        for x in (0.01, 0.5, 1.0, 3.0, 161.4, 1e6):
            expected = 1.0 - 2.0 / math.pi * math.atan(math.sqrt(x))
            assert numcore.f_sf(x, 1, 1) == pytest.approx(expected, abs=1e-13)

    def test_fractional_df(self):
        for x, d1, d2 in ((2.0, 3, 7.5), (0.3, 0.7, 2.2), (1.7, 110, 448871.3)):
            expected = betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))
            assert numcore.f_sf(x, d1, d2) == pytest.approx(expected, abs=1e-10)


class TestSymmetryValidation:
    def test_accepts_symmetric(self):
        numcore.check_symmetric([[1.0, 2.0], [2.0, 5.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            numcore.check_symmetric([[1.0, 2.0], [2.1, 5.0]])

    def test_tolerates_roundoff(self):
        numcore.check_symmetric([[1.0, 2.0 + 1e-12], [2.0, 5.0]])


@pytest.mark.parametrize("m, message", [
    ([1.0, 2.0], "data must be a 2-D array"),
    ([["1.0", "one"]], "data must be a 2-D array"),
    ([[1.0, 2.0], [3.0]], "data must be a 2-D array, got rows of unequal length"),
], ids=["one-d", "non-numeric", "ragged"])
def test_as_rows_rejects_non_matrix(m, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        numcore.as_rows(m, "data")


class TestMatrix:
    def test_plus_and_plus_equals_add_entrywise(self):
        w, b = numcore.Matrix([[1.0, 2.0], [3.0, 4.0]]), numcore.Matrix([[1.0] * 2] * 2)
        assert w + b == [[2.0, 3.0], [4.0, 5.0]]
        total = w
        total += b
        assert total == w + b and w == [[1.0, 2.0], [3.0, 4.0]]
        assert total.sum() == 14.0 and total.sum(axis=1) == [5.0, 9.0]

    def test_multiplication_raises(self):
        w = numcore.Matrix([[1.0, 2.0], [3.0, 4.0]])
        for product in (lambda: w * 2, lambda: 2 * w, lambda: w * 0.5):
            with pytest.raises(TypeError):
                product()


class TestTotal:
    def test_adds_left_to_right_on_every_python(self):
        """Left to right, 1e16 + 1.0 rounds back to 1e16; builtin sum() from 3.12 gives 1.0."""
        values = [1e16, 1.0, -1e16]
        assert numcore.total(values) == 0.0
        assert numcore.dot(values, [1.0] * 3) == 0.0


def _oracle_matrices():
    """Seeded symmetric matrices of order 1-10 and 23, by kind.

    ``pd`` is positive definite; ``rank`` has rank p // 2 (zero when p = 1);
    ``indefinite`` has eigenvalues of both signs; ``zero_row`` is positive
    semidefinite with an exactly zero last row and column.
    """
    rng = np.random.default_rng(2026)
    for p in [*range(1, 11), 23]:
        a = rng.normal(size=(p, p))
        low = rng.normal(size=(p, p // 2))
        zero_row = a @ a.T
        zero_row[-1, :] = zero_row[:, -1] = 0.0
        for kind, m in (("pd", a @ a.T + 0.1 * np.eye(p)), ("rank", low @ low.T),
                        ("indefinite", a + a.T), ("zero_row", zero_row)):
            yield p, kind, m, rng.normal(size=p)


class TestDenseKernelsAgainstNumpy:
    def test_log_det_matches_slogdet(self):
        for p, kind, m, _ in _oracle_matrices():
            chol = numcore.cholesky(m.tolist())
            sign, logdet = np.linalg.slogdet(m)
            if kind == "pd":
                assert sign == 1.0
                assert numcore.log_det(chol) == pytest.approx(logdet, rel=1e-12, abs=1e-12), p
                product = np.tril(np.array([row + [0.0] * (p - len(row)) for row in chol]))
                assert np.allclose(product @ product.T, m, rtol=1e-12, atol=1e-12 * np.abs(m).max())
            elif kind in ("indefinite", "zero_row"):
                assert chol is None, (p, kind)

    def test_eigenpairs_match_eigh(self):
        for p, kind, m, _ in _oracle_matrices():
            values, vectors = numcore.eigh(m.tolist())
            expected_values, expected_vectors = np.linalg.eigh(m)
            scale = max(1.0, np.abs(expected_values).max())
            assert np.allclose(values, expected_values, rtol=0, atol=1e-13 * scale), (p, kind)
            v = np.array(vectors).T
            assert np.allclose(v.T @ v, np.eye(p), rtol=0, atol=1e-13), (p, kind)
            assert np.allclose(m @ v, v * values, rtol=0, atol=1e-13 * scale), (p, kind)
            for k in range(p):
                # A vector is fixed up to sign only when its eigenvalue is simple.
                others = np.delete(expected_values, k)
                if min(np.abs(expected_values[k] - others), default=scale) > 1e-6 * scale:
                    cosine = abs(float(v[:, k] @ expected_vectors[:, k]))
                    assert cosine == pytest.approx(1.0, abs=1e-10), (p, kind, k)

    def test_least_squares_matches_lstsq(self):
        for p, kind, m, b in _oracle_matrices():
            expected, _, rank, _ = np.linalg.lstsq(m, b, rcond=None)
            got = numcore.lstsq_symmetric(m.tolist(), b.tolist())
            scale = max(1.0, np.abs(expected).max())
            assert np.allclose(got, expected, rtol=0, atol=1e-9 * scale), (p, kind, rank)
            if kind in ("rank", "zero_row"):
                assert rank < p  # the minimum-norm branch, not a Cholesky solve
