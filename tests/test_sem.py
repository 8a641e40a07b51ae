import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cera.errors import (
    CeraError,
    ConditioningError,
    IdentificationError,
    ParameterBoundsError,
    ValidationError,
)
from cera import numcore, sem
from cera.miner import Sector
from cera.report import emit_report
from cera.scoring import ScoreCard
from cera.sem import (
    _evaluate,
    _score,
    covariance_from_cards,
    default_model,
    fd_gradient,
    fit_model,
    fit_to_dict,
    implied_covariance,
    load_model,
    ml_discrepancy,
    parse_model,
)

from conftest import make_cards

ONE_FACTOR = """
[latents]
f =1
[loadings]
f -> y1 free
f -> y2 free
f -> y3 free
[residuals]
y1 free
y2 free
y3 free
"""

SATURATED = """
[latents]
f1 free
f2 free
[loadings]
f1 -> y1 =1
f2 -> y2 =1
[covariances]
f1 ~ f2 free
[residuals]
y1 =0
y2 =0
"""

# The packaged grouping with the non-anchor loadings freed (23 free parameters).
FREE_LOADINGS = """
[latents]
organizational_strategy free
industrial free
stakeholder free
[loadings]
organizational_strategy -> v1 =1
organizational_strategy -> v2 free
organizational_strategy -> v3 free
industrial -> v4 =1
industrial -> v5 free
stakeholder -> v6 =1
stakeholder -> v7 free
stakeholder -> v8 free
stakeholder -> v9 free
stakeholder -> v10 free
[covariances]
organizational_strategy ~ industrial free
organizational_strategy ~ stakeholder free
industrial ~ stakeholder free
[residuals]
v1 free
v2 free
v3 free
v4 free
v5 free
v6 free
v7 free
v8 free
v9 free
v10 free
"""

TRUE_LOADINGS = np.array([0.8, 0.7, 0.6])
TRUE_RESIDUALS = 1.0 - TRUE_LOADINGS**2


def one_factor_sigma():
    return np.outer(TRUE_LOADINGS, TRUE_LOADINGS) + np.diag(TRUE_RESIDUALS)


def fixed_values(model):
    """Parameter name -> fixed value (None when free), in model order."""
    return {name: fixed for name, fixed, _ in model.parameters}


class TestParseModel:
    def test_shipped_default(self):
        model = default_model()
        assert model.observed_vars == tuple(f"v{i + 1}" for i in range(10))
        assert len(model.latent_vars) == 3
        assert model.free_parameter_count == 16
        assert model.degrees_of_freedom == 39

    def test_saturated_model(self):
        model = parse_model(SATURATED)
        assert model.free_parameter_count == 3
        assert model.degrees_of_freedom == 0
        assert fixed_values(model)["residual y1"] == 0.0

    @pytest.mark.parametrize("entry, negative", [("f =1", "f =-0.1"), ("y2 free", "y2 =-0.5")])
    def test_negative_fixed_variance_rejected(self, entry, negative):
        with pytest.raises(ValidationError, match=f"variance in {negative}"):
            parse_model(ONE_FACTOR.replace(entry, negative))

    def test_zero_latent_variance_rejected(self):
        # Its loadings would have no effect on Sigma; a residual may still be fixed at 0.
        with pytest.raises(ValidationError, match="latent variance fixed at zero in f =0"):
            parse_model(ONE_FACTOR.replace("f =1", "f =0"))
        assert fixed_values(parse_model(ONE_FACTOR.replace("y2 free", "y2 =0")))["residual y2"] == 0.0

    @pytest.mark.parametrize("entry, fixed", [
        ("f -> y1 free", "f -> y1 =nan"),
        ("f -> y1 free", "f -> y1 =inf"),
        ("f =1", "f =nan"),
        ("f =1", "f =inf"),
        ("y2 free", "y2 =-inf"),
    ])
    def test_non_finite_fixed_value_rejected(self, entry, fixed):
        token = fixed.split()[-1]
        with pytest.raises(ValidationError, match=re.escape(f"bad fixed value {token!r} in {fixed}")):
            parse_model(ONE_FACTOR.replace(entry, fixed))

    def test_parses_of_the_same_text_are_equal(self):
        # The bench labels each SEM fit by comparing its model with this file's.
        path = Path(__file__).parents[1] / "bench" / "free_loadings_model.txt"
        assert load_model(path) == load_model(path)
        assert load_model(path) != default_model()

    def test_defaults_and_comments(self):
        model = parse_model(
            """
# comment
[latents]
f            # defaults to variance fixed at 1
[loadings]
f -> a       # defaults to free
f -> b =0.5
[residuals]
a            # defaults to free
b free
"""
        )
        assert model.parameters == (
            ("loading f->a", None, (0, 0, 0)),
            ("loading f->b", 0.5, (0, 1, 0)),
            ("variance f", 1.0, (1, 0, 0)),
            ("residual a", None, (2, 0, 0)),
            ("residual b", None, (2, 1, 1)),
        )
        assert model.observed_vars == ("a", "b")

    def test_unidentified_latent(self):
        text = ONE_FACTOR.replace("f =1", "f free")
        with pytest.raises(IdentificationError, match="scale"):
            parse_model(text)

    def test_fixed_loading_identifies_free_variance(self):
        text = ONE_FACTOR.replace("f =1", "f free").replace("f -> y1 free", "f -> y1 =1")
        model = parse_model(text)
        assert fixed_values(model)["variance f"] is None

    def test_negative_df_rejected(self):
        with pytest.raises(ValidationError, match="moments"):
            parse_model(
                """
[latents]
f =1
[loadings]
f -> y1 free
f -> y2 free
[residuals]
y1 free
y2 free
"""
            )

    @pytest.mark.parametrize(
        "mutation,pattern",
        [
            (("f -> y2 free", "f -> y1 free"), "duplicate loading"),
            (("[latents]\nf =1", "[latents]\nf =1\nf =1"), "duplicate latent"),
            (("y1 free\ny2 free", "y1 free\ny1 free"), "duplicate residual"),
            (("f -> y3 free", "g -> y3 free"), "undeclared latent"),
            (("[residuals]", "[latents]\ng =1\n[residuals]"), "duplicate section"),
            (("f -> y2 free", "f y2 free"), "loading must be"),
            (("f -> y1 free", "f -> y1 free =1"), "expected one status token"),
            (("[residuals]", "[covariances]\nf g free\n[residuals]"), "covariance must be"),
            (("[residuals]", "[covariances]\nf ~ g free\n[residuals]"),
             "covariance references undeclared latent"),
        ],
    )
    def test_duplicate_and_undeclared(self, mutation, pattern):
        old, new = mutation
        with pytest.raises(ValidationError, match=pattern):
            parse_model(ONE_FACTOR.replace(old, new, 1))

    def test_unknown_section(self):
        with pytest.raises(ValidationError, match="unknown section"):
            parse_model("[weights]\nx\n")

    def test_missing_section(self):
        with pytest.raises(ValidationError, match="residuals"):
            parse_model("[latents]\nf =1\n[loadings]\nf -> y1 free\n")
        with pytest.raises(ValidationError, match="^model has no observed variable$"):
            parse_model("[latents]\n[loadings]\n[residuals]\n")

    def test_content_before_section(self):
        with pytest.raises(ValidationError, match="before any section"):
            parse_model("f -> y1\n[latents]\nf\n")

    def test_latent_without_loadings(self):
        with pytest.raises(ValidationError, match="no loadings"):
            parse_model(ONE_FACTOR.replace("[latents]\nf =1", "[latents]\nf =1\ng =1"))

    def test_loading_without_residual(self):
        with pytest.raises(ValidationError, match="no residual"):
            parse_model(ONE_FACTOR.replace("\ny3 free\n", "\n"))

    def test_self_covariance_rejected(self):
        with pytest.raises(ValidationError, match="variance"):
            parse_model(SATURATED.replace("f1 ~ f2", "f1 ~ f1"))

    def test_duplicate_covariance_either_order(self):
        with pytest.raises(ValidationError, match="duplicate covariance"):
            parse_model(SATURATED.replace("f1 ~ f2 free", "f1 ~ f2 free\nf2 ~ f1 free"))

    def test_bad_status_token(self):
        with pytest.raises(ValidationError, match="free"):
            parse_model(ONE_FACTOR.replace("f -> y1 free", "f -> y1 loose"))


class TestImpliedCovariance:
    def test_zero_loadings_give_diagonal(self):
        model = parse_model(ONE_FACTOR)
        params = {
            "loading f->y1": 0.0, "loading f->y2": 0.0, "loading f->y3": 0.0,
            "residual y1": 1.0, "residual y2": 2.0, "residual y3": 3.0,
        }
        assert np.allclose(implied_covariance(model, params), np.diag([1.0, 2.0, 3.0]))

    def test_one_factor_cross_term(self):
        model = parse_model(ONE_FACTOR)
        params = {
            "loading f->y1": 0.8, "loading f->y2": 0.7, "loading f->y3": 0.6,
            "residual y1": 0.36, "residual y2": 0.51, "residual y3": 0.64,
        }
        sigma = implied_covariance(model, params)
        assert sigma[0][1] == pytest.approx(0.8 * 0.7, rel=1e-12)
        assert sigma[0][0] == pytest.approx(0.8**2 + 0.36, rel=1e-12)
        assert np.allclose(sigma, np.transpose(sigma))

    def test_two_factor_hand_expansion(self):
        model = parse_model(
            """
[latents]
f1 =2.0
f2 =1.0
[loadings]
f1 -> y1 =1
f1 -> y2 free
f2 -> y3 =1
f2 -> y4 free
[covariances]
f1 ~ f2 free
[residuals]
y1 =0.4
y2 =0.3
y3 =0.2
y4 =0.1
"""
        )
        params = {
            "loading f1->y2": 0.5,
            "loading f2->y4": 0.7,
            "covariance f1~f2": 0.3,
        }
        expected = np.array(
            [
                [2.4, 1.0, 0.3, 0.21],
                [1.0, 0.8, 0.15, 0.105],
                [0.3, 0.15, 1.2, 0.7],
                [0.21, 0.105, 0.7, 0.59],
            ]
        )
        assert np.allclose(implied_covariance(model, params), expected, atol=1e-12)

    def test_free_residual_must_be_positive(self):
        model = parse_model(ONE_FACTOR)
        params = {
            "loading f->y1": 0.8, "loading f->y2": 0.7, "loading f->y3": 0.6,
            "residual y1": 0.0, "residual y2": 0.51, "residual y3": 0.64,
        }
        with pytest.raises(ParameterBoundsError, match="y1"):
            implied_covariance(model, params)

    def test_fixed_zero_residual_allowed(self):
        sigma = implied_covariance(
            parse_model(SATURATED),
            {"variance f1": 2.0, "variance f2": 1.0, "covariance f1~f2": 0.4},
        )
        assert sigma[0][1] == 0.4
        assert sigma[0][0] == 2.0

    def test_missing_parameter_named(self):
        model = parse_model(ONE_FACTOR)
        with pytest.raises(ValidationError, match="loading f->y3"):
            implied_covariance(
                model,
                {"loading f->y1": 0.8, "loading f->y2": 0.7,
                 "residual y1": 0.5, "residual y2": 0.5, "residual y3": 0.5},
            )


class TestMlDiscrepancy:
    def test_zero_at_equality(self):
        s = np.array([[2.0, 0.3], [0.3, 1.5]])
        assert ml_discrepancy(s, s) == 0.0

    def test_diagonal_hand_value(self):
        # ln|I| + tr(diag(2,2)) - ln 4 - 2 = 2 - 2 ln 2.
        s = np.diag([2.0, 2.0])
        sigma = np.eye(2)
        assert ml_discrepancy(s, sigma) == pytest.approx(2.0 - 2.0 * math.log(2.0), rel=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            s = a @ a.T + 0.5 * np.eye(4)
            sigma = b @ b.T + 0.5 * np.eye(4)
            assert ml_discrepancy(s, sigma) >= 0.0

    def test_non_pd_sigma(self):
        s = np.eye(2)
        with pytest.raises(ConditioningError, match="implied"):
            ml_discrepancy(s, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_pd_sample(self):
        with pytest.raises(ConditioningError, match="sample"):
            ml_discrepancy(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ml_discrepancy(np.eye(2), np.eye(3))


class TestFdGradient:
    def test_against_analytic(self):
        def func(x):
            return math.sin(x[0]) * math.exp(x[1]) + x[2] ** 3

        x = np.array([0.4, -0.3, 1.7])
        grad = fd_gradient(func, x)
        expected = np.array(
            [
                math.cos(0.4) * math.exp(-0.3),
                math.sin(0.4) * math.exp(-0.3),
                3 * 1.7**2,
            ]
        )
        assert np.allclose(grad, expected, rtol=1e-4)

    def test_against_central_difference(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 3))
        a = a @ a.T + np.eye(3)

        def func(x):
            return float(x @ a @ x)

        for _ in range(5):
            x = rng.normal(size=3)
            forward = fd_gradient(func, x)
            h = 1e-6
            central = np.array(
                [
                    (func(x + h * e) - func(x - h * e)) / (2 * h)
                    for e in np.eye(3)
                ]
            )
            assert np.allclose(forward, central, rtol=1e-4, atol=1e-6)

    def test_custom_step(self):
        grad = fd_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), eps=1e-9)
        assert grad[0] == pytest.approx(6.0, rel=1e-6)


class TestFitModel:
    def test_saturated_fits_exactly(self):
        s = np.array([[2.0, 0.8], [0.8, 1.5]])
        fit = fit_model(parse_model(SATURATED), s, 100)
        assert fit.converged
        assert fit.df == 0
        assert fit.chi_square < 1e-6
        assert fit.p == 1.0
        assert fit.estimates["variance f1"] == pytest.approx(2.0, abs=1e-4)
        assert fit.estimates["covariance f1~f2"] == pytest.approx(0.8, abs=1e-4)

    def test_population_matrix_recovers_parameters(self):
        fit = fit_model(parse_model(ONE_FACTOR), one_factor_sigma(), 500)
        assert fit.converged
        assert fit.F_ML < 1e-8
        for i, (loading, residual) in enumerate(zip(TRUE_LOADINGS, TRUE_RESIDUALS), 1):
            assert fit.estimates[f"loading f->y{i}"] == pytest.approx(loading, abs=1e-4)
            assert fit.estimates[f"residual y{i}"] == pytest.approx(residual, abs=1e-4)
        assert fit.heywood == ()

    def test_simulated_sample_recovery(self):
        rng = np.random.default_rng(22)
        n = 500
        factor = rng.normal(size=n)
        noise = rng.normal(size=(n, 3)) * np.sqrt(TRUE_RESIDUALS)
        x = np.outer(factor, TRUE_LOADINGS) + noise
        s = np.cov(x, rowvar=False, ddof=1)
        fit = fit_model(parse_model(ONE_FACTOR), s, n)
        assert fit.converged
        for i, loading in enumerate(TRUE_LOADINGS, 1):
            assert fit.estimates[f"loading f->y{i}"] == pytest.approx(loading, abs=0.1)

    def test_boundary_solution_flags_heywood(self):
        # r12 * r13 / r23 > 1 forces the y1 residual against zero.
        s = np.array([[1.0, 0.88, 0.88], [0.88, 1.0, 0.55], [0.88, 0.55, 1.0]])
        fit = fit_model(parse_model(ONE_FACTOR), s, 200)
        assert "y1" in fit.heywood
        assert fit.estimates["residual y1"] < 1e-6

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        n = 200
        x = (
            np.outer(rng.normal(size=n), TRUE_LOADINGS)
            + rng.normal(size=(n, 3)) * np.sqrt(TRUE_RESIDUALS)
        )
        s = np.cov(x, rowvar=False, ddof=1)
        model = parse_model(ONE_FACTOR)
        base = fit_model(model, s, n)
        scaled = fit_model(model, 4.0 * s, n)
        assert scaled.chi_square == pytest.approx(base.chi_square, abs=1e-4)
        assert scaled.estimates["loading f->y1"] == pytest.approx(
            2.0 * base.estimates["loading f->y1"], rel=1e-4
        )
        assert scaled.estimates["residual y1"] == pytest.approx(
            4.0 * base.estimates["residual y1"], rel=1e-3
        )

    def test_fully_fixed_model(self):
        model = parse_model(
            """
[latents]
f
[loadings]
f -> y1 =1
f -> y2 =0.5
[residuals]
y1 =0.5
y2 =0.75
"""
        )
        sigma = np.array([[1.5, 0.5], [0.5, 1.0]])
        fit = fit_model(model, sigma, 50)
        assert fit.converged
        assert fit.iterations == 0
        assert fit.chi_square < 1e-10
        assert fit.df == 3
        assert fit.p == pytest.approx(1.0)

    def test_no_free_parameters_reports_exact_discrepancy(self):
        model = parse_model(ONE_FACTOR.replace("free", "=0.5"))
        s = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.3], [0.4, 0.3, 1.0]])
        fit = fit_model(model, s, 101)
        assert (fit.converged, fit.iterations, fit.message) == (True, 0, "no free parameters")
        assert fit.estimates == {}
        assert fit.F_ML == ml_discrepancy(s, implied_covariance(model, {})) > 0.0
        assert fit.chi_square == 100 * fit.F_ML

    def test_not_positive_definite_at_start_values(self):
        # Unit variances with covariance 2 make Phi indefinite; with the start
        # loadings of 0.5 and residuals of 0.5, Sigma is indefinite too.
        model = parse_model(
            """
[latents]
f1
f2
[loadings]
f1 -> y1
f1 -> y2
f1 -> y3
f2 -> y4
f2 -> y5
f2 -> y6
[covariances]
f1 ~ f2 =2
[residuals]
y1
y2
y3
y4
y5
y6
"""
        )
        with pytest.raises(
            ConditioningError,
            match="^implied covariance is not positive definite at the start values$",
        ):
            fit_model(model, np.eye(6), 100)

    def test_fully_fixed_model_not_positive_definite(self):
        # No free parameter, so the start is the whole fit; Phi is indefinite.
        model = parse_model(
            """
[latents]
f1
f2
[loadings]
f1 -> y1 =1
f1 -> y2 =0.5
f2 -> y3 =1
f2 -> y4 =0.5
[covariances]
f1 ~ f2 =2
[residuals]
y1 =0.5
y2 =0.5
y3 =0.5
y4 =0.5
"""
        )
        with pytest.raises(ConditioningError, match="not positive definite at the start values"):
            fit_model(model, np.eye(4), 100)

    def test_sample_size_guard(self):
        with pytest.raises(ValidationError, match="cases"):
            fit_model(parse_model(ONE_FACTOR), np.eye(3), 3)

    def test_shape_guard(self):
        with pytest.raises(ValidationError):
            fit_model(parse_model(ONE_FACTOR), np.eye(4), 100)

    def test_non_pd_sample_rejected(self):
        s = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(ConditioningError):
            fit_model(parse_model(ONE_FACTOR), s, 100)

    def test_chi_square_scales_with_n(self):
        s = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.3], [0.4, 0.3, 1.0]])
        model = parse_model(ONE_FACTOR)
        small = fit_model(model, s, 101)
        large = fit_model(model, s, 201)
        assert large.chi_square == pytest.approx(2.0 * small.chi_square, rel=1e-6)


def _natural(model, x):
    """Optimizer vector -> free-parameter assignment; variances enter as logs."""
    return {
        name: math.exp(v) if name.startswith(("variance ", "residual ")) else float(v)
        for name, v in zip(model.free_parameter_names(), x)
    }


def _start(model, s):
    """The documented start values, in optimizer space."""
    index = {name: i for i, name in enumerate(model.observed_vars)}
    start = []
    for name in model.free_parameter_names():
        kind, _, target = name.partition(" ")
        if kind == "loading":
            start.append(0.5)
        elif kind == "residual":
            start.append(math.log(0.5 * s[index[target], index[target]]))
        else:
            start.append(0.0)
    return np.array(start)


@st.composite
def small_models(draw):
    """Model text with 2-5 observed variables, 1-2 latents, random free/fixed cells."""
    p = draw(st.integers(2, 5))
    m = draw(st.integers(1, min(2, p)))
    free_variance = [draw(st.booleans()) for _ in range(m)]
    lines = ["[latents]"]
    lines += [f"f{k} free" if free_variance[k] else f"f{k} =1.5" for k in range(m)]
    lines.append("[loadings]")
    for i in range(p):
        k = i if i < m else draw(st.integers(0, m - 1))
        # A latent with a free variance is scaled by its first loading.
        status = "=1" if i < m and free_variance[k] else draw(st.sampled_from(["free", "=0.7"]))
        lines.append(f"f{k} -> y{i} {status}")
        if m == 2 and i >= m and draw(st.booleans()):
            lines.append(f"f{1 - k} -> y{i} free")
    if m == 2:
        lines += ["[covariances]", "f0 ~ f1 " + draw(st.sampled_from(["free", "=0.2"]))]
    lines.append("[residuals]")
    lines += [f"y{i} " + draw(st.sampled_from(["free", "free", "=0.5"])) for i in range(p)]
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(spec=small_models(), seed=st.integers(0, 2**32 - 1))
def test_analytic_derivatives_match_central_differences(spec, seed):
    try:
        model = parse_model(spec)
    except ValidationError:
        assume(False)
    names = model.free_parameter_names()
    assume(names)
    rng = np.random.default_rng(seed)
    spans = {"loading": 1.2, "covariance": 0.3, "variance": 0.8, "residual": 0.8}
    x = np.array([rng.uniform(-1.0, 1.0) * spans[name.split()[0]] for name in names])
    p = model.n_observed
    a = rng.normal(size=(p, p))
    s = a @ a.T / p + 0.5 * np.eye(p)
    sigma = implied_covariance(model, _natural(model, x))
    assume(np.linalg.eigvalsh(sigma)[0] > 0.05)

    def value(v):
        return ml_discrepancy(s, implied_covariance(model, _natural(model, v)))

    def score(cov, v):
        grad, info = _score(model, cov, _evaluate(model, cov, np.linalg.slogdet(cov)[1], v))
        return np.asarray(grad), np.asarray(info)

    h = 1e-6
    steps = h * np.eye(x.size)
    grad, _ = score(s, x)
    central = np.array([(value(x + e) - value(x - e)) / (2 * h) for e in steps])
    assert np.allclose(grad, central, rtol=1e-5, atol=1e-7)

    # At S = Sigma(x) the gradient vanishes and the information is the Hessian.
    grad, info = score(sigma, x)
    assert np.max(np.abs(grad)) < 1e-10
    hessian = np.array([(score(sigma, x + e)[0] - score(sigma, x - e)[0]) / (2 * h) for e in steps])
    assert np.allclose(info, hessian, rtol=1e-5, atol=1e-7)


def _simulated_sample(seed=2014, n=539):
    """Scores from three correlated constructs over v1-v10, grouped as the packaged model."""
    rng = np.random.default_rng(seed)
    groups = [0, 0, 0, 1, 1, 2, 2, 2, 2, 2]
    lam = np.zeros((10, 3))
    lam[np.arange(10), groups] = rng.uniform(0.8, 1.2, size=10)
    phi = np.array([[1.0, 0.4, 0.3], [0.4, 1.0, 0.5], [0.3, 0.5, 1.0]])
    factors = rng.multivariate_normal(np.zeros(3), phi, size=n)
    x = factors @ lam.T + rng.normal(size=(n, 10)) * rng.uniform(0.5, 0.9, size=10)
    return np.cov(x, rowvar=False, ddof=1), n


def _lbfgs_oracle(model, s):
    """scipy's L-BFGS-B on the same objective, with central-difference gradients."""
    from scipy.optimize import minimize

    def value(v):
        try:
            return ml_discrepancy(s, implied_covariance(model, _natural(model, v)))
        except CeraError:
            return 1e6

    def jac(v):
        h = 1e-7
        return np.array([(value(v + e) - value(v - e)) / (2 * h) for e in h * np.eye(v.size)])

    result = minimize(value, _start(model, s), jac=jac, method="L-BFGS-B",
                      options={"gtol": 1e-10, "ftol": 1e-16, "maxiter": 2000})
    return _natural(model, result.x), float(result.fun)


@pytest.mark.parametrize("spec", [None, FREE_LOADINGS], ids=["packaged", "free_loadings"])
def test_fit_matches_lbfgs_oracle(spec):
    model = default_model() if spec is None else parse_model(spec)
    s, n = _simulated_sample()
    fit = fit_model(model, s, n)
    assert fit.converged and fit.heywood == ()
    assert fit.message == "gradient norm below tolerance"
    estimates, f_min = _lbfgs_oracle(model, s)
    assert fit.F_ML == pytest.approx(f_min, abs=1e-9)
    assert list(fit.estimates) == list(estimates)
    for name, value in estimates.items():
        assert fit.estimates[name] == pytest.approx(value, abs=1e-5), name


class TestOptimizerBranches:
    def test_ascending_step_replaced_by_steepest_descent(self, monkeypatch):
        s, n = _simulated_sample()
        expected = fit_model(default_model(), s, n)
        solve = numcore.lstsq_symmetric
        monkeypatch.setattr(numcore, "lstsq_symmetric", lambda a, b: [-v for v in solve(a, b)])
        fit = fit_model(default_model(), s, n)
        # Every reversed scoring step ascends; without the -g fallback the
        # line search would halve it to nothing and stop unconverged.
        assert fit.converged and fit.message == "gradient norm below tolerance"
        assert fit.F_ML == pytest.approx(expected.F_ML, abs=1e-9)
        for name, value in expected.estimates.items():
            assert fit.estimates[name] == pytest.approx(value, abs=1e-4), name

    def test_line_search_without_decrease_stops(self, monkeypatch):
        s, n = _simulated_sample(n=300)
        expected = fit_model(default_model(), s, n)
        monkeypatch.setattr(sem, "GRADIENT_TOL", 0.0)
        fit = fit_model(default_model(), s, n)
        assert not fit.converged and fit.message == "line search found no decrease"
        assert expected.iterations < fit.iterations < sem.MAX_ITERATIONS
        assert fit.F_ML == pytest.approx(expected.F_ML, abs=1e-12)

    def test_overflowing_log_variance_is_no_point(self):
        model = default_model()
        s = _simulated_sample()[0].tolist()
        x = model.start(s)
        x[model.logged.index(True)] = 1000.0  # exp(1000) overflows to inf
        assert _evaluate(model, s, 0.0, x) is None


class TestStandardized:
    def test_population_unit_variances(self):
        fit = fit_model(parse_model(ONE_FACTOR), one_factor_sigma(), 500)
        table = fit.standard_form
        assert table["loading f->y1"] == pytest.approx(0.8, abs=1e-3)
        assert table["residual y1"] == pytest.approx(0.36, abs=1e-3)

    def test_hand_arithmetic(self):
        model = parse_model(
            "[latents]\nf =1\n[loadings]\nf -> y free\n[residuals]\ny =0.36\n"
        )
        fit = fit_model(model, np.array([[4.0]]), 100)
        # Observed variance 4: loading scales by 1/2, residual by 1/4.
        table = fit.standard_form
        assert table["loading f->y"] == pytest.approx(
            fit.estimates["loading f->y"] / 2.0, rel=1e-12
        )
        assert table["residual y"] == pytest.approx(0.09, rel=1e-12)

    def test_covariance_becomes_correlation(self):
        model = parse_model(
            """
[latents]
f1 =4.0
f2 =9.0
[loadings]
f1 -> y1 =1
f2 -> y2 =1
[covariances]
f1 ~ f2 free
[residuals]
y1 =1
y2 =1
"""
        )
        fit = fit_model(model, np.array([[5.0, 3.0], [3.0, 10.0]]), 100)
        # Latent SDs 2 and 3: the covariance is divided by 6.
        table = fit.standard_form
        assert table["covariance f1~f2"] == pytest.approx(
            fit.estimates["covariance f1~f2"] / 6.0, rel=1e-12
        )
        assert table["covariance f1~f2"] == pytest.approx(0.5, abs=1e-6)


class TestCovarianceFromCards:
    def test_matches_unbiased_covariance(self):
        matrix = [[1.0, 2.0], [3.0, 1.0], [2.0, 5.0], [4.0, 3.0]]
        cards = make_cards(matrix, [Sector.PRIMARY] * 4, criterion_prefix="v")
        s, n = covariance_from_cards(cards, ["v1", "v2"])
        assert n == 4
        assert np.allclose(s, np.cov(np.array(matrix), rowvar=False, ddof=1))

    def test_column_order_follows_model(self):
        matrix = [[1.0, 10.0], [2.0, 20.0], [3.0, 35.0]]
        cards = make_cards(matrix, [Sector.PRIMARY] * 3, criterion_prefix="v")
        forward, _ = covariance_from_cards(cards, ["v1", "v2"])
        backward, _ = covariance_from_cards(cards, ["v2", "v1"])
        assert forward[0][0] == backward[1][1]
        assert forward[0][1] == backward[1][0]

    def test_too_few_cards(self):
        cards = make_cards([[1.0]], [Sector.PRIMARY], criterion_prefix="v")
        with pytest.raises(ValidationError):
            covariance_from_cards(cards, ["v1"])

    def test_card_missing_a_variable_named(self):
        cards = make_cards(np.random.default_rng(6).normal(size=(30, 2)), [Sector.PRIMARY] * 30,
                           criterion_prefix="v")
        cards.append(ScoreCard("late", Sector.PRIMARY, "en", {"v1": 1}, {"v1": 1.0}))
        with pytest.raises(ValidationError, match="report late has no score for criterion 'v2'"):
            covariance_from_cards(cards, ["v1", "v2"])

    def test_unknown_variable(self):
        cards = make_cards([[1.0], [2.0]], [Sector.PRIMARY] * 2, criterion_prefix="v")
        with pytest.raises(ValidationError, match="v9"):
            covariance_from_cards(cards, ["v9"])


class TestSerialization:
    def test_dict_and_json(self):
        fit = fit_model(parse_model(ONE_FACTOR), one_factor_sigma(), 500)
        payload = fit_to_dict(fit)
        assert set(payload) == {
            "estimates", "standardized_estimates", "F_ML", "chi_square",
            "df", "p", "n_cases", "acceptable_at_05", "convergence",
        }
        assert payload["convergence"]["converged"] is True
        assert json.loads(json.dumps(payload))["n_cases"] == 500

    def test_acceptable_property(self):
        fit = fit_model(parse_model(ONE_FACTOR), one_factor_sigma(), 500)
        assert fit.acceptable_at_05 == (fit.p > 0.05)

    def test_unconverged_fit_never_acceptable(self, monkeypatch):
        # A saturated model has df = 0 and so p = 1, fitted or not.
        monkeypatch.setattr(sem, "MAX_ITERATIONS", 0)
        fit = fit_model(parse_model(ONE_FACTOR), one_factor_sigma(), 500)
        assert fit.df == 0 and fit.p == 1.0
        assert not fit.converged
        assert fit.acceptable_at_05 is False
        assert fit_to_dict(fit)["acceptable_at_05"] is False
        text = emit_report(sem=fit)
        assert "acceptable at the 5% level (p > 0.05): no" in text
