"""Covariance structure models with latent constructs, fit by maximum likelihood.

A model is a measurement structure: observed variables load on latent
constructs (Sigma = Lambda Phi Lambda' + Theta). Models are written in a
small text config, parsed straight into matrix cells, fit to a
sample covariance matrix by Fisher scoring on the ML discrepancy with
analytic derivatives (Joreskog 1969; Lee & Jennrich 1979), and reported
as chi-square / df / p plus standardized estimates. The arithmetic is plain
Python on lists of rows (``numcore``); a covariance matrix passed in may be
any array-like.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple, Sequence

from . import numcore
from .errors import (
    ConditioningError,
    IdentificationError,
    ParameterBoundsError,
    ValidationError,
)
from .numcore import dot, total
from .scoring import ScoreCard, config_sections, load_config, packaged_text, score_rows

# Residual variances this far below the observed variance are flagged as
# boundary (Heywood) solutions.
HEYWOOD_RTOL = 1e-6

GRADIENT_TOL = 1e-6
MAX_ITERATIONS = 500
# Sufficient-decrease constant of the Armijo backtracking rule.
ARMIJO_C = 1e-4

# Matrix of a parameter's cell: Lambda (observed x latent), Phi, or Theta.
_LAMBDA, _PHI, _THETA = range(3)

Cell = tuple[int, int, int]


class SemModelSpec:
    """A model as matrix cells.

    ``parameters`` holds (name, fixed value or None when free, cell) for every
    parameter in model order: loadings, latent variances, latent covariances,
    residual variances. A cell is (matrix, row, column), indexing
    ``observed_vars`` and ``latent_vars``. Variances (diagonal cells of Phi
    and Theta) enter the optimizer as logarithms, so they stay positive
    without bounds. ``free_cells`` and ``logged``, which every optimizer step
    reads, are derived once when the model is made; models with the same
    three fields are equal.
    """

    def __init__(
        self,
        observed_vars: tuple[str, ...],
        latent_vars: tuple[str, ...],
        parameters: tuple[tuple[str, float | None, Cell], ...],
    ):
        self.observed_vars = observed_vars
        self.latent_vars = latent_vars
        self.parameters = parameters
        self.free_cells = tuple(cell for _, fixed, cell in parameters if fixed is None)
        # Per free cell: whether the optimizer holds its logarithm.
        self.logged = tuple(k != _LAMBDA and i == j for k, i, j in self.free_cells)

    def __eq__(self, other) -> bool:
        return type(other) is SemModelSpec and vars(other) == vars(self)

    @property
    def n_observed(self) -> int:
        return len(self.observed_vars)

    def free_parameter_names(self) -> list[str]:
        """Free parameters in optimizer order: loadings, latent variances,
        latent covariances, residual variances."""
        return [name for name, fixed, _ in self.parameters if fixed is None]

    @property
    def free_parameter_count(self) -> int:
        return len(self.free_cells)

    @property
    def degrees_of_freedom(self) -> int:
        p = self.n_observed
        return p * (p + 1) // 2 - self.free_parameter_count

    def matrices(self, values) -> list[list[list[float]]]:
        """Lambda, Phi and Theta with the fixed values in place and the free
        cells set to ``values``."""
        p, m = self.n_observed, len(self.latent_vars)
        mats = [[[0.0] * m for _ in range(p)], [[0.0] * m for _ in range(m)],
                [[0.0] * p for _ in range(p)]]
        values = iter(values)
        for _, fixed, cell in self.parameters:
            _put(mats, cell, next(values) if fixed is None else fixed)
        return mats

    def natural(self, x) -> list[float]:
        return [_exp(v) if logged else v for v, logged in zip(x, self.logged)]

    def start(self, s: list[list[float]]) -> list[float]:
        """Deterministic starts: loadings 0.5, residuals half the observed variance,
        latent covariances 0, free latent variances 1 (all in optimizer space)."""
        return [
            0.5 if k == _LAMBDA else math.log(0.5 * s[i][i]) if k == _THETA else 0.0
            for k, i, _ in self.free_cells
        ]


def _exp(x: float) -> float:
    """exp(x), infinite where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _put(mats: Sequence[list[list[float]]], cell: Cell, value: float) -> None:
    k, i, j = cell
    mats[k][i][j] = value
    if k != _LAMBDA:
        mats[k][j][i] = value


class SemFit(NamedTuple):
    estimates: dict[str, float]
    standard_form: dict[str, float]
    F_ML: float
    chi_square: float
    df: int
    p: float
    converged: bool
    iterations: int
    n_cases: int
    heywood: tuple[str, ...] = ()
    message: str = ""

    @property
    def acceptable_at_05(self) -> bool:
        """Fit deemed acceptable when it converged and the chi-square p-value exceeds 0.05."""
        return self.converged and self.p > 0.05


def _parse_status(tokens: list[str], context: str) -> float | None:
    """`free` -> None; `=value` -> fixed value, which must be a finite number."""
    if len(tokens) != 1:
        raise ValidationError(f"expected one status token in {context}")
    tok = tokens[0]
    if tok == "free":
        return None
    if tok.startswith("="):
        try:
            value = float(tok[1:])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValidationError(f"bad fixed value {tok!r} in {context}")
        return value
    raise ValidationError(f"expected 'free' or '=value' in {context}, got {tok!r}")


def _parse_variance(tokens: list[str], context: str) -> float | None:
    """A variance status: as `_parse_status`, but a fixed value may not be negative."""
    value = _parse_status(tokens, context)
    if value is not None and value < 0:
        raise ValidationError(f"negative fixed variance in {context}")
    return value


def parse_model(spec_text: str) -> SemModelSpec:
    """Parse the model config format.

    Sections ([latents], [loadings], [covariances], [residuals]) hold one
    entry per line; `#` starts a comment. Latents default to variance fixed
    at 1 unless marked `free`; loadings are `latent -> observed free|=value`;
    covariances are `a ~ b free|=value` (unlisted pairs are fixed at 0);
    residuals are `observed free|=value` and their order defines the
    observed-variable order. A fixed value must be finite, a fixed variance
    may not be negative, and a fixed latent variance may not be zero.
    """
    sections: dict[str, list[str]] = {}
    for name, lines in config_sections(spec_text):
        name = name.lower()
        if name not in {"latents", "loadings", "covariances", "residuals"}:
            raise ValidationError(f"unknown section [{name}]")
        if name in sections:
            raise ValidationError(f"duplicate section [{name}]")
        sections[name] = lines
    for required in ("latents", "loadings", "residuals"):
        if required not in sections:
            raise ValidationError(f"missing section [{required}]")

    # [residuals] fixes the observed order, so it is read first.
    observed: dict[str, int] = {}
    residuals = []
    for line in sections["residuals"]:
        tokens = line.split()
        name = tokens[0]
        if name in observed:
            raise ValidationError(f"duplicate residual entry for {name!r}")
        observed[name] = i = len(observed)
        fixed = _parse_variance(tokens[1:] or ["free"], line)
        residuals.append((f"residual {name}", fixed, (_THETA, i, i)))
    if not observed:
        raise ValidationError("model has no observed variable")

    latent: dict[str, int] = {}
    variances = []
    for line in sections["latents"]:
        tokens = line.split()
        name = tokens[0]
        if name in latent:
            raise ValidationError(f"duplicate latent {name!r}")
        latent[name] = k = len(latent)
        # Default scaling: variance fixed at 1.
        fixed = 1.0 if len(tokens) == 1 else _parse_variance(tokens[1:], line)
        if fixed == 0:
            raise ValidationError(f"latent variance fixed at zero in {line}")
        variances.append((f"variance {name}", fixed, (_PHI, k, k)))

    seen: set[Cell] = set()
    loadings = []
    for line in sections["loadings"]:
        tokens = line.split()
        if len(tokens) < 3 or tokens[1] != "->":
            raise ValidationError(f"loading must be 'latent -> observed status': {line!r}")
        lv, ov = tokens[0], tokens[2]
        if lv not in latent:
            raise ValidationError(f"loading references undeclared latent {lv!r}")
        if ov not in observed:
            raise ValidationError(f"loading targets {ov!r}, which has no residual entry")
        cell = (_LAMBDA, observed[ov], latent[lv])
        if cell in seen:
            raise ValidationError(f"duplicate loading {lv}->{ov}")
        seen.add(cell)
        fixed = _parse_status(tokens[3:] or ["free"], line)
        loadings.append((f"loading {lv}->{ov}", fixed, cell))

    covariances = []
    for line in sections.get("covariances", []):
        tokens = line.split()
        if len(tokens) < 3 or tokens[1] != "~":
            raise ValidationError(f"covariance must be 'a ~ b status': {line!r}")
        a, b = tokens[0], tokens[2]
        for name in (a, b):
            if name not in latent:
                raise ValidationError(f"covariance references undeclared latent {name!r}")
        if a == b:
            raise ValidationError(f"use the [latents] section for the variance of {a!r}")
        cell = (_PHI, latent[a], latent[b])
        if cell in seen or (_PHI, latent[b], latent[a]) in seen:
            raise ValidationError(f"duplicate covariance {a}~{b}")
        seen.add(cell)
        fixed = _parse_status(tokens[3:] or ["free"], line)
        covariances.append((f"covariance {a}~{b}", fixed, cell))

    for lv, k in latent.items():
        anchors = [fixed is not None for _, fixed, cell in loadings if cell[2] == k]
        if not anchors:
            raise ValidationError(f"latent {lv!r} has no loadings")
        if variances[k][1] is None and not any(anchors):
            raise IdentificationError(
                f"latent {lv!r} has no scale constraint: fix its variance or one loading"
            )

    model = SemModelSpec(
        tuple(observed), tuple(latent), tuple(loadings + variances + covariances + residuals)
    )
    if model.degrees_of_freedom < 0:
        raise ValidationError(
            f"model has {model.free_parameter_count} free parameters but only "
            f"{model.n_observed * (model.n_observed + 1) // 2} covariance moments"
        )
    return model


def load_model(path) -> SemModelSpec:
    return load_config(path, "SEM model", parse_model)


def default_model() -> SemModelSpec:
    """Shipped example: three constructs over the ten criteria, 16 free parameters."""
    return parse_model(packaged_text("sem_model.txt"))


def _sigma(lam, phi, theta) -> tuple[list[list[float]], list[list[float]]]:
    """Sigma = Lambda Phi Lambda' + Theta, exactly symmetric, and Lambda Phi."""
    lam_phi = [[dot(row, col) for col in phi] for row in lam]  # Phi is symmetric
    p = len(lam)
    sigma = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            sigma[i][j] = sigma[j][i] = dot(lam_phi[i], lam[j]) + theta[i][j]
    return sigma, lam_phi


def _require(params: Mapping[str, float], key: str) -> float:
    if key not in params:
        raise ValidationError(f"missing value for free parameter {key!r}")
    return float(params[key])


def implied_covariance(
    model: SemModelSpec, params: Mapping[str, float]
) -> list[list[float]]:
    """Sigma(theta) = Lambda Phi Lambda' + Theta for the given assignment.

    Free residual variances must be strictly positive; a residual may sit at
    exactly 0 only when the model fixes it there.
    """
    free = model.free_parameter_names()
    lam, phi, theta = model.matrices([_require(params, name) for name in free])
    for i, ov in enumerate(model.observed_vars):
        value = theta[i][i]
        if value < 0 or ((_THETA, i, i) in model.free_cells and value <= 0):
            raise ParameterBoundsError(f"residual variance of {ov!r} must be positive, got {value}")
    return _sigma(lam, phi, theta)[0]


def _ml_value(
    s: list[list[float]], sigma: list[list[float]], logdet_s: float
) -> tuple[float, list[list[float]]] | None:
    """ln|Sigma| + tr(S Sigma^-1) - ln|S| - p, and Sigma^-1; None when Sigma
    is not PD."""
    chol = numcore.cholesky(sigma)
    if chol is None:
        return None
    sigma_inv = numcore.inverse_from_cholesky(chol)
    trace = total(map(dot, s, sigma_inv))  # both symmetric: sum of S_ij (Sigma^-1)_ij
    return numcore.log_det(chol) + trace - logdet_s - len(s), sigma_inv


def ml_discrepancy(s, sigma) -> float:
    """F_ML = ln|Sigma| + tr(S Sigma^-1) - ln|S| - p; zero iff Sigma = S."""
    s = numcore.check_symmetric(s, "S")
    sigma = numcore.check_symmetric(sigma, "sigma")
    if len(s) != len(sigma):
        raise ValidationError(f"shape mismatch: {numcore.shape(s)} vs {numcore.shape(sigma)}")
    logdet_s = numcore.log_det_pd(s, "sample covariance is not positive definite")
    result = _ml_value(s, sigma, logdet_s)
    if result is None:
        raise ConditioningError("implied covariance is not positive definite")
    value = result[0]
    # Roundoff at Sigma = S can land a hair below zero.
    return 0.0 if -1e-10 < value < 0.0 else value


def fd_gradient(
    func: Callable[[list[float]], float], x, eps: float | None = None
) -> list[float]:
    """Forward-difference gradient with per-coordinate steps scaled to |x_i|."""
    x = [float(v) for v in x]
    base = math.sqrt(numcore.EPS) if eps is None else eps
    f0 = func(x)
    grad = []
    for i, xi in enumerate(x):
        step = base * max(1.0, abs(xi))
        shifted = list(x)
        shifted[i] += step
        grad.append((func(shifted) - f0) / step)
    return grad


class _Point(NamedTuple):
    """One optimizer point with what the next scoring step needs."""

    x: list[float]
    value: float
    sigma: list[list[float]]
    sigma_inv: list[list[float]]
    lam_phi: list[list[float]]
    mats: list[list[list[float]]]
    natural: list[float]


def _evaluate(model: SemModelSpec, s, logdet_s: float, x) -> _Point | None:
    """F_ML at ``x``; None when Sigma(x) is not PD or a parameter is not finite."""
    natural = model.natural(x)
    if not all(map(math.isfinite, natural)):
        return None
    mats = model.matrices(natural)
    sigma, lam_phi = _sigma(*mats)
    result = _ml_value(s, sigma, logdet_s)
    if result is None:
        return None
    value, sigma_inv = result
    return _Point(list(x), value, sigma, sigma_inv, lam_phi, mats, natural)


def _score(model: SemModelSpec, s, point: _Point) -> tuple[list[float], list[list[float]]]:
    """Gradient of F_ML and the expected information at ``point``, in optimizer space.

    Each dSigma_a is c_a (x y' + y x') for two columns x, y of
    V = [I, Lambda Phi, Lambda]: a loading's x is e_i and y (Lambda Phi)_j, a
    latent (co)variance's x and y are lambda_i and lambda_j, a residual's both
    e_i, with c_a 1/2 on a diagonal cell and times the variance where it is
    log-parametrized (chain rule). With K = Sigma^-1 and G = V' K V,
    g_a = tr(K (Sigma - S) K dSigma_a) = 2 c_a (K x)' (Sigma - S) (K y) and
    H_ab = tr(K dSigma_a K dSigma_b) = 2 c_a c_b (G_yz G_xw + G_yw G_xz) for
    dSigma_b = c_b (z w' + w z').
    """
    lam = point.mats[_LAMBDA]
    p, m = len(lam), len(lam[0])
    sigma_inv = point.sigma_inv
    # K e_i is row i of the symmetric K, and e_i' K v is entry i of K v.
    factor_cols = [list(col) for col in zip(*point.lam_phi)] + [list(col) for col in zip(*lam)]
    k_v = [list(row) for row in sigma_inv]
    k_v += [[dot(row, v) for row in sigma_inv] for v in factor_cols]
    gram = [[u[i] for u in k_v] for i in range(p)]
    gram += [[dot(v, u) for u in k_v] for v in factor_cols]

    terms = []
    for (k, i, j), logged, value in zip(model.free_cells, model.logged, point.natural):
        scale = (0.5 if i == j and k != _LAMBDA else 1.0) * (value if logged else 1.0)
        if k == _LAMBDA:
            terms.append((i, p + j, scale))
        elif k == _PHI:
            terms.append((p + m + i, p + m + j, scale))
        else:
            terms.append((i, i, scale))
    resid = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(point.sigma, s)]
    resid_k_v = {y: [dot(row, k_v[y]) for row in resid] for y in {y for _, y, _ in terms}}
    grad = [2.0 * c * dot(k_v[x], resid_k_v[y]) for x, y, c in terms]
    q = len(terms)
    info = [[0.0] * q for _ in range(q)]
    for a, (x, y, c_a) in enumerate(terms):
        gx, gy = gram[x], gram[y]
        for b in range(a, q):
            z, w, c_b = terms[b]
            info[a][b] = info[b][a] = 2.0 * c_a * c_b * (gy[z] * gx[w] + gy[w] * gx[z])
    return grad, info


def _fisher_scoring(
    model: SemModelSpec, s: list[list[float]], logdet_s: float, point: _Point
) -> tuple[_Point, bool, int, str]:
    """Minimize F_ML from ``point`` by Fisher scoring with Armijo backtracking.

    The information can be singular (an unidentified direction at the
    start), so the step is the minimum-norm least-squares solution of
    H step = -g; a step that does not descend is replaced by -g. A trial
    point whose Sigma is not positive definite counts as +inf. Returns the
    last point, whether the gradient test was met, the number of steps
    taken, and why it stopped.
    """
    iterations = 0
    while True:
        grad, info = _score(model, s, point)
        if all(abs(g) < GRADIENT_TOL for g in grad):
            return point, True, iterations, "gradient norm below tolerance"
        if iterations == MAX_ITERATIONS:
            return point, False, iterations, "iteration limit reached"
        step = [-v for v in numcore.lstsq_symmetric(info, grad)]
        slope = dot(grad, step)
        if not slope < 0.0:
            step, slope = [-g for g in grad], -dot(grad, grad)
        t = 1.0
        while True:
            x = [xi + t * si for xi, si in zip(point.x, step)]
            if x == point.x:
                return point, False, iterations, "line search found no decrease"
            trial = _evaluate(model, s, logdet_s, x)
            if trial is not None and trial.value <= point.value + ARMIJO_C * t * slope:
                break
            t *= 0.5
        point = trial
        iterations += 1


def fit_model(model: SemModelSpec, s, n_cases: int) -> SemFit:
    """Minimize F_ML over the free parameters; chi_square = (N-1) * F_ML.

    Fisher scoring with the analytic gradient and expected information,
    backtracking by the Armijo rule; stops when the gradient infinity-norm
    falls below 1e-6 (converged) or after 500 scoring steps. Variances are
    optimized in log space, so they stay positive without explicit bounds.
    ``iterations`` counts scoring steps. A model with no free parameter is
    converged after 0 steps, with F_ML at its fixed values. An implied
    covariance that is not positive definite at the start values raises
    ConditioningError.
    """
    s = numcore.check_symmetric(s, "S")
    p = model.n_observed
    if len(s) != p:
        raise ValidationError(f"S must be {p}x{p} for this model, got {numcore.shape(s)}")
    if n_cases <= p:
        raise ValidationError(f"need more cases than variables: N={n_cases}, p={p}")
    logdet_s = numcore.log_det_pd(s, "sample covariance is not positive definite")
    if model.degrees_of_freedom < 0:
        raise ValidationError("model has negative degrees of freedom")

    point = _evaluate(model, s, logdet_s, model.start(s))
    if point is None:
        raise ConditioningError("implied covariance is not positive definite at the start values")
    if model.free_cells:
        point, converged, iterations, message = _fisher_scoring(model, s, logdet_s, point)
    else:
        converged, iterations, message = True, 0, "no free parameters"

    estimates = dict(zip(model.free_parameter_names(), point.natural))
    f_min = 0.0 if -1e-10 < point.value < 0.0 else point.value
    chi_square = (n_cases - 1) * f_min
    df = model.degrees_of_freedom
    p_value = numcore.chisq_sf(chi_square, df) if df > 0 else 1.0

    theta = point.mats[_THETA]
    heywood = tuple(
        ov
        for i, ov in enumerate(model.observed_vars)
        if (_THETA, i, i) in model.free_cells and theta[i][i] < HEYWOOD_RTOL * s[i][i]
    )
    standard_form = _standardize(model, point.mats, s) if converged else {}
    return SemFit(
        estimates=estimates,
        standard_form=standard_form,
        F_ML=f_min,
        chi_square=chi_square,
        df=df,
        p=p_value,
        converged=converged,
        iterations=iterations,
        n_cases=n_cases,
        heywood=heywood,
        message=message,
    )


def _standardize(
    model: SemModelSpec, mats: list[list[list[float]]], s: list[list[float]]
) -> dict[str, float]:
    """Loadings, latent correlations and residual shares on the unit-variance scale."""
    lam, phi, theta = mats
    obs_sd = [math.sqrt(s[i][i]) for i in range(len(s))]
    lat_sd = [math.sqrt(phi[i][i]) for i in range(len(phi))]
    table: dict[str, float] = {}
    for name, _, (k, i, j) in model.parameters:
        if k == _LAMBDA:
            table[name] = lam[i][j] * lat_sd[j] / obs_sd[i]
        elif k == _THETA:
            table[name] = theta[i][i] / (obs_sd[i] ** 2)
        elif i != j:
            denominator = lat_sd[i] * lat_sd[j]
            table[name] = phi[i][j] / denominator if denominator > 0 else 0.0
    return table


def covariance_from_cards(
    cards: Sequence[ScoreCard], observed_vars: Sequence[str]
) -> tuple[list[list[float]], int]:
    """Unbiased sample covariance of the score columns, in model order."""
    if len(cards) < 2:
        raise ValidationError("need at least 2 scorecards for a covariance matrix")
    for ov in observed_vars:
        if ov not in cards[0].scores:
            raise ValidationError(f"model variable {ov!r} not found in scorecards")
    _, centered = numcore.centered_columns(score_rows(cards, observed_vars))
    scale = 1 / (len(cards) - 1)
    return [[v * scale for v in row] for row in numcore.gram(centered)], len(cards)


def fit_to_dict(fit: SemFit) -> dict:
    return {
        "estimates": dict(fit.estimates),
        "standardized_estimates": dict(fit.standard_form),
        "F_ML": fit.F_ML,
        "chi_square": fit.chi_square,
        "df": fit.df,
        "p": fit.p,
        "n_cases": fit.n_cases,
        "acceptable_at_05": fit.acceptable_at_05,
        "convergence": {
            "converged": fit.converged,
            "iterations": fit.iterations,
            "message": fit.message,
            "heywood_variables": list(fit.heywood),
        },
    }
