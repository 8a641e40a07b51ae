"""Covariance structure models with latent constructs, fit by maximum likelihood.

A model is a measurement structure: observed variables load on latent
constructs (Sigma = Lambda Phi Lambda' + Theta). Models are written in a
small text config, fit to a sample covariance matrix by quasi-Newton
minimization of the ML discrepancy with finite-difference gradients, and
reported as chi-square / df / p plus standardized estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from . import numcore
from .errors import (
    ConditioningError,
    IdentificationError,
    ParameterBoundsError,
    ValidationError,
)
from .scoring import ScoreCard

# Residual variances this far below the observed variance are flagged as
# boundary (Heywood) solutions.
HEYWOOD_RTOL = 1e-6

GRADIENT_TOL = 1e-6
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class Loading:
    latent: str
    observed: str
    fixed: float | None  # None = free

    @property
    def name(self) -> str:
        return f"loading {self.latent}->{self.observed}"


@dataclass(frozen=True)
class LatentCovariance:
    latent_a: str
    latent_b: str
    fixed: float | None

    @property
    def name(self) -> str:
        return f"covariance {self.latent_a}~{self.latent_b}"


@dataclass(frozen=True)
class SemModelSpec:
    observed_vars: tuple[str, ...]
    latent_vars: tuple[str, ...]
    loadings: tuple[Loading, ...]
    latent_variances: dict[str, float | None]  # None = free
    latent_covariances: tuple[LatentCovariance, ...]
    residual_variances: dict[str, float | None]  # keyed by observed, None = free

    @property
    def n_observed(self) -> int:
        return len(self.observed_vars)

    def free_parameter_names(self) -> list[str]:
        names = [ld.name for ld in self.loadings if ld.fixed is None]
        names += [
            f"variance {lv}" for lv in self.latent_vars if self.latent_variances[lv] is None
        ]
        names += [cv.name for cv in self.latent_covariances if cv.fixed is None]
        names += [
            f"residual {ov}"
            for ov in self.observed_vars
            if self.residual_variances[ov] is None
        ]
        return names

    @property
    def free_parameter_count(self) -> int:
        return len(self.free_parameter_names())

    @property
    def degrees_of_freedom(self) -> int:
        p = self.n_observed
        return p * (p + 1) // 2 - self.free_parameter_count


@dataclass(frozen=True)
class SemFit:
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
        """Fit deemed acceptable when the chi-square p-value exceeds 0.05."""
        return self.p > 0.05


def _parse_status(tokens: list[str], context: str) -> float | None:
    """`free` -> None; `=value` -> fixed value."""
    if len(tokens) != 1:
        raise ValidationError(f"expected one status token in {context}")
    tok = tokens[0]
    if tok == "free":
        return None
    if tok.startswith("="):
        try:
            return float(tok[1:])
        except ValueError:
            raise ValidationError(f"bad fixed value {tok!r} in {context}") from None
    raise ValidationError(f"expected 'free' or '=value' in {context}, got {tok!r}")


def parse_model(spec_text: str) -> SemModelSpec:
    """Parse the model config format.

    Sections ([latents], [loadings], [covariances], [residuals]) hold one
    entry per line; `#` starts a comment. Latents default to variance fixed
    at 1 unless marked `free`; loadings are `latent -> observed free|=value`;
    covariances are `a ~ b free|=value` (unlisted pairs are fixed at 0);
    residuals are `observed free|=value` and their order defines the
    observed-variable order.
    """
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for raw in spec_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in {"latents", "loadings", "covariances", "residuals"}:
                raise ValidationError(f"unknown section [{current}]")
            if current in sections:
                raise ValidationError(f"duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ValidationError(f"content before any section: {line!r}")
        sections[current].append(line)
    for required in ("latents", "loadings", "residuals"):
        if required not in sections:
            raise ValidationError(f"missing section [{required}]")

    latent_vars: list[str] = []
    latent_variances: dict[str, float | None] = {}
    for line in sections["latents"]:
        tokens = line.split()
        name = tokens[0]
        if name in latent_variances:
            raise ValidationError(f"duplicate latent {name!r}")
        latent_vars.append(name)
        # Default scaling: variance fixed at 1.
        latent_variances[name] = 1.0 if len(tokens) == 1 else _parse_status(tokens[1:], line)

    loadings: list[Loading] = []
    seen_loadings: set[tuple[str, str]] = set()
    for line in sections["loadings"]:
        tokens = line.split()
        if len(tokens) < 3 or tokens[1] != "->":
            raise ValidationError(f"loading must be 'latent -> observed status': {line!r}")
        latent, observed = tokens[0], tokens[2]
        if latent not in latent_variances:
            raise ValidationError(f"loading references undeclared latent {latent!r}")
        if (latent, observed) in seen_loadings:
            raise ValidationError(f"duplicate loading {latent}->{observed}")
        seen_loadings.add((latent, observed))
        loadings.append(Loading(latent, observed, _parse_status(tokens[3:] or ["free"], line)))

    covariances: list[LatentCovariance] = []
    seen_pairs: set[frozenset[str]] = set()
    for line in sections.get("covariances", []):
        tokens = line.split()
        if len(tokens) < 3 or tokens[1] != "~":
            raise ValidationError(f"covariance must be 'a ~ b status': {line!r}")
        a, b = tokens[0], tokens[2]
        for name in (a, b):
            if name not in latent_variances:
                raise ValidationError(f"covariance references undeclared latent {name!r}")
        if a == b:
            raise ValidationError(f"use the [latents] section for the variance of {a!r}")
        pair = frozenset((a, b))
        if pair in seen_pairs:
            raise ValidationError(f"duplicate covariance {a}~{b}")
        seen_pairs.add(pair)
        covariances.append(LatentCovariance(a, b, _parse_status(tokens[3:] or ["free"], line)))

    observed_vars: list[str] = []
    residuals: dict[str, float | None] = {}
    for line in sections["residuals"]:
        tokens = line.split()
        name = tokens[0]
        if name in residuals:
            raise ValidationError(f"duplicate residual entry for {name!r}")
        observed_vars.append(name)
        residuals[name] = _parse_status(tokens[1:] or ["free"], line)

    for ld in loadings:
        if ld.observed not in residuals:
            raise ValidationError(
                f"loading targets {ld.observed!r}, which has no residual entry"
            )
    loaded = {ld.latent for ld in loadings}
    for lv in latent_vars:
        if lv not in loaded:
            raise ValidationError(f"latent {lv!r} has no loadings")
        identified = latent_variances[lv] is not None or any(
            ld.fixed is not None for ld in loadings if ld.latent == lv
        )
        if not identified:
            raise IdentificationError(
                f"latent {lv!r} has no scale constraint: fix its variance or one loading"
            )

    model = SemModelSpec(
        tuple(observed_vars),
        tuple(latent_vars),
        tuple(loadings),
        latent_variances,
        tuple(covariances),
        residuals,
    )
    if model.degrees_of_freedom < 0:
        raise ValidationError(
            f"model has {model.free_parameter_count} free parameters but only "
            f"{model.n_observed * (model.n_observed + 1) // 2} covariance moments"
        )
    return model


def load_model(path) -> SemModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def default_model() -> SemModelSpec:
    """Shipped example: three constructs over the ten criteria, 16 free parameters."""
    text = resources.files("cera.data").joinpath("sem_model.txt").read_text(encoding="utf-8")
    return parse_model(text)


def _resolve_params(model: SemModelSpec, params: Mapping[str, float]) -> dict[str, float]:
    """Merge fixed values with the free-parameter assignment; reject gaps."""
    values: dict[str, float] = {}
    for ld in model.loadings:
        values[ld.name] = ld.fixed if ld.fixed is not None else _require(params, ld.name)
    for lv in model.latent_vars:
        fixed = model.latent_variances[lv]
        key = f"variance {lv}"
        values[key] = fixed if fixed is not None else _require(params, key)
    for cv in model.latent_covariances:
        values[cv.name] = cv.fixed if cv.fixed is not None else _require(params, cv.name)
    for ov in model.observed_vars:
        fixed = model.residual_variances[ov]
        key = f"residual {ov}"
        values[key] = fixed if fixed is not None else _require(params, key)
    return values


def _require(params: Mapping[str, float], key: str) -> float:
    if key not in params:
        raise ValidationError(f"missing value for free parameter {key!r}")
    return float(params[key])


def _assemble(model: SemModelSpec, values: Mapping[str, float]) -> np.ndarray:
    p = model.n_observed
    m = len(model.latent_vars)
    obs_index = {name: i for i, name in enumerate(model.observed_vars)}
    lat_index = {name: i for i, name in enumerate(model.latent_vars)}
    lam = np.zeros((p, m))
    for ld in model.loadings:
        lam[obs_index[ld.observed], lat_index[ld.latent]] = values[ld.name]
    phi = np.zeros((m, m))
    for lv in model.latent_vars:
        phi[lat_index[lv], lat_index[lv]] = values[f"variance {lv}"]
    for cv in model.latent_covariances:
        i, j = lat_index[cv.latent_a], lat_index[cv.latent_b]
        phi[i, j] = phi[j, i] = values[cv.name]
    theta = np.zeros((p, p))
    for ov in model.observed_vars:
        theta[obs_index[ov], obs_index[ov]] = values[f"residual {ov}"]
    sigma = lam @ phi @ lam.T + theta
    return 0.5 * (sigma + sigma.T)


def implied_covariance(model: SemModelSpec, params: Mapping[str, float]) -> np.ndarray:
    """Sigma(theta) = Lambda Phi Lambda' + Theta for the given assignment.

    Free residual variances must be strictly positive; a residual may sit at
    exactly 0 only when the model fixes it there.
    """
    values = _resolve_params(model, params)
    for ov in model.observed_vars:
        value = values[f"residual {ov}"]
        fixed = model.residual_variances[ov]
        if value < 0 or (fixed is None and value <= 0):
            raise ParameterBoundsError(f"residual variance of {ov!r} must be positive, got {value}")
    return _assemble(model, values)


def _chol_logdet(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    chol = np.linalg.cholesky(matrix)
    return chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def _ml_value(s: np.ndarray, sigma: np.ndarray, logdet_s: float, p: int) -> float:
    """ln|Sigma| + tr(S Sigma^-1) - ln|S| - p; LinAlgError when Sigma is not PD."""
    chol, logdet_sigma = _chol_logdet(sigma)
    inv_chol = scipy.linalg.solve_triangular(chol, np.eye(p), lower=True)
    trace = float(np.sum((inv_chol @ s) * inv_chol))
    return logdet_sigma + trace - logdet_s - p


def ml_discrepancy(s, sigma, p: int | None = None) -> float:
    """F_ML = ln|Sigma| + tr(S Sigma^-1) - ln|S| - p; zero iff Sigma = S."""
    s = numcore.check_symmetric(s, "S")
    sigma = numcore.check_symmetric(sigma, "sigma")
    if s.shape != sigma.shape:
        raise ValidationError(f"shape mismatch: {s.shape} vs {sigma.shape}")
    if p is None:
        p = s.shape[0]
    try:
        _, logdet_s = _chol_logdet(s)
    except np.linalg.LinAlgError:
        raise ConditioningError("sample covariance is not positive definite") from None
    try:
        value = _ml_value(s, sigma, logdet_s, p)
    except np.linalg.LinAlgError:
        raise ConditioningError("implied covariance is not positive definite") from None
    # Roundoff at Sigma = S can land a hair below zero.
    return 0.0 if -1e-10 < value < 0.0 else value


def fd_gradient(
    func: Callable[[np.ndarray], float], x: np.ndarray, eps: float | None = None
) -> np.ndarray:
    """Forward-difference gradient with per-coordinate steps scaled to |x_i|."""
    x = np.asarray(x, dtype=float)
    base = math.sqrt(np.finfo(float).eps) if eps is None else eps
    f0 = func(x)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = base * max(1.0, abs(x[i]))
        shifted = x.copy()
        shifted[i] += step
        grad[i] = (func(shifted) - f0) / step
    return grad


def _start_vector(model: SemModelSpec, s: np.ndarray) -> np.ndarray:
    """Deterministic starts: loadings 0.5, residuals half the observed variance,
    latent covariances 0, free latent variances 1. Variances enter in log form."""
    obs_index = {name: i for i, name in enumerate(model.observed_vars)}
    start: list[float] = []
    for ld in model.loadings:
        if ld.fixed is None:
            start.append(0.5)
    for lv in model.latent_vars:
        if model.latent_variances[lv] is None:
            start.append(0.0)  # log(1.0)
    for cv in model.latent_covariances:
        if cv.fixed is None:
            start.append(0.0)
    for ov in model.observed_vars:
        if model.residual_variances[ov] is None:
            start.append(math.log(0.5 * s[obs_index[ov], obs_index[ov]]))
    return np.array(start, dtype=float)


def _unpack(model: SemModelSpec, x: np.ndarray) -> dict[str, float]:
    """Optimizer vector -> natural-space free-parameter assignment."""
    params: dict[str, float] = {}
    pos = 0
    for ld in model.loadings:
        if ld.fixed is None:
            params[ld.name] = float(x[pos])
            pos += 1
    for lv in model.latent_vars:
        if model.latent_variances[lv] is None:
            params[f"variance {lv}"] = math.exp(float(x[pos]))
            pos += 1
    for cv in model.latent_covariances:
        if cv.fixed is None:
            params[cv.name] = float(x[pos])
            pos += 1
    for ov in model.observed_vars:
        if model.residual_variances[ov] is None:
            params[f"residual {ov}"] = math.exp(float(x[pos]))
            pos += 1
    return params


def fit_model(model: SemModelSpec, s, n_cases: int) -> SemFit:
    """Minimize F_ML over the free parameters; chi_square = (N-1) * F_ML.

    Quasi-Newton (limited-memory BFGS) with forward-difference gradients;
    stops when the gradient infinity-norm falls below 1e-6 or after 500
    iterations. Variances are optimized in log space, so they stay positive
    without explicit bounds.
    """
    s = numcore.check_symmetric(s, "S")
    p = model.n_observed
    if s.shape != (p, p):
        raise ValidationError(f"S must be {p}x{p} for this model, got {s.shape}")
    if n_cases <= p:
        raise ValidationError(f"need more cases than variables: N={n_cases}, p={p}")
    try:
        _, logdet_s = _chol_logdet(s)
    except np.linalg.LinAlgError:
        raise ConditioningError("sample covariance is not positive definite") from None
    if model.degrees_of_freedom < 0:
        raise ValidationError("model has negative degrees of freedom")

    def objective(x: np.ndarray) -> float:
        sigma = _assemble(model, _resolve_params(model, _unpack(model, x)))
        try:
            return _ml_value(s, sigma, logdet_s, p)
        except np.linalg.LinAlgError:
            # Outside the PD region: penalize by how far the spectrum dips.
            eigmin = float(np.linalg.eigvalsh(sigma)[0])
            return 1e6 * (1.0 - eigmin)

    x0 = _start_vector(model, s)
    if x0.size == 0:
        result_x = x0
        f_min = objective(x0)
        converged, iterations, message = True, 0, "no free parameters"
    else:
        result = scipy.optimize.minimize(
            objective,
            x0,
            jac=lambda x: fd_gradient(objective, x),
            method="L-BFGS-B",
            options={
                "maxiter": MAX_ITERATIONS,
                "gtol": GRADIENT_TOL,
                "ftol": 1e-14,
                "maxfun": 200_000,
            },
        )
        result_x = np.asarray(result.x, dtype=float)
        f_min = float(result.fun)
        converged = result.status == 0
        iterations = int(result.nit)
        message = str(result.message)

    estimates = _unpack(model, result_x)
    f_min = 0.0 if -1e-10 < f_min < 0.0 else f_min
    chi_square = (n_cases - 1) * f_min
    df = model.degrees_of_freedom
    p_value = numcore.chisq_sf(chi_square, df) if df > 0 else 1.0

    values = _resolve_params(model, estimates)
    obs_index = {name: i for i, name in enumerate(model.observed_vars)}
    heywood = tuple(
        ov
        for ov in model.observed_vars
        if model.residual_variances[ov] is None
        and values[f"residual {ov}"] < HEYWOOD_RTOL * s[obs_index[ov], obs_index[ov]]
    )
    standard_form = (
        _standardize(model, values, s) if converged else {}
    )
    return SemFit(
        estimates=estimates,
        standard_form=standard_form,
        F_ML=float(f_min),
        chi_square=float(chi_square),
        df=df,
        p=float(p_value),
        converged=converged,
        iterations=iterations,
        n_cases=n_cases,
        heywood=heywood,
        message=message,
    )


def _standardize(
    model: SemModelSpec, values: Mapping[str, float], s: np.ndarray
) -> dict[str, float]:
    obs_index = {name: i for i, name in enumerate(model.observed_vars)}
    obs_sd: dict[str, float] = {}
    for ov in model.observed_vars:
        variance = float(s[obs_index[ov], obs_index[ov]])
        if variance <= 0:
            raise ValidationError(f"observed variable {ov!r} has non-positive variance")
        obs_sd[ov] = math.sqrt(variance)
    lat_sd = {
        lv: math.sqrt(values[f"variance {lv}"]) for lv in model.latent_vars
    }
    table: dict[str, float] = {}
    for ld in model.loadings:
        table[ld.name] = values[ld.name] * lat_sd[ld.latent] / obs_sd[ld.observed]
    for cv in model.latent_covariances:
        denominator = lat_sd[cv.latent_a] * lat_sd[cv.latent_b]
        table[cv.name] = values[cv.name] / denominator if denominator > 0 else 0.0
    for ov in model.observed_vars:
        table[f"residual {ov}"] = values[f"residual {ov}"] / (obs_sd[ov] ** 2)
    return table


def covariance_from_cards(
    cards: Sequence[ScoreCard], observed_vars: Sequence[str]
) -> tuple[np.ndarray, int]:
    """Unbiased sample covariance of the score columns, in model order."""
    if len(cards) < 2:
        raise ValidationError("need at least 2 scorecards for a covariance matrix")
    for ov in observed_vars:
        if ov not in cards[0].scores:
            raise ValidationError(f"model variable {ov!r} not found in scorecards")
    x = np.array(
        [[card.scores[ov] for ov in observed_vars] for card in cards], dtype=float
    )
    return np.cov(x, rowvar=False, ddof=1), len(cards)


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
