"""Multivariate discriminant analysis of sector membership from criterion scores.

Pipeline: pooled within-group and between-group scatter matrices, canonical
discriminant functions from the generalized eigenproblem B v = lambda W v,
Wilks' Lambda with Bartlett's chi-square approximation, Box's M test of
equal group covariance matrices, nearest-centroid classification in
canonical space, and per-case canonical scores. Data and results are plain
floats and lists (``numcore.Matrix`` for the scatter matrices and
classification counts); data may be any array-like of rows.
"""

from __future__ import annotations

import math
from typing import Hashable, NamedTuple, Sequence

from . import numcore
from .errors import ConditioningError, ValidationError
from .numcore import Matrix
from .scoring import ScoreCard, Sector, score_rows, write_table


class ScatterPair(NamedTuple):
    W: Matrix  # pooled within-group scatter, p x p
    B: Matrix  # between-group scatter, p x p
    group_sizes: dict[Hashable, int]
    group_means: dict[Hashable, list[float]]
    group_scatters: dict[Hashable, list[list[float]]]  # each group's term of W, p x p
    grand_mean: list[float]
    group_order: tuple[Hashable, ...]

    @property
    def n_total(self) -> int:
        return sum(self.group_sizes.values())

    @property
    def n_variables(self) -> int:
        return len(self.W)

    @property
    def n_groups(self) -> int:
        return len(self.group_order)


class CanonicalFunction(NamedTuple):
    index: int  # 1-based
    eigenvalue: float
    coefficients: list[float]
    group_centroids: dict[Hashable, float]


class WilksTest(NamedTuple):
    function_range: str  # "1 through 2", "2", ...
    wilks_lambda: float
    chi_square: float
    df: int
    p: float


class BoxMResult(NamedTuple):
    M: float
    F_approx: float
    df1: int
    df2: float
    p: float


class ClassificationMatrix(NamedTuple):
    group_order: tuple[Hashable, ...]
    counts: Matrix  # g x g, rows = actual, columns = predicted
    row_percentages: list[list[float]]  # rounded to 1 decimal
    hit_rate: float  # percent

    @classmethod
    def from_counts(cls, counts, group_order: Sequence[Hashable]) -> "ClassificationMatrix":
        counts = Matrix([int(c) for c in row] for row in counts)
        g = len(group_order)
        if len(counts) != g or any(len(row) != g for row in counts):
            raise ValidationError(f"counts must be {g}x{g}")
        row_sums = counts.sum(axis=1)
        if 0 in row_sums:
            raise ValidationError("classification matrix has an empty actual group")
        # Half-even rounding of the scaled value, as numpy's round(x, 1).
        percentages = [
            [round(100.0 * c / total * 10.0) / 10.0 for c in row]
            for row, total in zip(counts, row_sums)
        ]
        hit_rate = 100.0 * sum(counts[i][i] for i in range(g)) / counts.sum()
        return cls(tuple(group_order), counts, percentages, hit_rate)


class MdaModel(NamedTuple):
    criterion_ids: tuple[str, ...]
    scatter: ScatterPair
    functions: tuple[CanonicalFunction, ...]

    @property
    def eigenvalues(self) -> list[float]:
        return [f.eigenvalue for f in self.functions]


class CaseProjection(NamedTuple):
    report_id: str
    group: Hashable
    scores: tuple[float, ...]


def data_matrix(cards: Sequence[ScoreCard]) -> tuple[list[list[float]], list, list[str]]:
    """Stack scorecards into n rows of p scores plus sector labels."""
    if not cards:
        raise ValidationError("no scorecards")
    cids = cards[0].criterion_ids
    if not cids:
        raise ValidationError("scorecards have no criteria")
    x = score_rows(cards, cids)
    labels = [card.sector for card in cards]
    return x, labels, cids


def scatter_from_data(
    x, labels: Sequence[Hashable], group_order: Sequence[Hashable]
) -> ScatterPair:
    """Within/between scatter of raw (unnormalized) squared deviations.

    W sums (x - group mean) outer products over all cases; B sums
    n_g * (group mean - grand mean) outer products over groups, so
    W + B equals the total scatter about the grand mean. Every label must
    be in ``group_order``.
    """
    x = numcore.as_rows(x, "data")
    n, p = numcore.shape(x)
    if len(labels) != n:
        raise ValidationError("labels length does not match data rows")
    group_order = tuple(group_order)
    if len(group_order) < 2:
        raise ValidationError("need at least 2 groups")
    unknown = set(labels) - set(group_order)
    if unknown:
        raise ValidationError(f"labels not in group order: {sorted(map(str, unknown))}")
    indices = {g: [i for i, lab in enumerate(labels) if lab == g] for g in group_order}
    for g, idx in indices.items():
        if len(idx) < p + 1:
            raise ValidationError(
                f"group {g} has {len(idx)} cases; needs at least {p + 1} "
                f"for a nonsingular within-group scatter"
            )
    grand_mean = [numcore.total(col) / n for col in zip(*x)]
    w = [[0.0] * p for _ in range(p)]
    b = [[0.0] * p for _ in range(p)]
    group_sizes = {}
    group_means = {}
    group_scatters = {}
    for g in group_order:
        size = len(indices[g])
        mean_g, centered = numcore.centered_columns([x[i] for i in indices[g]])
        scatter = numcore.gram(centered)
        diff = [m - gm for m, gm in zip(mean_g, grand_mean)]
        for j in range(p):
            for k in range(p):
                w[j][k] += scatter[j][k]
                b[j][k] += size * (diff[j] * diff[k])
        group_sizes[g] = size
        group_means[g] = mean_g
        group_scatters[g] = scatter
    return ScatterPair(
        Matrix(w), Matrix(b), group_sizes, group_means, group_scatters, grand_mean, group_order
    )


def canonical_functions(sp: ScatterPair) -> list[CanonicalFunction]:
    """Top min(p, g-1) discriminant functions of the pencil (B, W).

    Coefficients satisfy v' W v = 1 with the first nonzero component
    positive; centroids are the projected group means (grand-mean centered).
    """
    try:
        pairs = numcore.generalized_eigen(sp.B, sp.W)
    except ConditioningError:
        raise ConditioningError(
            "within-group scatter is not positive definite; consider removing "
            "collinear or constant variables"
        ) from None
    n_funcs = min(sp.n_variables, sp.n_groups - 1)
    functions = []
    for i, (value, vector) in enumerate(pairs[:n_funcs], start=1):
        # Rank deficiency of B shows up as tiny negative roundoff.
        eigenvalue = 0.0 if -1e-10 < value < 0 else value
        centroids = {
            g: numcore.dot(vector, [m - gm for m, gm in zip(sp.group_means[g], sp.grand_mean)])
            for g in sp.group_order
        }
        functions.append(CanonicalFunction(i, eigenvalue, vector, centroids))
    return functions


def fit_mda_data(
    x,
    labels: Sequence[Hashable],
    group_order: Sequence[Hashable],
    criterion_ids: Sequence[str] | None = None,
) -> MdaModel:
    sp = scatter_from_data(x, labels, group_order)
    functions = canonical_functions(sp)
    if criterion_ids is None:
        criterion_ids = [f"x{i+1}" for i in range(sp.n_variables)]
    return MdaModel(tuple(criterion_ids), sp, tuple(functions))


def bartlett_chi_square(wilks_lambda: float, n_total: int, p: int, g: int) -> float:
    """Bartlett's approximation −(N − 1 − (p+g)/2) · ln(Λ)."""
    if not 0.0 < wilks_lambda <= 1.0:
        raise ValidationError(f"Wilks' Lambda must be in (0, 1], got {wilks_lambda}")
    return -(n_total - 1 - (p + g) / 2.0) * math.log(wilks_lambda)


def wilks_tests(eigenvalues: Sequence[float], n_total: int, p: int, g: int) -> list[WilksTest]:
    """Peel-off tests: for each k, Lambda_k multiplies 1/(1+lambda_i) over i >= k."""
    if n_total <= p + g:
        raise ValidationError(f"sample size {n_total} must exceed p + g = {p + g}")
    r = len(eigenvalues)
    tests = []
    for k in range(1, r + 1):
        lam = 1.0
        for value in eigenvalues[k - 1 :]:
            lam *= 1.0 / (1.0 + value)
        chi2 = bartlett_chi_square(lam, n_total, p, g)
        df = (p - k + 1) * (g - k)
        label = f"{k} through {r}" if k < r else f"{k}"
        tests.append(WilksTest(label, lam, chi2, df, numcore.chisq_sf(chi2, df)))
    return tests


def box_m_approximation(m_stat: float, group_sizes: Sequence[int], p: int) -> BoxMResult:
    """Map a Box's M statistic to its two-moment F approximation.

    Box's scaling constants c1 and c2 fix df1 = (g-1)p(p+1)/2 and the
    real-valued df2; the c2 > c1^2 and c2 < c1^2 regimes use different
    rescalings of M into the F statistic.
    """
    if m_stat < 0:
        raise ValidationError(f"M must be nonnegative, got {m_stat}")
    g = len(group_sizes)
    if g < 2:
        raise ValidationError("need at least 2 groups")
    n = sum(group_sizes)
    inv_dfs = [1.0 / (size - 1) for size in group_sizes]
    sum_inv, sum_inv_sq = numcore.total(inv_dfs), numcore.total(v * v for v in inv_dfs)
    c1 = (sum_inv - 1.0 / (n - g)) * (2 * p * p + 3 * p - 1) / (6.0 * (p + 1) * (g - 1))
    c2 = (sum_inv_sq - 1.0 / (n - g) ** 2) * (p - 1) * (p + 2) / (6.0 * (g - 1))
    df1 = (g - 1) * p * (p + 1) // 2
    if c2 > c1 * c1:
        df2 = (df1 + 2) / (c2 - c1 * c1)
        scale = df1 / (1.0 - c1 - df1 / df2)
        f_approx = m_stat / scale
    else:
        df2 = (df1 + 2) / (c1 * c1 - c2)
        scale = df2 / (1.0 - c1 + 2.0 / df2)
        if m_stat >= scale:
            raise ConditioningError("Box's M exceeds its F-approximation range")
        f_approx = df2 * m_stat / (df1 * (scale - m_stat))
    p_value = numcore.f_sf(f_approx, df1, df2)
    return BoxMResult(float(m_stat), float(f_approx), int(df1), float(df2), p_value)


def _box_m(sp: ScatterPair) -> BoxMResult:
    """Box's M over the unbiased group covariances S_g / (n_g - 1) of a fitted scatter.

    M = (N-g) * ln|S_pooled| - sum (n_g - 1) * ln|S_g|. Each S_g needs more
    than p cases to be nonsingular; W alone needs only N - g >= p.
    """
    sizes, order = sp.group_sizes, sp.group_order
    for grp in order:
        if sizes[grp] <= sp.n_variables:
            raise ValidationError(
                f"group {grp} has {sizes[grp]} cases; needs more than "
                f"{sp.n_variables} for a nonsingular covariance"
            )
    covs = {
        grp: [[v * (1 / (sizes[grp] - 1)) for v in row] for row in sp.group_scatters[grp]]
        for grp in order
    }
    pooled = [
        [numcore.total((sizes[grp] - 1) * covs[grp][j][k] for grp in order)
         / (sp.n_total - sp.n_groups)
         for k in range(sp.n_variables)]
        for j in range(sp.n_variables)
    ]
    singular = "{} covariance matrix is singular"
    m_stat = (sp.n_total - sp.n_groups) * numcore.log_det_pd(pooled, singular.format("pooled"))
    for grp in order:
        m_stat -= (sizes[grp] - 1) * numcore.log_det_pd(covs[grp], singular.format(f"group {grp}"))
    m_stat = max(m_stat, 0.0)
    return box_m_approximation(m_stat, [sizes[grp] for grp in order], sp.n_variables)


def box_m_from_data(
    x, labels: Sequence[Hashable], group_order: Sequence[Hashable]
) -> BoxMResult:
    """Box's M test of equal group covariances, with its F approximation.

    The cases are grouped as for the discriminant fit (:func:`scatter_from_data`),
    which raises the same errors; see :func:`_box_m` for the statistic.
    """
    return _box_m(scatter_from_data(x, labels, group_order))


def _project(x: list[list[float]], model: MdaModel) -> list[list[float]]:
    """Each case's canonical scores: (x - grand mean) times each function's coefficients."""
    grand_mean = model.scatter.grand_mean
    vectors = [f.coefficients for f in model.functions]
    scores = []
    for row in x:
        centered = [v - m for v, m in zip(row, grand_mean)]
        scores.append([numcore.dot(centered, vector) for vector in vectors])
    return scores


def classify_data(
    x, labels: Sequence[Hashable], model: MdaModel
) -> ClassificationMatrix:
    """Resubstitution-style confusion matrix: nearest centroid in canonical space."""
    unknown = set(labels) - set(model.scatter.group_order)
    if unknown:
        raise ValidationError(
            f"labels not in fitted model: {sorted(map(str, unknown))}"
        )
    x = numcore.as_rows(x, "data")
    if x and len(x[0]) != model.scatter.n_variables:
        raise ValidationError(
            f"data has {len(x[0])} columns; the model has {model.scatter.n_variables}"
        )
    return _classify_scores(_project(x, model), labels, model)


def _classify_scores(
    scores: list[list[float]], labels: Sequence[Hashable], model: MdaModel
) -> ClassificationMatrix:
    order = model.scatter.group_order
    index = {g: i for i, g in enumerate(order)}
    centroids = [[f.group_centroids[g] for f in model.functions] for g in order]
    counts = [[0] * len(order) for _ in order]
    for row, actual in zip(scores, labels):
        # The first nearest centroid wins a tie.
        nearest = min(range(len(order)), key=lambda k: math.dist(centroids[k], row))
        counts[index[actual]][nearest] += 1
    return ClassificationMatrix.from_counts(counts, order)


class MdaResult(NamedTuple):
    model: MdaModel
    wilks: list[WilksTest]
    box: BoxMResult
    classification: ClassificationMatrix
    projections: list[CaseProjection]  # card order


def write_case_scores_csv(result: MdaResult, path) -> None:
    n_functions = len(result.model.functions)
    header = ["report_id", "group"] + [f"score_f{i+1}" for i in range(n_functions)]
    rows = (
        [case.report_id, str(case.group), *map(repr, case.scores)]
        for case in result.projections
    )
    write_table(path, header, rows)


def run_mda(cards: Sequence[ScoreCard]) -> MdaResult:
    x, labels, cids = data_matrix(cards)
    order = [s for s in Sector if s in set(labels)]
    model = fit_mda_data(x, labels, order, criterion_ids=cids)
    sp = model.scatter
    wilks = wilks_tests(model.eigenvalues, sp.n_total, sp.n_variables, sp.n_groups)
    box = _box_m(sp)
    scores = _project(x, model)  # labels come from the fit, so none is unknown
    classification = _classify_scores(scores, labels, model)
    projections = [
        CaseProjection(card.report_id, label, tuple(row))
        for card, label, row in zip(cards, labels, scores)
    ]
    return MdaResult(model, wilks, box, classification, projections)


def mda_result_to_dict(result: MdaResult) -> dict:
    model = result.model
    order = [str(g) for g in model.scatter.group_order]
    return {
        "criteria": list(model.criterion_ids),
        "groups": order,
        "group_sizes": {
            str(g): model.scatter.group_sizes[g] for g in model.scatter.group_order
        },
        "functions": [
            {
                "index": f.index,
                "eigenvalue": f.eigenvalue,
                "coefficients": list(f.coefficients),
                "centroids": {
                    str(g): f.group_centroids[g] for g in model.scatter.group_order
                },
            }
            for f in model.functions
        ],
        "wilks_tests": [
            {
                "functions": t.function_range,
                "wilks_lambda": t.wilks_lambda,
                "chi_square": t.chi_square,
                "df": t.df,
                "p": t.p,
            }
            for t in result.wilks
        ],
        "box_m": {
            "M": result.box.M,
            "F_approx": result.box.F_approx,
            "df1": result.box.df1,
            "df2": result.box.df2,
            "p": result.box.p,
            "equal_covariance_rejected_at_05": result.box.p < 0.05,
        },
        "classification": {
            "counts": [list(row) for row in result.classification.counts],
            "row_percentages": [list(row) for row in result.classification.row_percentages],
            "hit_rate_percent": result.classification.hit_rate,
        },
    }
