"""One-way analysis of variance of criterion scores across industry sectors."""

from __future__ import annotations

import math
from typing import Hashable, NamedTuple, Sequence

from . import numcore
from .errors import ValidationError
from .scoring import ScoreCard, Sector, score_rows, write_table


class GroupedSample:
    """Values and their group labels, checked to pair up when made."""

    def __init__(self, values: tuple[float, ...], group_labels: tuple[Hashable, ...]):
        if len(values) != len(group_labels):
            raise ValidationError("values and group_labels differ in length")
        self.values = values
        self.group_labels = group_labels


class AnovaRow(NamedTuple):
    variable_id: str
    group_means: dict[Hashable, float]
    grand_mean: float
    F: float
    p: float
    significant_at_05: bool
    degenerate: bool = False


def _mean(values: Sequence[float]) -> float:
    """Mean of ``values``; ``fsum`` sums integer scores exactly, whatever their order."""
    return math.fsum(values) / len(values)


def one_way_anova(sample: GroupedSample, variable_id: str = "") -> AnovaRow:
    """F test of equal group means.

    F = [SSB/(g-1)] / [SSW/(N-g)] with SSB the size-weighted squared
    deviations of group means from the grand mean and SSW the pooled
    within-group squared deviations. When SSW is zero (every group
    constant) F is undefined: the row keeps its means, has NaN F and p,
    and is marked degenerate.
    """
    groups: dict[Hashable, list[float]] = {}
    for value, label in zip(sample.values, sample.group_labels):
        groups.setdefault(label, []).append(float(value))
    if len(groups) < 2:
        raise ValidationError("need at least 2 groups")
    if any(len(v) < 2 for v in groups.values()):
        raise ValidationError("every group needs at least 2 observations")

    n_total = len(sample.values)
    g = len(groups)
    grand_mean = _mean(sample.values)
    group_means = {label: _mean(vals) for label, vals in groups.items()}
    ssb = numcore.total(len(vals) * (group_means[label] - grand_mean) ** 2
                        for label, vals in groups.items())
    ssw = numcore.total((v - group_means[label]) ** 2
                        for label, vals in groups.items() for v in vals)
    degenerate = ssw <= 0.0
    if degenerate:
        f_stat = p = math.nan
    else:
        f_stat = (ssb / (g - 1)) / (ssw / (n_total - g))
        p = numcore.f_sf(f_stat, g - 1, n_total - g)
    return AnovaRow(
        variable_id=variable_id,
        group_means=group_means,
        grand_mean=grand_mean,
        F=f_stat,
        p=p,
        significant_at_05=p < 0.05,
        degenerate=degenerate,
    )


def anova_table(cards: Sequence[ScoreCard]) -> list[AnovaRow]:
    """One row per criterion, testing score means across the three sectors.

    A criterion whose scores are constant within every sector gets a
    degenerate row (see :func:`one_way_anova`), so the remaining criteria
    still report.
    """
    if not cards:
        raise ValidationError("no scorecards")
    present = {card.sector for card in cards}
    missing = [s.value for s in Sector if s not in present]
    if missing:
        raise ValidationError(f"sector(s) missing from sample: {', '.join(missing)}")
    cids = cards[0].criterion_ids
    labels = tuple(card.sector for card in cards)
    return [
        one_way_anova(GroupedSample(values, labels), variable_id=cid)
        for cid, values in zip(cids, zip(*score_rows(cards, cids)))
    ]


def write_anova_csv(rows: Sequence[AnovaRow], path) -> None:
    header = ["variable", *(f"mean_{s}" for s in Sector), "grand_mean", "F", "p", "sig"]
    lines = []
    for row in rows:
        f_text = "NA" if row.degenerate else repr(row.F)
        p_text = "NA" if row.degenerate else repr(row.p)
        lines.append(
            [
                row.variable_id,
                *(repr(row.group_means[s]) for s in Sector),
                repr(row.grand_mean),
                f_text,
                p_text,
                "*" if row.significant_at_05 else "",
            ]
        )
    write_table(path, header, lines)
