"""Human-readable summary of a full analysis run.

The sector composition section always comes first, then ANOVA, discriminant
analysis and the structural equation model, each only when its result is
present. Layout and number formatting are deterministic: means 2 dp, test
statistics 3 dp, percentages and the hit rate 1 dp.
"""

from __future__ import annotations

import math

TYPE_CHECKING = False  # the command line imports this module at start-up, without typing
if TYPE_CHECKING:  # pragma: no cover
    from typing import Hashable

    from .anova import AnovaRow
    from .mda import MdaResult
    from .sem import SemFit


def _f3(x: float) -> str:
    return "NA" if math.isnan(x) else f"{x:.3f}"


def _compose_section(composition) -> list[str]:
    lines = ["SECTOR COMPOSITION", ""]
    total = sum(count for count, _ in composition.values())
    for group, (count, pct) in composition.items():
        lines.append(f"  {group:<12} {count:>5}  {pct:.2f}%")
    lines.append(f"  {'total':<12} {total:>5}")
    return lines


def _anova_section(rows: list[AnovaRow]) -> list[str]:
    from .scoring import Sector  # loaded with anova, which made the rows

    lines = ["ONE-WAY ANOVA BY SECTOR", ""]
    header = f"  {'variable':<10}" + "".join(f"{'mean_' + s:>16}" for s in Sector)
    header += f"{'grand_mean':>12}{'F':>10}{'p':>8}  sig"
    lines.append(header)
    for row in rows:
        cells = f"  {row.variable_id:<10}"
        cells += "".join(f"{row.group_means[s]:>16.2f}" for s in Sector)
        cells += f"{row.grand_mean:>12.2f}{_f3(row.F):>10}{_f3(row.p):>8}"
        cells += "    *" if row.significant_at_05 else ""
        lines.append(cells)
    return lines


def _mda_section(mda: MdaResult) -> list[str]:
    lines = ["DISCRIMINANT ANALYSIS", ""]
    eigen_text = ", ".join(f"{f.eigenvalue:.3f}" for f in mda.model.functions)
    lines.append(f"  canonical functions: {len(mda.model.functions)} (eigenvalues {eigen_text})")
    lines.append("  Wilks' Lambda tests:")
    for test in mda.wilks:
        lines.append(
            f"    functions {test.function_range}: Lambda {test.wilks_lambda:.3f}, "
            f"chi-square {test.chi_square:.3f}, df {test.df}, p {test.p:.3f}"
        )
    box = mda.box
    lines.append(
        f"  Box's M: {box.M:.3f} (F {box.F_approx:.3f}, df1 {box.df1}, "
        f"df2 {box.df2:.3f}, p {box.p:.3f})"
    )
    if box.p < 0.05:
        lines.append(
            "    warning: equality of group covariance matrices rejected at the 5% level"
        )
    lines.append("  classification (rows = actual, columns = predicted):")
    cm = mda.classification
    names = [str(g) for g in cm.group_order]
    lines.append("    " + f"{'':<12}" + "".join(f"{n:>12}" for n in names) + f"{'correct':>10}")
    for i, name in enumerate(names):
        row = "".join(f"{int(c):>12}" for c in cm.counts[i])
        lines.append(f"    {name:<12}{row}{cm.row_percentages[i][i]:>9.1f}%")
    lines.append(f"  hit rate: {cm.hit_rate:.1f}%")
    return lines


def _sem_section(sem: SemFit) -> list[str]:
    lines = ["STRUCTURAL EQUATION MODEL", ""]
    lines.append(
        f"  chi-square {sem.chi_square:.3f}, df {sem.df}, p {sem.p:.3f} "
        f"(N = {sem.n_cases})"
    )
    verdict = "yes" if sem.acceptable_at_05 else "no"
    lines.append(f"  acceptable at the 5% level (p > 0.05): {verdict}")
    status = "yes" if sem.converged else "no"
    lines.append(f"  converged: {status} ({sem.iterations} iterations)")
    if sem.heywood:
        lines.append(
            "  warning: residual variance at the zero bound for "
            + ", ".join(sem.heywood)
        )
    if sem.standard_form:
        lines.append("  standardized estimates:")
        for key, value in sem.standard_form.items():
            lines.append(f"    {key}: {value:.2f}")
    return lines


def emit_report(
    composition: dict[Hashable, tuple[int, float]],
    anova: list[AnovaRow] | None = None,
    mda: MdaResult | None = None,
    sem: SemFit | None = None,
) -> str:
    """The report text: the composition, then one section per analysis result given."""
    sections = [_compose_section(composition)]
    if anova is not None:
        sections.append(_anova_section(anova))
    if mda is not None:
        sections.append(_mda_section(mda))
    if sem is not None:
        sections.append(_sem_section(sem))
    return "\n\n".join("\n".join(s) for s in sections) + "\n"
