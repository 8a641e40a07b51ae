import dataclasses
import math

import numpy as np
import pytest

from cera.anova import AnovaRow, anova_table
from cera.cli import run_subcommand
from cera.errors import ValidationError
from cera.mda import ClassificationMatrix, run_mda
from cera.miner import Sector
from cera.report import emit_report
from cera.scoring import read_scorecards_csv, sector_composition
from cera.sem import SemFit

from conftest import MANIFEST, make_cards


def sample_composition():
    return {
        Sector.PRIMARY: (117, 21.71),
        Sector.SECONDARY: (299, 55.47),
        Sector.TERTIARY: (123, 22.82),
    }


def sample_anova_rows():
    means = {Sector.PRIMARY: 4.9, Sector.SECONDARY: 5.5, Sector.TERTIARY: 4.2}
    return [
        AnovaRow("v1", means, 5.0, 5.127, 0.006, True),
        AnovaRow("v2", means, 5.0, math.nan, math.nan, False, degenerate=True),
    ]


def sample_mda_result():
    rng = np.random.default_rng(3)
    matrix = np.vstack([rng.normal(loc, 1.0, size=(8, 3)) for loc in (0.0, 1.2, 2.4)])
    labels = [Sector.PRIMARY] * 8 + [Sector.SECONDARY] * 8 + [Sector.TERTIARY] * 8
    return run_mda(make_cards(matrix, labels))


def sample_sem_fit(**overrides):
    base = dict(
        estimates={"loading f->v1": 0.71},
        standard_form={"loading f->v1": 0.64, "residual v1": 0.59},
        F_ML=0.31, chi_square=167.2, df=39, p=0.001,
        converged=True, iterations=48, n_cases=539,
    )
    base.update(overrides)
    return SemFit(**base)


class TestSections:
    def test_fixed_section_order(self):
        text = emit_report(
            sample_composition(), sample_anova_rows(), sample_mda_result(), sample_sem_fit()
        )
        positions = [
            text.index("SECTOR COMPOSITION"),
            text.index("ONE-WAY ANOVA BY SECTOR"),
            text.index("DISCRIMINANT ANALYSIS"),
            text.index("STRUCTURAL EQUATION MODEL"),
        ]
        assert positions == sorted(positions)
        assert text.endswith("\n")

    def test_composition_lines(self):
        text = emit_report(composition=sample_composition())
        assert "  primary        117  21.71%" in text
        assert "  total          539" in text

    def test_anova_only_bundle(self):
        text = emit_report(anova=sample_anova_rows())
        assert text.startswith("ONE-WAY ANOVA BY SECTOR")
        assert "DISCRIMINANT" not in text
        lines = text.splitlines()
        v1 = next(line for line in lines if line.lstrip().startswith("v1"))
        assert "5.127" in v1 and "0.006" in v1 and v1.endswith("*")
        v2 = next(line for line in lines if line.lstrip().startswith("v2"))
        assert "NA" in v2 and not v2.endswith("*")

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            emit_report()

    def test_mda_section_content(self):
        text = emit_report(mda=sample_mda_result())
        assert "canonical functions: 2" in text
        assert "Wilks' Lambda tests:" in text
        assert "functions 1 through 2:" in text
        assert "Box's M:" in text
        assert "hit rate:" in text

    def test_reference_hit_rate_rendering(self):
        result = sample_mda_result()
        reference = ClassificationMatrix.from_counts(
            [[129, 55, 41], [51, 114, 32], [16, 22, 79]],
            result.classification.group_order,
        )
        patched = dataclasses.replace(result, classification=reference)
        text = emit_report(mda=patched)
        assert "hit rate: 59.7%" in text
        assert "57.3%" in text

    def test_sem_section_content(self):
        text = emit_report(sem=sample_sem_fit())
        assert "chi-square 167.200, df 39, p 0.001 (N = 539)" in text
        assert "acceptable at the 5% level (p > 0.05): no" in text
        assert "converged: yes (48 iterations)" in text
        assert "loading f->v1: 0.64" in text

    def test_sem_acceptable_and_heywood(self):
        fit = sample_sem_fit(p=0.21, chi_square=45.0, heywood=("v3",))
        text = emit_report(sem=fit)
        assert "acceptable at the 5% level (p > 0.05): yes" in text
        assert "zero bound for v3" in text

    def test_box_warning_only_when_rejected(self):
        result = sample_mda_result()
        text = emit_report(mda=result)
        warning = "equality of group covariance matrices rejected"
        assert (warning in text) == (result.box.p < 0.05)

    def test_blank_line_between_sections(self):
        text = emit_report(sample_composition(), sample_anova_rows(), None, None)
        assert "\n\nONE-WAY ANOVA BY SECTOR" in text


class TestWriteReport:
    def test_file_round_trip(self, tmp_path, capsys):
        # The fixture sample is too small for MDA and SEM, so `cera report`
        # renders the composition and ANOVA sections only.
        out = tmp_path / "out"
        assert run_subcommand(
            ["pipeline", "--manifest", str(MANIFEST), "--out-dir", str(out)]
        ) == 0
        cards = read_scorecards_csv(out / "scorecards.csv")
        path = tmp_path / "report.txt"
        assert run_subcommand(["report", "--out-dir", str(out), "--out", str(path)]) == 0
        capsys.readouterr()
        expected = emit_report(sector_composition(cards), anova_table(cards))
        assert path.read_text(encoding="utf-8") == expected
        assert b"\r" not in path.read_bytes()

    def test_anova_columns_follow_sector_order(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_subcommand(
            ["pipeline", "--manifest", str(MANIFEST), "--out-dir", str(out)]
        ) == 0
        header, *rows = (out / "scorecards.csv").read_text(encoding="utf-8").splitlines()
        reversed_cards = tmp_path / "reversed.csv"
        reversed_cards.write_text("\n".join([header, *rows[::-1]]) + "\n", encoding="utf-8")
        headers = []
        for cards in (out / "scorecards.csv", reversed_cards):
            path = tmp_path / f"{cards.stem}.txt"
            assert run_subcommand(
                ["report", "--out-dir", str(out), "--scorecards", str(cards), "--out", str(path)]
            ) == 0
            lines = path.read_text(encoding="utf-8").splitlines()
            headers.append(lines[lines.index("ONE-WAY ANOVA BY SECTOR") + 2])
        capsys.readouterr()
        assert headers[0] == headers[1]
        assert headers[0].split()[1:4] == ["mean_primary", "mean_secondary", "mean_tertiary"]
