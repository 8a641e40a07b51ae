import math
import random

import pytest

from cera.anova import AnovaRow, GroupedSample, anova_table, one_way_anova, write_anova_csv
from cera.errors import ValidationError
from cera.miner import Sector
from cera.scoring import ScoreCard

from conftest import FIXTURE_SECTORS, FIXTURE_SCORES, make_cards


def sample_from_groups(groups) -> GroupedSample:
    values, labels = [], []
    for idx, group in enumerate(groups):
        values.extend(group)
        labels.extend([f"g{idx}"] * len(group))
    return GroupedSample(tuple(values), tuple(labels))


def brute_force_f(groups):
    # Direct transcription of the sum-of-squares decomposition.
    all_values = [v for g in groups for v in g]
    n = len(all_values)
    grand = sum(all_values) / n
    ssb = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups)
    ssw = sum((v - sum(g) / len(g)) ** 2 for g in groups for v in g)
    return (ssb / (len(groups) - 1)) / (ssw / (n - len(groups)))


class TestOneWayAnova:
    def test_identical_groups(self):
        row = one_way_anova(sample_from_groups([[1, 2, 3], [1, 2, 3]]))
        assert row.F == 0.0
        assert row.p == 1.0

    def test_shifted_groups(self):
        # Means 2 and 3, grand mean 2.5:
        # SSB = 3*(2-2.5)^2 + 3*(3-2.5)^2 = 1.5, SSW = 2 + 2 = 4,
        # F = (1.5/1) / (4/4) = 1.5.
        row = one_way_anova(sample_from_groups([[1, 2, 3], [2, 3, 4]]))
        assert row.F == pytest.approx(1.5, rel=1e-12)
        assert row.group_means == {"g0": 2.0, "g1": 3.0}
        assert row.grand_mean == 2.5

    def test_against_brute_force(self):
        rng = random.Random(4101)
        for _ in range(50):
            groups = [
                [rng.uniform(-5, 5) for _ in range(rng.randint(3, 12))]
                for _ in range(rng.randint(2, 5))
            ]
            row = one_way_anova(sample_from_groups(groups))
            assert row.F == pytest.approx(brute_force_f(groups), rel=1e-10)
            assert 0.0 <= row.p <= 1.0
            assert row.significant_at_05 == (row.p < 0.05)

    def test_zero_within_variance(self):
        # Every group is constant, so SSW = 0 and F is undefined: the row
        # still carries the means, with NaN F and p, and is marked.
        row = one_way_anova(sample_from_groups([[2, 2, 2], [5, 5, 5, 5]]), variable_id="v2")
        assert math.isnan(row.F) and math.isnan(row.p)
        assert row.degenerate and not row.significant_at_05
        assert row.group_means == {"g0": 2.0, "g1": 5.0}
        assert row.grand_mean == 26 / 7
        assert row.variable_id == "v2"

    def test_too_few_groups(self):
        with pytest.raises(ValidationError):
            one_way_anova(sample_from_groups([[1, 2, 3]]))

    def test_singleton_group(self):
        with pytest.raises(ValidationError):
            one_way_anova(sample_from_groups([[1, 2], [3]]))

    def test_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            GroupedSample((1.0, 2.0), ("a",))

    def test_shift_invariance(self):
        groups = [[1.0, 2.0, 4.0], [2.0, 5.0, 3.0], [0.5, 1.5, 9.0]]
        base = one_way_anova(sample_from_groups(groups))
        shifted = one_way_anova(
            sample_from_groups([[v + 17.25 for v in g] for g in groups])
        )
        assert shifted.F == pytest.approx(base.F, rel=1e-9)
        assert shifted.p == pytest.approx(base.p, rel=1e-9)

    def test_scale_invariance(self):
        groups = [[1.0, 2.0, 4.0], [2.0, 5.0, 3.0]]
        base = one_way_anova(sample_from_groups(groups))
        scaled = one_way_anova(sample_from_groups([[v * 3.5 for v in g] for g in groups]))
        assert scaled.F == pytest.approx(base.F, rel=1e-9)

    def test_variable_id_carried(self):
        row = one_way_anova(sample_from_groups([[1, 2], [3, 5]]), variable_id="v7")
        assert row.variable_id == "v7"

    def test_interleaved_labels_equivalent(self):
        # Group membership is defined by labels, not input order.
        ordered = one_way_anova(
            GroupedSample((1.0, 2.0, 3.0, 4.0), ("a", "a", "b", "b"))
        )
        interleaved = one_way_anova(
            GroupedSample((1.0, 3.0, 2.0, 4.0), ("a", "b", "a", "b"))
        )
        assert interleaved.F == pytest.approx(ordered.F, rel=1e-12)


class TestAnovaTable:
    def test_no_separation_not_significant(self):
        # Same per-sector means with genuine within-sector spread: F = 0.
        matrix = [
            [1, 5], [3, 5], [2, 4],
            [1, 5], [3, 5], [2, 4],
            [1, 5], [3, 5], [2, 4],
        ]
        labels = [s for s in (Sector.PRIMARY, Sector.SECONDARY, Sector.TERTIARY) for _ in range(3)]
        rows = anova_table(make_cards(matrix, labels))
        assert len(rows) == 2
        for row in rows:
            assert row.F == pytest.approx(0.0, abs=1e-12)
            assert not row.significant_at_05

    def test_sector_shift_detected(self):
        rng = random.Random(5)
        matrix, labels = [], []
        for shift, sector in zip((0.0, 0.0, 6.0), Sector):
            for _ in range(10):
                matrix.append([rng.gauss(shift, 1.0), rng.gauss(0.0, 1.0)])
                labels.append(sector)
        rows = anova_table(make_cards(matrix, labels))
        assert rows[0].significant_at_05
        assert rows[0].p < 0.001
        assert not rows[1].significant_at_05

    def test_group_means_reported(self):
        matrix = [[2], [4], [6], [8], [1], [3]]
        labels = [
            Sector.PRIMARY, Sector.PRIMARY,
            Sector.SECONDARY, Sector.SECONDARY,
            Sector.TERTIARY, Sector.TERTIARY,
        ]
        rows = anova_table(make_cards(matrix, labels))
        assert rows[0].group_means[Sector.PRIMARY] == pytest.approx(3.0)
        assert rows[0].group_means[Sector.SECONDARY] == pytest.approx(7.0)
        assert rows[0].group_means[Sector.TERTIARY] == pytest.approx(2.0)
        assert rows[0].grand_mean == pytest.approx(4.0)

    def test_requires_all_three_sectors(self):
        matrix = [[1], [2], [3], [4]]
        labels = [Sector.PRIMARY, Sector.PRIMARY, Sector.SECONDARY, Sector.SECONDARY]
        with pytest.raises(ValidationError, match="tertiary"):
            anova_table(make_cards(matrix, labels))

    def test_empty_sample(self):
        with pytest.raises(ValidationError):
            anova_table([])

    def test_degenerate_criterion_marked_not_fatal(self):
        # First column is constant everywhere: row keeps NaN instead of failing.
        matrix = [[7, 1], [7, 2], [7, 1], [7, 3], [7, 2], [7, 4]]
        labels = [
            Sector.PRIMARY, Sector.PRIMARY,
            Sector.SECONDARY, Sector.SECONDARY,
            Sector.TERTIARY, Sector.TERTIARY,
        ]
        rows = anova_table(make_cards(matrix, labels))
        assert rows[0].degenerate
        assert math.isnan(rows[0].F)
        assert math.isnan(rows[0].p)
        assert not rows[0].significant_at_05
        assert rows[0].group_means[Sector.PRIMARY] == 7.0
        assert not rows[1].degenerate
        assert math.isfinite(rows[1].F)

    def test_fixture_orders_rows_by_criterion(self):
        cards = make_cards(
            [FIXTURE_SCORES[r] for r in sorted(FIXTURE_SCORES)],
            [FIXTURE_SECTORS[r] for r in sorted(FIXTURE_SCORES)],
            criterion_prefix="v",
        )
        rows = anova_table(cards)
        assert [r.variable_id for r in rows] == [f"v{i + 1}" for i in range(10)]

    def test_card_missing_a_criterion_named(self):
        cards = make_cards([[1, 2], [2, 3], [3, 1], [4, 2], [5, 3], [6, 1]],
                           [s for s in Sector for _ in range(2)])
        cards.append(ScoreCard("late", Sector.PRIMARY, "en", {"c1": 1}, {"c1": 1.0}))
        with pytest.raises(ValidationError, match="report late has no score for criterion 'c2'"):
            anova_table(cards)


class TestAnovaCsv:
    def make_rows(self):
        means = {Sector.PRIMARY: 1.0, Sector.SECONDARY: 2.0, Sector.TERTIARY: 3.0}
        return [
            AnovaRow("v1", means, 2.0, 4.25, 0.0123, True),
            AnovaRow("v2", means, 2.0, math.nan, math.nan, False, degenerate=True),
        ]

    def test_layout(self, tmp_path):
        path = tmp_path / "anova.csv"
        write_anova_csv(self.make_rows(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "variable,mean_primary,mean_secondary,mean_tertiary,grand_mean,F,p,sig"
        fields = lines[1].split(",")
        assert fields[0] == "v1"
        assert float(fields[5]) == 4.25
        assert fields[7] == "*"

    def test_nan_rendered_as_na(self, tmp_path):
        path = tmp_path / "anova.csv"
        write_anova_csv(self.make_rows(), path)
        fields = path.read_text(encoding="utf-8").splitlines()[2].split(",")
        assert fields[5] == "NA" and fields[6] == "NA"
        assert fields[7] == ""

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "anova.csv"
        write_anova_csv(self.make_rows(), path)
        assert b"\r" not in path.read_bytes()

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "anova.csv"
        write_anova_csv([], path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_round_trip_precision(self, tmp_path):
        # repr() serialization keeps the statistic bit-exact through the file.
        path = tmp_path / "anova.csv"
        rows = self.make_rows()
        write_anova_csv(rows, path)
        fields = path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert float(fields[4]) == rows[0].grand_mean
        assert float(fields[6]) == rows[0].p
