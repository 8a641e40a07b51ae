import json
import math

import numpy as np
import pytest

from cera import numcore
from cera.errors import ConditioningError, ValidationError
from cera.mda import (
    ClassificationMatrix,
    box_m_approximation,
    box_m_from_data,
    bartlett_chi_square,
    canonical_functions,
    classify_data,
    fit_mda_data,
    mda_result_to_dict,
    run_mda,
    scatter_from_data,
    wilks_tests,
    write_case_scores_csv,
)
from cera.miner import Sector
from cera.scoring import ScoreCard

from conftest import FIXTURE_SECTORS, FIXTURE_SCORES, make_cards


class TestScatter:
    def test_one_dimensional_hand_values(self):
        # Groups {0,2} and {4,6}: means 1 and 5, grand mean 3.
        # W = 1+1+1+1 = 4; B = 2*(1-3)^2 + 2*(5-3)^2 = 16.
        sp = scatter_from_data(
            np.array([[0.0], [2.0], [4.0], [6.0]]), ["a", "a", "b", "b"], ("a", "b")
        )
        assert sp.W[0][0] == pytest.approx(4.0, rel=1e-12)
        assert sp.B[0][0] == pytest.approx(16.0, rel=1e-12)
        assert sp.grand_mean[0] == 3.0
        assert sp.group_sizes == {"a": 2, "b": 2}
        assert sp.n_total == 4 and sp.n_variables == 1 and sp.n_groups == 2

    def test_constant_within_groups(self):
        sp = scatter_from_data(
            np.array([[1.0], [1.0], [5.0], [5.0]]), ["a", "a", "b", "b"], ("a", "b")
        )
        assert sp.W[0][0] == 0.0
        assert sp.B[0][0] == pytest.approx(16.0, rel=1e-12)

    def test_within_plus_between_equals_total(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(30, 4))
        labels = (["a"] * 10) + (["b"] * 10) + (["c"] * 10)
        sp = scatter_from_data(x, labels, ("a", "b", "c"))
        centered = x - x.mean(axis=0)
        total = centered.T @ centered
        assert np.allclose(sp.W + sp.B, total, atol=1e-9)
        assert np.allclose(sp.W, np.transpose(sp.W))
        assert np.allclose(sp.B, np.transpose(sp.B))

    def test_small_group_rejected(self):
        # p = 2 demands at least 3 cases per group.
        x = np.array([[0.0, 1.0], [1.0, 0.0], [4.0, 4.0], [5.0, 5.0], [6.0, 4.0]])
        with pytest.raises(ValidationError, match="at least 3"):
            scatter_from_data(x, ["a", "a", "b", "b", "b"], ("a", "b"))

    @pytest.mark.parametrize("labels", [["a", "a", "b"], ["a", "a", "b", "b", "b"]],
                             ids=["fewer", "more"])
    def test_label_count_must_match_rows(self, labels):
        x = np.array([[0.0], [2.0], [4.0], [6.0]])
        with pytest.raises(ValidationError, match="^labels length does not match data rows$"):
            scatter_from_data(x, labels, ("a", "b"))

    def test_single_group_rejected(self):
        with pytest.raises(ValidationError):
            scatter_from_data(np.array([[1.0], [2.0]]), ["a", "a"], ("a",))

    def test_sector_cards_ordering(self):
        cards = make_cards(
            [FIXTURE_SCORES[r] for r in sorted(FIXTURE_SCORES)],
            [FIXTURE_SECTORS[r] for r in sorted(FIXTURE_SCORES)],
        )
        # 6 cases with p = 10 cannot satisfy the size floor.
        with pytest.raises(ValidationError):
            run_mda(cards)

    def test_group_order_respected(self):
        x = np.array([[0.0], [2.0], [4.0], [6.0]])
        sp = scatter_from_data(x, ["b", "b", "a", "a"], ("b", "a"))
        assert sp.group_order == ("b", "a")

    def test_label_outside_group_order_rejected(self):
        # Rows of a group left out of the order would still count in the
        # grand mean, and so in B, and in Box's M's N.
        x = np.random.default_rng(8).normal(size=(12, 1))
        labels = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
        with pytest.raises(ValidationError, match=r"not in group order: \['c'\]"):
            scatter_from_data(x, labels, ("a", "b"))
        with pytest.raises(ValidationError, match=r"\['c'\]"):
            box_m_from_data(x, labels, ("a", "b"))


class TestCanonicalFunctions:
    def test_identical_group_means_give_zero(self):
        x = np.array([[0.0], [4.0], [1.0], [3.0]])
        sp = scatter_from_data(x, ["a", "a", "b", "b"], ("a", "b"))
        functions = canonical_functions(sp)
        assert len(functions) == 1
        assert functions[0].eigenvalue == 0.0
        assert functions[0].group_centroids["a"] == pytest.approx(0.0, abs=1e-12)

    def test_one_dimensional_eigenvalue(self):
        sp = scatter_from_data(
            np.array([[0.0], [2.0], [4.0], [6.0]]), ["a", "a", "b", "b"], ("a", "b")
        )
        functions = canonical_functions(sp)
        # lambda = B/W = 16/4; v normalized so v' W v = 1.
        assert functions[0].eigenvalue == pytest.approx(4.0, rel=1e-12)
        v = functions[0].coefficients[0]
        assert v * sp.W[0][0] * v == pytest.approx(1.0, rel=1e-12)
        assert v > 0

    def test_function_count_capped_by_groups(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(36, 10))
        labels = ["a"] * 12 + ["b"] * 12 + ["c"] * 12
        model = fit_mda_data(x, labels, ("a", "b", "c"))
        assert len(model.functions) == 2
        assert model.functions[0].index == 1
        assert model.functions[1].index == 2
        assert model.eigenvalues[0] >= model.eigenvalues[1] >= 0.0

    def test_singular_within_scatter(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 3))
        x[:, 2] = x[:, 1]
        with pytest.raises(ConditioningError, match="removing"):
            canonical_functions(scatter_from_data(x, ["a"] * 6 + ["b"] * 6, ("a", "b")))

    def test_centroids_weighted_mean_zero(self):
        # Size-weighted centroid average vanishes: projections are grand-mean centered.
        rng = np.random.default_rng(17)
        x = np.vstack(
            [rng.normal(g, 1.0, size=(8 + 2 * g, 3)) for g in range(3)]
        )
        labels = ["g0"] * 8 + ["g1"] * 10 + ["g2"] * 12
        model = fit_mda_data(x, labels, ("g0", "g1", "g2"))
        for fn in model.functions:
            weighted = sum(
                model.scatter.group_sizes[g] * fn.group_centroids[g]
                for g in model.scatter.group_order
            )
            assert weighted == pytest.approx(0.0, abs=1e-8)


class TestWilks:
    def test_reference_eigenvalue_pair(self):
        # Two canonical roots 0.2615 and 0.1710 at N = 539, p = 10, g = 3.
        tests = wilks_tests([0.2615, 0.1710], 539, 10, 3)
        assert [t.function_range for t in tests] == ["1 through 2", "2"]
        first, second = tests
        assert first.wilks_lambda == pytest.approx(0.677, abs=5e-4)
        assert 206.5 <= first.chi_square <= 208.0
        assert first.df == 20
        assert first.p < 1e-6
        assert second.wilks_lambda == pytest.approx(0.854, abs=5e-4)
        assert 83.3 <= second.chi_square <= 84.9
        assert second.df == 9
        assert second.p < 1e-6

    def test_zero_eigenvalues(self):
        tests = wilks_tests([0.0, 0.0], 100, 4, 3)
        for t in tests:
            assert t.wilks_lambda == 1.0
            assert t.chi_square == 0.0
            assert t.p == pytest.approx(1.0)

    def test_unit_eigenvalue_hand_case(self):
        # Lambda = 1/(1+1) = 0.5; chi2 = -(10 - 1 - 1.5) ln 0.5; df = 1.
        (test,) = wilks_tests([1.0], 10, 1, 2)
        assert test.wilks_lambda == pytest.approx(0.5, rel=1e-12)
        assert test.chi_square == pytest.approx(7.5 * math.log(2.0), rel=1e-12)
        assert test.df == 1

    def test_small_sample_rejected(self):
        with pytest.raises(ValidationError):
            wilks_tests([0.5], 13, 10, 3)

    def test_bartlett_rejects_bad_lambda(self):
        with pytest.raises(ValidationError):
            bartlett_chi_square(0.0, 100, 3, 2)
        with pytest.raises(ValidationError):
            bartlett_chi_square(1.2, 100, 3, 2)


class TestBoxM:
    def test_identical_covariances(self):
        rng = np.random.default_rng(23)
        base = rng.normal(size=(9, 2))
        x = np.vstack([base, base + [5.0, 0.0], base + [0.0, 5.0]])
        labels = ["a"] * 9 + ["b"] * 9 + ["c"] * 9
        result = box_m_from_data(x, labels, ("a", "b", "c"))
        assert result.M <= 1e-8
        assert result.F_approx <= 1e-8
        assert result.p == pytest.approx(1.0)
        assert result.df1 == 6  # (g-1) p (p+1) / 2 at p = 2, g = 3

    def test_two_group_log_det_transcription(self):
        rng = np.random.default_rng(41)
        x = np.vstack([rng.normal(size=(12, 2)), rng.normal(0, 2.0, size=(15, 2))])
        labels = ["a"] * 12 + ["b"] * 15
        result = box_m_from_data(x, labels, ("a", "b"))
        s_a = np.cov(x[:12], rowvar=False, ddof=1)
        s_b = np.cov(x[12:], rowvar=False, ddof=1)
        pooled = (11 * s_a + 14 * s_b) / 25
        expected = (
            25 * math.log(np.linalg.det(pooled))
            - 11 * math.log(np.linalg.det(s_a))
            - 14 * math.log(np.linalg.det(s_b))
        )
        assert result.M == pytest.approx(expected, rel=1e-10)

    def test_frozen_m_statistic(self):
        # Frozen mapping for M = 254.359 with sizes (225, 197, 117), p = 10.
        result = box_m_approximation(254.359, [225, 197, 117], 10)
        assert result.df1 == 110
        assert result.df2 == pytest.approx(449035.606, abs=0.01)
        assert result.F_approx == pytest.approx(2.246, abs=1e-3)
        assert result.p < 0.05

    def test_negative_branch_rational_arithmetic(self):
        # p = 1 forces c2 = 0 < c1^2. For sizes (5, 5):
        # c1 = (1/4 + 1/4 - 1/8) * 4 / 12 = 1/8, df1 = 1,
        # df2 = 3 / (1/64) = 192, scale = 192 / (7/8 + 2/192) = 18432/85,
        # F(M=1) = 192 / (18432/85 - 1) = 16320/18347.
        result = box_m_approximation(1.0, [5, 5], 1)
        assert result.df1 == 1
        assert result.df2 == pytest.approx(192.0, rel=1e-12)
        assert result.F_approx == pytest.approx(16320.0 / 18347.0, rel=1e-12)
        assert 0.0 < result.p < 1.0

    def test_negative_branch_range_guard(self):
        with pytest.raises(ConditioningError):
            box_m_approximation(217.0, [5, 5], 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            box_m_approximation(-1.0, [10, 10], 2)
        with pytest.raises(ValidationError):
            box_m_approximation(1.0, [10], 2)

    def test_singular_group_covariance(self):
        x = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0], [0.0, 0.0], [1.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ConditioningError, match="singular"):
            box_m_from_data(x, ["a", "a", "a", "b", "b", "b"], ("a", "b"))

    def test_too_small_group(self):
        x = np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 0.0], [1.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ValidationError):
            box_m_from_data(x, ["a", "a", "b", "b", "b"], ("a", "b"))

    @staticmethod
    def cov_oracle_m(x, labels, order):
        # Box's M from np.cov per group, each group's rows taken afresh
        # (np.cov gives a 0-d array at p = 1).
        labels = np.asarray(labels)
        covs = [np.atleast_2d(np.cov(x[labels == g], rowvar=False, ddof=1)) for g in order]
        sizes = [int(np.sum(labels == g)) for g in order]
        n, g = len(x), len(order)
        pooled = sum((size - 1) * cov for size, cov in zip(sizes, covs)) / (n - g)
        m_stat = (n - g) * float(np.linalg.slogdet(pooled)[1])
        for size, cov in zip(sizes, covs):
            m_stat -= (size - 1) * float(np.linalg.slogdet(cov)[1])
        return max(m_stat, 0.0)

    @staticmethod
    def fresh_groups_m(x, labels, order):
        # The same statistic with each group's rows taken afresh, through
        # numcore's kernels in the module's order of arithmetic.
        covs, sizes = [], []
        for g in order:
            rows = [[float(v) for v in row] for row, lab in zip(x, labels) if lab == g]
            _, centered = numcore.centered_columns(rows)
            scale = 1 / (len(rows) - 1)
            covs.append([[v * scale for v in row] for row in numcore.gram(centered)])
            sizes.append(len(rows))
        n, g, p = len(x), len(order), len(covs[0])
        pooled = [
            [sum((size - 1) * cov[j][k] for size, cov in zip(sizes, covs)) / (n - g)
             for k in range(p)]
            for j in range(p)
        ]
        m_stat = (n - g) * numcore.log_det(numcore.cholesky(pooled))
        for size, cov in zip(sizes, covs):
            m_stat -= (size - 1) * numcore.log_det(numcore.cholesky(cov))
        return max(m_stat, 0.0)

    def test_equals_np_cov_oracle_exactly(self):
        # The statistic is built from the discriminant fit's group scatters;
        # it must match the per-group form bit for bit. Against np.cov and
        # LU log-determinants it can agree only to rounding: M weighs p x p
        # log-determinants by 2(n - g) in total, so the bound is a few ulps
        # per unit of weight and dimension.
        rng = np.random.default_rng(2024)
        sectors = (Sector.PRIMARY, Sector.SECONDARY, Sector.TERTIARY)
        for _ in range(40):
            p = int(rng.integers(1, 11))
            g = int(rng.integers(2, 5))
            sizes = rng.integers(p + 2, p + 30, size=g)
            x = np.vstack([rng.normal(rng.normal(), rng.uniform(0.5, 3), (k, p)) for k in sizes])
            labels = [grp for grp, k in enumerate(sizes) for _ in range(k)]
            perm = rng.permutation(len(x))
            x, labels = x[perm], [labels[i] for i in perm]
            expected = self.fresh_groups_m(x, labels, range(g))
            rounding = 4 * np.finfo(float).eps * p * 2 * (len(x) - g)
            assert expected == pytest.approx(self.cov_oracle_m(x, labels, range(g)),
                                             rel=0, abs=rounding)
            assert box_m_from_data(x, labels, range(g)).M == expected
            if g == 3:
                cards = make_cards(x, [sectors[i] for i in labels])
                assert run_mda(cards).box.M == expected


class TestClassification:
    REFERENCE_COUNTS = [[129, 55, 41], [51, 114, 32], [16, 22, 79]]

    def test_reference_matrix_summary(self):
        cm = ClassificationMatrix.from_counts(self.REFERENCE_COUNTS, ("p", "s", "t"))
        assert cm.hit_rate == pytest.approx(59.7, abs=0.05)
        assert list(cm.counts.sum(axis=1)) == [225, 197, 117]
        assert list(cm.row_percentages[0]) == [57.3, 24.4, 18.2]

    def test_row_percentages_sum(self):
        cm = ClassificationMatrix.from_counts(self.REFERENCE_COUNTS, ("p", "s", "t"))
        for row in cm.row_percentages:
            assert sum(row) == pytest.approx(100.0, abs=0.15)

    def test_empty_actual_group_rejected(self):
        with pytest.raises(ValidationError):
            ClassificationMatrix.from_counts([[0, 0], [1, 1]], ("a", "b"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ClassificationMatrix.from_counts([[1, 2], [3, 4]], ("a", "b", "c"))

    def test_separated_clusters_fully_recovered(self):
        rng = np.random.default_rng(5)
        x = np.vstack(
            [rng.normal(loc, 0.05, size=(10, 2)) for loc in (0.0, 10.0, 20.0)]
        )
        labels = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
        model = fit_mda_data(x, labels, ("a", "b", "c"))
        cm = classify_data(x, labels, model)
        assert cm.hit_rate == 100.0
        assert np.trace(cm.counts) == 30

    def test_unstructured_labels_near_chance(self):
        # Resubstitution on label-free data: mean rate slightly above 1/3.
        rng = np.random.default_rng(99)
        rates = []
        for _ in range(50):
            x = rng.normal(size=(900, 4))
            labels = ["a"] * 300 + ["b"] * 300 + ["c"] * 300
            model = fit_mda_data(x, labels, ("a", "b", "c"))
            rates.append(classify_data(x, labels, model).hit_rate)
        assert 28.0 <= sum(rates) / len(rates) <= 38.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        n = 40
        x = np.vstack(
            [rng.normal(loc, 1.0, size=(n, 3)) for loc in (0.0, 0.8, 1.6)]
        )
        labels = ["a"] * n + ["b"] * n + ["c"] * n
        transform = np.array([[2.0, 0.3, 0.0], [0.1, 1.5, 0.2], [0.0, 0.4, 3.0]])
        offset = np.array([5.0, -2.0, 11.0])
        plain = classify_data(x, labels, fit_mda_data(x, labels, ("a", "b", "c")))
        moved = classify_data(
            x @ transform + offset,
            labels,
            fit_mda_data(x @ transform + offset, labels, ("a", "b", "c")),
        )
        assert np.array_equal(plain.counts, moved.counts)

    def test_unknown_label_rejected(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 2))
        labels = ["a"] * 6 + ["b"] * 6
        model = fit_mda_data(x, labels, ("a", "b"))
        with pytest.raises(ValidationError, match="zzz"):
            classify_data(x, ["zzz"] * 12, model)

    def test_column_count_must_match_model(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 2))
        labels = ["a"] * 6 + ["b"] * 6
        model = fit_mda_data(x, labels, ("a", "b"))
        with pytest.raises(ValidationError, match="3 columns; the model has 2"):
            classify_data(np.hstack([x, x[:, :1]]), labels, model)


class TestProjections:
    def make_result(self):
        rng = np.random.default_rng(8)
        matrix = np.vstack(
            [rng.normal(loc, 1.0, size=(6, 2)) for loc in (0.0, 2.0, 4.0)]
        )
        labels = (
            [Sector.PRIMARY] * 6 + [Sector.SECONDARY] * 6 + [Sector.TERTIARY] * 6
        )
        cards = make_cards(matrix, labels)
        return cards, run_mda(cards)

    def test_group_mean_projects_to_centroid(self):
        _, result = self.make_result()
        for g in (Sector.PRIMARY, Sector.SECONDARY, Sector.TERTIARY):
            scores = [case.scores for case in result.projections if case.group == g]
            for k, score in enumerate(np.mean(scores, axis=0)):
                centroid = result.model.functions[k].group_centroids[g]
                assert score == pytest.approx(centroid, abs=1e-10)

    def test_projection_is_affine_in_scores(self):
        cards, result = self.make_result()
        model = result.model
        for card, case in zip(cards, result.projections):
            x = np.array([card.scores[cid] for cid in model.criterion_ids])
            expected = [f.coefficients @ (x - model.scatter.grand_mean) for f in model.functions]
            assert np.allclose(case.scores, expected, atol=1e-10)

    def test_csv_layout(self, tmp_path):
        cards, result = self.make_result()
        path = tmp_path / "cases.csv"
        write_case_scores_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "report_id,group,score_f1,score_f2"
        assert len(lines) == len(cards) + 1
        first = lines[1].split(",")
        assert first[0] == "r1" and first[1] == "primary"
        assert float(first[2]) == pytest.approx(result.projections[0].scores[0])


class TestRunMda:
    def build_cards(self):
        rng = np.random.default_rng(14)
        matrix = np.vstack(
            [rng.normal(loc, 1.0, size=(8, 3)) for loc in (0.0, 1.0, 2.5)]
        )
        labels = (
            [Sector.PRIMARY] * 8 + [Sector.SECONDARY] * 8 + [Sector.TERTIARY] * 8
        )
        return make_cards(matrix, labels)

    def test_bundle_consistency(self):
        result = run_mda(self.build_cards())
        assert len(result.model.functions) == 2
        assert len(result.wilks) == 2
        assert result.box.df1 == 12  # (3-1) * 3 * 4 / 2
        assert result.classification.counts.sum() == 24
        assert len(result.projections) == 24

    def test_classification_matches_classify_data(self):
        cards = self.build_cards()
        result = run_mda(cards)
        x = np.array([[card.scores[cid] for cid in card.criterion_ids] for card in cards])
        labels = [card.sector for card in cards]
        expected = classify_data(x, labels, result.model)
        assert np.array_equal(result.classification.counts, expected.counts)

    def test_cards_without_criteria_rejected(self):
        cards = [
            ScoreCard(f"r{i}", sector, "en", {}, {})
            for i, sector in enumerate([Sector.PRIMARY, Sector.SECONDARY, Sector.TERTIARY] * 3)
        ]
        with pytest.raises(ValidationError, match="no criteria"):
            run_mda(cards)

    def test_card_missing_a_criterion_named(self):
        sectors = [Sector.PRIMARY, Sector.SECONDARY, Sector.TERTIARY]
        cards = make_cards(np.random.default_rng(6).normal(size=(30, 2)),
                           [sectors[i % 3] for i in range(30)])
        cards.append(ScoreCard("late", Sector.PRIMARY, "en", {"c1": 1}, {"c1": 1.0}))
        with pytest.raises(ValidationError, match="report late has no score for criterion 'c2'"):
            run_mda(cards)

    def test_dict_serializable(self):
        payload = mda_result_to_dict(run_mda(self.build_cards()))
        text = json.dumps(payload)
        assert '"wilks_tests"' in text
        assert payload["groups"] == ["primary", "secondary", "tertiary"]
        assert payload["group_sizes"] == {"primary": 8, "secondary": 8, "tertiary": 8}
        assert len(payload["functions"][0]["coefficients"]) == 3
        assert payload["classification"]["hit_rate_percent"] >= 0.0
