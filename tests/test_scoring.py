import re

import pytest
from hypothesis import given, settings, strategies as st

from cera.errors import ValidationError
from cera.miner import Document, FrequencyTable, Sector
from cera.scoring import (
    Criterion,
    ScoreCard,
    build_scorecards,
    default_criteria,
    filter_sample,
    parse_criteria,
    rate_frequency,
    read_scorecards_csv,
    sector_composition,
    write_scorecards_csv,
)

from conftest import FIXTURE_SCORES


def freq_table(rows: dict[str, list[int]], n_criteria=10) -> FrequencyTable:
    cids = [f"v{i + 1}" for i in range(n_criteria)]
    counts = {
        (rid, cid): value for rid, values in rows.items() for cid, value in zip(cids, values)
    }
    return FrequencyTable(list(rows), cids, counts)


def meta_for(rows, sector=Sector.PRIMARY, language="en"):
    return [Document(rid, sector, language, "") for rid in rows]


class TestRateFrequency:
    # Exhaustive boundary checks for the banded scale.
    @pytest.mark.parametrize(
        "freq,score",
        [
            (0, 0), (1, 1), (4, 1), (5, 3), (19, 3),
            (20, 5), (49, 5), (50, 7), (74, 7), (75, 10), (100, 10),
        ],
    )
    def test_boundaries(self, freq, score):
        assert rate_frequency(freq) == score

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            rate_frequency(-1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_total_and_in_range(self, freq):
        assert rate_frequency(freq) in {0, 1, 3, 5, 7, 10}

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, freq):
        assert rate_frequency(freq + 1) >= rate_frequency(freq)


class TestBuildScorecards:
    def test_all_zero(self):
        table = freq_table({"r1": [0] * 10})
        cards = build_scorecards(table, meta_for(["r1"]), default_criteria())
        assert all(v == 0 for v in cards[0].scores.values())

    def test_band_arithmetic(self):
        table = freq_table({"r1": [80, 60, 30, 10, 2, 0, 0, 0, 0, 0]})
        cards = build_scorecards(table, meta_for(["r1"]), default_criteria())
        assert [cards[0].scores[f"v{i + 1}"] for i in range(10)] == [
            10, 7, 5, 3, 1, 0, 0, 0, 0, 0,
        ]

    def test_missing_meta_names_report(self):
        table = freq_table({"r1": [0] * 10, "r2": [0] * 10})
        with pytest.raises(ValidationError, match="r2"):
            build_scorecards(table, meta_for(["r1"]), default_criteria())

    def test_cardinality_preserved(self):
        rows = {f"r{i}": [i] * 10 for i in range(7)}
        cards = build_scorecards(freq_table(rows), meta_for(rows), default_criteria())
        assert len(cards) == 7

    def test_scores_follow_frequencies(self):
        rows = {"a": [0, 3, 7, 21, 55, 80, 1, 4, 19, 49]}
        cards = build_scorecards(freq_table(rows), meta_for(rows), default_criteria())
        card = cards[0]
        for cid, freq in card.frequencies.items():
            assert card.scores[cid] == rate_frequency(freq)

    @pytest.mark.parametrize("n_criteria,named", [(9, "v10"), (11, "v11")])
    def test_columns_must_match_criteria(self, n_criteria, named):
        # A table cut short of v10 must not yield scorecards without v10.
        table = freq_table({"r1": [1] * n_criteria}, n_criteria=n_criteria)
        with pytest.raises(ValidationError, match=named):
            build_scorecards(table, meta_for(["r1"]), default_criteria())


def card(report_id, freqs, language="en", sector=Sector.PRIMARY):
    scores = {f"v{i + 1}": rate_frequency(f) for i, f in enumerate(freqs)}
    frequencies = {f"v{i + 1}": f for i, f in enumerate(freqs)}
    return ScoreCard(report_id, sector, language, frequencies, scores)


class TestFilterSample:
    def test_foreign_all_zero_removed(self):
        cards = [card("keep", [1] + [0] * 9), card("drop", [0] * 10, language="de")]
        assert [c.report_id for c in filter_sample(cards)] == ["keep"]

    def test_english_all_zero_retained(self):
        cards = [card("r1", [0] * 10, language="en")]
        assert filter_sample(cards) == cards

    def test_foreign_nonzero_retained_under_conjunction(self):
        cards = [card("r1", [3] + [0] * 9, language="fr")]
        assert filter_sample(cards) == cards

    def test_disjunction_rule(self):
        cards = [
            card("zero_en", [0] * 10),
            card("nonzero_fr", [2] + [0] * 9, language="fr"),
            card("nonzero_en", [2] + [0] * 9),
        ]
        kept = filter_sample(cards, rule="disjunction")
        assert [c.report_id for c in kept] == ["nonzero_en"]

    def test_unknown_rule(self):
        with pytest.raises(ValidationError):
            filter_sample([], rule="xor")

    def test_idempotent(self):
        cards = [
            card("a", [1] * 10),
            card("b", [0] * 10, language="de"),
            card("c", [0] * 10),
        ]
        once = filter_sample(cards)
        assert filter_sample(once) == once

    def test_order_preserved(self):
        cards = [card(f"r{i}", [i + 1] * 10) for i in range(5)]
        assert [c.report_id for c in filter_sample(cards)] == [f"r{i}" for i in range(5)]


class TestSectorComposition:
    def test_paper_primary_share(self):
        cards = (
            [card(f"p{i}", [1], sector=Sector.PRIMARY) for i in range(117)]
            + [card(f"s{i}", [1], sector=Sector.SECONDARY) for i in range(299)]
            + [card(f"t{i}", [1], sector=Sector.TERTIARY) for i in range(123)]
        )
        composition = sector_composition(cards)
        count, pct = composition[Sector.PRIMARY]
        assert count == 117 and pct == pytest.approx(21.71, abs=0.005)

    def test_single_sector(self):
        cards = [card("a", [1]), card("b", [2])]
        composition = sector_composition(cards)
        assert composition[Sector.PRIMARY] == (2, 100.0)
        assert composition[Sector.SECONDARY][0] == 0

    def test_thirds(self):
        cards = [
            card("a", [1], sector=Sector.PRIMARY),
            card("b", [1], sector=Sector.SECONDARY),
            card("c", [1], sector=Sector.TERTIARY),
        ]
        composition = sector_composition(cards)
        for sector in Sector:
            assert composition[sector] == (1, 33.33)

    def test_percentages_sum_to_100(self):
        # Each share rounds to 2dp, so the sum may drift by up to 1.5e-2.
        cards = [card(f"r{i}", [1], sector=list(Sector)[i % 3]) for i in range(17)]
        composition = sector_composition(cards)
        assert sum(pct for _, pct in composition.values()) == pytest.approx(100.0, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sector_composition([])


class TestCriteriaConfig:
    def test_default_set(self):
        criteria = default_criteria()
        assert [c.criterion_id for c in criteria] == [f"v{i + 1}" for i in range(10)]
        for criterion in criteria:
            assert criterion.alternatives
            assert criterion.max_score == 10

    def test_parse_custom(self):
        text = """
# comment
[v1]
label: water use
max_score: 10
water consumption
water use
"""
        criteria = parse_criteria(text)
        assert len(criteria) == 1
        assert criteria[0].label == "water use"
        assert criteria[0].alternatives == ("water consumption", "water use")

    def test_duplicate_id_rejected(self):
        text = "[v1]\nx\n[v1]\ny\n"
        with pytest.raises(ValidationError):
            parse_criteria(text)

    def test_empty_alternatives_rejected(self):
        with pytest.raises(ValidationError):
            parse_criteria("[v1]\nlabel: nothing\n")

    def test_criterion_validation(self):
        with pytest.raises(ValidationError):
            Criterion("v1", "x", ())

    @pytest.mark.parametrize("text, message", [
        ("[ ]\npolicy\n", "criterion_id must be nonempty"),
        ("[v1]\nmax_score: ten\npolicy\n", "bad max_score line: 'max_score: ten'"),
        ("# no section\n", "criteria config defines no criteria"),
        ("[v1]\nmax_score: 9\npolicy\n",
         "criterion v1 max_score 9 is below the scale's top score 10"),
    ], ids=["empty-id", "bad-max-score-line", "no-criteria", "max-score-below-top"])
    def test_bad_config_named(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_criteria(text)


class TestScorecardCsv:
    def test_round_trip_identity(self, tmp_path):
        cards = [
            card("r1", [0, 3, 7, 21, 55, 80, 1, 4, 19, 49]),
            card("r2", [75] * 10, sector=Sector.TERTIARY, language="fr"),
        ]
        path = tmp_path / "cards.csv"
        write_scorecards_csv(cards, path)
        assert read_scorecards_csv(path) == cards

    def test_header_layout(self, tmp_path):
        cards = [card("r1", [1] * 10)]
        path = tmp_path / "cards.csv"
        write_scorecards_csv(cards, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("report_id,sector,v1_freq,")
        assert "v10_freq" in header and "v1_score" in header and "v10_score" in header

    def test_fixture_scores_are_consistent(self):
        # The frozen fixture expectations obey the rating bands.
        from conftest import FIXTURE_FREQUENCIES

        for rid, freqs in FIXTURE_FREQUENCIES.items():
            assert [rate_frequency(f) for f in freqs] == FIXTURE_SCORES[rid]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "cards.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            read_scorecards_csv(path)

    def test_non_integer_score_rejected(self, tmp_path):
        cards = [card("r1", [1] * 10)]
        path = tmp_path / "cards.csv"
        write_scorecards_csv(cards, path)
        text = path.read_text(encoding="utf-8").replace(",1,", ",1.5,", 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            read_scorecards_csv(path)

    def test_unknown_sector_rejected(self, tmp_path):
        cards = [card("r1", [1] * 10)]
        path = tmp_path / "cards.csv"
        write_scorecards_csv(cards, path)
        text = path.read_text(encoding="utf-8").replace("primary", "quaternary")
        path.write_text(text, encoding="utf-8")
        message = ("scorecard row at line 2: unknown sector 'quaternary'; "
                   "expected one of primary, secondary, tertiary")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read_scorecards_csv(path)

    def test_sector_in_any_letter_case(self, tmp_path):
        cards = [card("r1", [1] * 10), card("r2", [2] * 10, sector=Sector.TERTIARY)]
        path, lines = self.written_lines(tmp_path, cards)
        text = "\n".join(lines).replace(",primary,", ",Primary,").replace(",tertiary,", ",TERTIARY,")
        path.write_text(text + "\n", encoding="utf-8")
        assert read_scorecards_csv(path) == cards

    def written_lines(self, tmp_path, cards):
        path = tmp_path / "cards.csv"
        write_scorecards_csv(cards, path)
        return path, path.read_text(encoding="utf-8").splitlines()

    def test_header_without_score_columns_rejected(self, tmp_path):
        path = tmp_path / "cards.csv"
        rows = [f"r{i},{s},{i},en" for i, s in enumerate(["primary", "secondary", "tertiary"] * 3)]
        path.write_text("report_id,sector,v1_freq,language\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="_score"):
            read_scorecards_csv(path)

    def test_duplicate_report_id_rejected(self, tmp_path):
        path, lines = self.written_lines(tmp_path, [card("r1", [1] * 10), card("r2", [2] * 10)])
        path.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 4: duplicate report_id 'r1'"):
            read_scorecards_csv(path)

    def test_repeated_score_column_rejected(self, tmp_path):
        path = tmp_path / "cards.csv"
        rows = [f"r{i},{s},1,7,en" for i, s in enumerate(["primary", "secondary", "tertiary"] * 3)]
        path.write_text("report_id,sector,v1_score,v1_score,language\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match="repeats column 'v1_score'"):
            read_scorecards_csv(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda row: row + ",extra", lambda row: row.rsplit(",", 1)[0]],
        ids=["extra-cell", "missing-cell"],
    )
    def test_ragged_row_rejected(self, tmp_path, edit):
        path, lines = self.written_lines(tmp_path, [card("r1", [1] * 10), card("r2", [2] * 10)])
        path.write_text("\n".join([lines[0], lines[1], edit(lines[2])]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 3 has 2[24] cells, header has 23"):
            read_scorecards_csv(path)

    def test_columns_found_by_name(self, tmp_path):
        cards = [card("r1", [1] * 10), card("r2", [2] * 10)]
        path, lines = self.written_lines(tmp_path, cards)
        swapped = [",".join([b, a, *rest]) for a, b, *rest in (ln.split(",") for ln in lines)]
        assert swapped[0].startswith("sector,report_id,")
        path.write_text("\n".join(swapped) + "\n", encoding="utf-8")
        assert read_scorecards_csv(path) == cards

    def test_blank_trailing_line_tolerated(self, tmp_path):
        cards = [card("r1", [1] * 10)]
        path = tmp_path / "cards.csv"
        write_scorecards_csv(cards, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert read_scorecards_csv(path) == cards
