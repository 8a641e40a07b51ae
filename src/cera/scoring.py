"""Search criteria, frequency-to-score rating, scorecards, and sample filtering.

Ten shipped criteria (v1..v10) each carry a set of phrase alternatives and a
10-point ceiling. Raw keyword frequencies are rated on a banded scale:
75 or more occurrences earn 10, 50..74 earn 7, 20..49 earn 5, 5..19 earn 3,
1..4 earn 1, and zero earns 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .miner import Corpus, FrequencyTable, Sector, read_table, write_table
from .miner import config_sections, load_config, packaged_text


# (lower bound, score) bands, highest first; a frequency scores the first band
# whose lower bound it reaches, and 0 when it reaches none.
BANDS = ((75, 10), (50, 7), (20, 5), (5, 3), (1, 1))


@dataclass(frozen=True)
class Criterion:
    criterion_id: str
    label: str
    alternatives: tuple[str, ...]
    max_score: int = 10

    def __post_init__(self):
        if not self.criterion_id:
            raise ValidationError("criterion_id must be nonempty")
        if not self.alternatives:
            raise ValidationError(f"criterion {self.criterion_id} has no phrase alternatives")
        if self.max_score < BANDS[0][1]:
            raise ValidationError(
                f"criterion {self.criterion_id} max_score {self.max_score} is below the "
                f"scale's top score {BANDS[0][1]}"
            )


CriteriaSet = list[Criterion]


# Sample-filter rules of :func:`filter_sample`, the default first.
ELIMINATION_RULES = ("conjunction", "disjunction")


def rate_frequency(freq: int) -> int:
    """Map a keyword frequency to its band score; zero frequency scores 0."""
    if freq < 0:
        raise ValidationError(f"frequency must be nonnegative, got {freq}")
    for lower_bound, score in BANDS:
        if freq >= lower_bound:
            return score
    return 0


@dataclass(frozen=True)
class ScoreCard:
    report_id: str
    sector: Sector
    language_tag: str
    frequencies: dict[str, int]
    scores: dict[str, int]

    @property
    def criterion_ids(self) -> list[str]:
        return list(self.scores.keys())

    def all_zero(self) -> bool:
        return all(v == 0 for v in self.frequencies.values())


def score_rows(cards: Sequence[ScoreCard], criterion_ids: Sequence[str]) -> list[list[float]]:
    """Each card's scores for ``criterion_ids``, in that order, as floats.

    A card without one of the criteria is a ValidationError naming both.
    """
    rows = []
    for card in cards:
        scores = card.scores
        try:
            rows.append([float(scores[cid]) for cid in criterion_ids])
        except KeyError as exc:
            raise ValidationError(
                f"report {card.report_id} has no score for criterion {exc.args[0]!r}"
            ) from None
    return rows


def build_scorecards(
    freq: FrequencyTable, corpus: Corpus, criteria: CriteriaSet
) -> list[ScoreCard]:
    """One scorecard per report in the frequency table, rating every criterion.

    The table's columns must be exactly the configured criteria, in any order.
    Each card takes its sector and language from the corpus document with its id.
    """
    ids = [c.criterion_id for c in criteria]
    missing = [cid for cid in ids if cid not in freq.criterion_ids]
    if missing:
        raise ValidationError(
            f"frequency table lacks criterion column(s): {', '.join(missing)}"
        )
    for cid in freq.criterion_ids:
        if cid not in ids:
            raise ValidationError(f"frequency table column {cid!r} is not a known criterion")
    docs = {doc.report_id: doc for doc in corpus}
    cards = []
    for rid in freq.report_ids:
        doc = docs.get(rid)
        if doc is None:
            raise ValidationError(f"report {rid!r} missing from corpus metadata")
        frequencies = freq.row(rid)
        scores = {cid: rate_frequency(n) for cid, n in frequencies.items()}
        cards.append(ScoreCard(rid, doc.sector, doc.language_tag, frequencies, scores))
    return cards


def filter_sample(
    cards: Sequence[ScoreCard],
    analysis_language: str = "en",
    rule: str = "conjunction",
) -> list[ScoreCard]:
    """Drop reports excluded from analysis; input order is preserved.

    Under the default ``conjunction`` rule a card is removed only when its
    frequencies are zero for every criterion AND its language differs from
    ``analysis_language``. The ``disjunction`` rule removes a card when
    either condition holds on its own.
    """
    if rule not in ELIMINATION_RULES:
        raise ValidationError(f"unknown elimination rule {rule!r}")
    kept = []
    for card in cards:
        foreign = card.language_tag != analysis_language
        zero = card.all_zero()
        eliminated = (foreign and zero) if rule == "conjunction" else (foreign or zero)
        if not eliminated:
            kept.append(card)
    return kept


def sector_composition(cards: Sequence[ScoreCard]) -> dict[Sector, tuple[int, float]]:
    """Count and percentage (2 decimals) per sector; percentages total ~100."""
    if not cards:
        raise ValidationError("cannot compute composition of an empty sample")
    total = len(cards)
    out = {}
    for sector in Sector:
        count = sum(1 for c in cards if c.sector is sector)
        out[sector] = (count, round(100.0 * count / total, 2))
    return out


def default_criteria() -> CriteriaSet:
    """Shipped transcription of the ten search criteria."""
    return parse_criteria(packaged_text("criteria.txt"))


def load_criteria(path) -> CriteriaSet:
    return load_config(path, "criteria config", parse_criteria)


def parse_criteria(text: str) -> CriteriaSet:
    """Parse the criteria config format.

    Each criterion starts with ``[id]`` on its own line, followed by
    ``label:`` and optional ``max_score:`` lines, then one phrase alternative
    per line. ``#`` starts a comment.
    """
    criteria: CriteriaSet = []
    for criterion_id, lines in config_sections(text):
        label, max_score, alternatives = "", 10, []
        for line in lines:
            if line.lower().startswith("label:"):
                label = line.split(":", 1)[1].strip()
            elif line.lower().startswith("max_score:"):
                try:
                    max_score = int(line.split(":", 1)[1].strip())
                except ValueError:
                    raise ValidationError(f"bad max_score line: {line!r}") from None
            else:
                alternatives.append(line)
        criteria.append(Criterion(criterion_id, label, tuple(alternatives), max_score))
    if not criteria:
        raise ValidationError("criteria config defines no criteria")
    ids = [c.criterion_id for c in criteria]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate criterion ids in config")
    return criteria


def write_scorecards_csv(cards: Sequence[ScoreCard], path) -> None:
    """CSV with frequency columns, score columns, then the language tag."""
    if not cards:
        raise ValidationError("no scorecards to write")
    cids = cards[0].criterion_ids
    header = (
        ["report_id", "sector"]
        + [f"{cid}_freq" for cid in cids]
        + [f"{cid}_score" for cid in cids]
        + ["language"]
    )
    rows = (
        [card.report_id, card.sector.value]
        + [card.frequencies[cid] for cid in cids]
        + [card.scores[cid] for cid in cids]
        + [card.language_tag]
        for card in cards
    )
    write_table(path, header, rows)


def read_scorecards_csv(path) -> list[ScoreCard]:
    """Scorecards from a table as :func:`write_scorecards_csv` writes it, columns in any order.

    The header needs report_id, sector and at least one ``<criterion>_score`` column.
    """
    header, rows = read_table(path, "scorecard", ("report_id", "sector"))
    freq_cols = [(h, h.removesuffix("_freq")) for h in header if h.endswith("_freq")]
    score_cols = [(h, h.removesuffix("_score")) for h in header if h.endswith("_score")]
    if not score_cols:
        raise ValidationError("scorecard header has no <criterion>_score column")
    cards = []
    for line, row in rows:
        try:
            freqs = {cid: int(row[h]) for h, cid in freq_cols}
            scores = {cid: int(row[h]) for h, cid in score_cols}
            sector = Sector(row["sector"])
        except ValueError as exc:
            raise ValidationError(f"scorecard row at line {line}: {exc}") from None
        cards.append(ScoreCard(row["report_id"], sector, row.get("language", ""), freqs, scores))
    return cards
