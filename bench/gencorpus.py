"""Deterministic synthetic report corpus with planted criterion counts.

The same seed gives byte-identical reports. Every report is filler text
plus one sentence per planted criterion phrase. Filler words share no
token with any criterion phrase, and every planted phrase is fenced by
filler words that survive the stop list, so each report's frequency row is
known by construction and does not depend on the miner under test.

Two profiles:

* ``well-posed``: per-report counts come from three correlated latent
  constructs, grouped as in the packaged SEM model, with sector-specific
  means. Banded scores then vary within every sector, so MDA (with Box's M)
  and both SEM models run to convergence.
* ``hostile``: as above, but v2 is saturated (score 10 everywhere) and no
  primary-sector report mentions v8.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Paper's sample: 539 reports split 225/197/117 across sectors.
SECTORS = (("primary", "P", 225), ("secondary", "S", 197), ("tertiary", "T", 117))

# Mirrors the packaged criteria file; the smoke test pins the two together.
CRITERIA = {
    "v1": ("environmental policy", "environment policy", "hse policy",
           "health safety and environment"),
    "v2": ("sustainability", "sustainable development"),
    "v3": ("environmental issues", "sustainable development", "sustainable issues"),
    "v4": ("carbon dioxide emissions", "global warming", "climate change"),
    "v5": ("toxic waste", "toxic emissions"),
    "v6": ("employee turnover", "employee retention"),
    "v7": ("equal opportunities", "diversity"),
    "v8": ("human rights",),
    "v9": ("shareholder value", "share price", "dividends"),
    "v10": ("customer satisfaction", "customer transactions", "sales"),
}
CRITERION_IDS = tuple(CRITERIA)

# Construct grouping of the packaged SEM model.
CONSTRUCTS = (("v1", "v2", "v3"), ("v4", "v5"), ("v6", "v7", "v8", "v9", "v10"))
# The industrial construct has only two indicators, so the free-loadings
# model identifies it through its covariances with the other two; latent
# correlations that sector mean differences would cancel out leave that
# fit close to a Heywood case on some bootstrap resamples.
LATENT_CORRELATION = ((1.0, 0.6, 0.5), (0.6, 1.0, 0.5), (0.5, 0.5, 1.0))
SECTOR_MEANS = {
    "primary": (0.3, 0.7, 0.2),
    "secondary": (0.0, 0.1, -0.1),
    "tertiary": (-0.3, -0.5, 0.4),
}
LOADINGS = (0.9, 0.8, 0.7, 0.9, 0.8, 0.9, 0.8, 0.7, 0.8, 0.9)
NOISE_SD = 0.6
# count = exp(LOG_BASE + LOG_SCALE * t), so t = 0 lands in the 5..19 band
# and t = +-2 reach the 75+ and 0 bands.
LOG_BASE = 2.2
LOG_SCALE = 1.15
COUNT_CAP = 110

# Function words; every one is on the packaged stop list.
STOP_WORDS = (
    "the", "of", "and", "to", "in", "our", "we", "for", "with", "on", "by",
    "this", "is", "are", "as", "at", "from", "its", "their", "was", "were",
    "be", "has", "have", "all", "each", "more", "also",
)
_REAL_WORDS = (
    "annual report group company board operations year business market "
    "growth revenue capital investment performance strategy plan plans "
    "region regions project projects site sites plant plants network service "
    "services product products quality process processes team teams people "
    "management director directors committee review results financial "
    "statement statements asset assets cost costs energy water supply chain "
    "partner partners community communities training programme programmes "
    "target targets progress risk risks audit compliance governance standard "
    "standards framework report reporting data system systems technology "
    "innovation research office offices country countries portfolio budget "
    "contract contracts facility facilities production output capacity "
    "demand efficiency measure measures initiative initiatives member members"
).split()
_ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "t", "v", "z")
_NUCLEI = ("a", "e", "i", "o", "u")
# No English function word ends in x, z or q, so none of these can be a stop word.
_CODAS = ("x", "z", "q")

TARGET_RAW_TOKENS = (7000, 9000)


def phrase_tokens(phrase: str) -> tuple[str, ...]:
    return tuple(w for w in phrase.lower().split() if w not in STOP_WORDS)


def _criterion_tokens() -> frozenset[str]:
    return frozenset(t for alts in CRITERIA.values() for p in alts for t in phrase_tokens(p))


def _content_vocabulary() -> tuple[str, ...]:
    banned = _criterion_tokens() | frozenset(STOP_WORDS)
    words = [w for w in dict.fromkeys(_REAL_WORDS) if w not in banned]
    for a in _ONSETS:
        for b in _NUCLEI:
            for c in _ONSETS:
                for d in _NUCLEI:
                    for e in _CODAS:
                        word = a + b + c + d + e
                        if word not in banned:
                            words.append(word)
    return tuple(words)


CONTENT_WORDS = _content_vocabulary()


def _phrase_hits() -> dict[str, tuple[str, ...]]:
    """Planted phrase -> the criteria each occurrence adds one to.

    A phrase shared by two criteria ("sustainable development") counts for
    both. Refuses a lexicon where some alternative sits strictly inside a
    longer planted phrase, because then one planted occurrence could count
    more than once and the oracle below would be wrong.
    """
    hits: dict[str, list[str]] = {}
    for cid, alternatives in CRITERIA.items():
        for phrase in alternatives:
            hits.setdefault(phrase, []).append(cid)
    for phrase in hits:
        toks = phrase_tokens(phrase)
        for cid, alternatives in CRITERIA.items():
            for alt in alternatives:
                alt_toks = phrase_tokens(alt)
                k = len(alt_toks)
                inside = any(toks[i : i + k] == alt_toks for i in range(len(toks) - k + 1))
                if inside and alt_toks != toks:
                    raise ValueError(f"{alt!r} ({cid}) occurs inside {phrase!r}")
    return {phrase: tuple(cids) for phrase, cids in hits.items()}


PHRASE_HITS = _phrase_hits()


@dataclass(frozen=True)
class Report:
    report_id: str
    sector: str
    language: str
    text: str
    counts: tuple[int, ...]  # oracle frequency per criterion, CRITERION_IDS order
    raw_tokens: int
    kept_tokens: int


@dataclass(frozen=True)
class Corpus:
    profile: str
    seed: int
    reports: tuple[Report, ...]

    @property
    def raw_tokens(self) -> int:
        return sum(r.raw_tokens for r in self.reports)

    @property
    def kept_tokens(self) -> int:
        return sum(r.kept_tokens for r in self.reports)

    @property
    def text_bytes(self) -> int:
        return sum(len(r.text.encode("utf-8")) for r in self.reports)

    def stats(self) -> dict:
        return {
            "profile": self.profile,
            "documents": len(self.reports),
            "bytes": self.text_bytes,
            "raw_tokens": self.raw_tokens,
            "kept_tokens": self.kept_tokens,
        }


def _cholesky(matrix) -> list[list[float]]:
    n = len(matrix)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = matrix[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            low[i][j] = math.sqrt(s) if i == j else s / low[j][j]
    return low


_LATENT_CHOL = _cholesky(LATENT_CORRELATION)
_CONSTRUCT_OF = {cid: c for c, members in enumerate(CONSTRUCTS) for cid in members}


def _planted_counts(rng: random.Random, sector: str, profile: str) -> list[int]:
    """Planted occurrences per criterion (before shared-phrase cross counts)."""
    normals = [rng.gauss(0.0, 1.0) for _ in range(3)]
    means = SECTOR_MEANS[sector]
    latent = [
        means[i] + sum(_LATENT_CHOL[i][k] * normals[k] for k in range(i + 1))
        for i in range(3)
    ]
    counts = []
    for j, cid in enumerate(CRITERION_IDS):
        t = LOADINGS[j] * latent[_CONSTRUCT_OF[cid]] + NOISE_SD * rng.gauss(0.0, 1.0)
        counts.append(min(COUNT_CAP, int(math.exp(LOG_BASE + LOG_SCALE * t))))
    if profile == "hostile":
        counts[CRITERION_IDS.index("v2")] = rng.randint(80, 100)
        if sector == "primary":
            counts[CRITERION_IDS.index("v8")] = 0
    return counts


def _choose_phrase(rng: random.Random, cid: str, profile: str) -> str:
    alternatives = CRITERIA[cid]
    if profile == "hostile" and cid == "v2":
        # Only the unshared alternative, so v3 is not dragged up with v2.
        return alternatives[0]
    return alternatives[rng.randrange(len(alternatives))]


def _filler_pool(rng: random.Random, size: int) -> list[tuple[str, int, int]]:
    """Sentences of filler as (text, raw tokens, kept tokens)."""
    cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(CONTENT_WORDS))))
    pool = []
    for _ in range(size):
        n = rng.randint(8, 18)
        words = []
        kept = 0
        for _ in range(n):
            if rng.random() < 0.32:
                words.append(STOP_WORDS[rng.randrange(len(STOP_WORDS))])
            else:
                words.append(rng.choices(CONTENT_WORDS, cum_weights=cum)[0])
                kept += 1
        words[0] = words[0].capitalize()
        pool.append((" ".join(words) + ".", n, kept))
    return pool


def _planted_sentence(rng: random.Random, phrase: str) -> tuple[str, int, int]:
    """``We <w> <phrase> <w> the <w>.`` -- filler words fence the phrase."""
    a, b, c = (CONTENT_WORDS[rng.randrange(200)] for _ in range(3))
    text = f"We {a} {phrase} {b} the {c}."
    raw = 5 + len(phrase.split())
    return text, raw, 3 + len(phrase_tokens(phrase))


def generate(seed: int, profile: str = "well-posed", scale: float = 1.0) -> Corpus:
    """Build the corpus for ``seed``; ``scale`` shrinks sector sizes and report length."""
    if profile not in ("well-posed", "hostile"):
        raise ValueError(f"unknown profile {profile!r}")
    rng = random.Random(f"cera-bench/{profile}/{seed}")
    pool = _filler_pool(rng, 2000)
    reports = []
    for sector, prefix, size in SECTORS:
        for n in range(1, max(3, round(size * scale)) + 1):
            planted = _planted_counts(rng, sector, profile)
            counts = [0] * len(CRITERION_IDS)
            sentences = []
            raw = kept = 0
            for j, cid in enumerate(CRITERION_IDS):
                for _ in range(planted[j]):
                    phrase = _choose_phrase(rng, cid, profile)
                    for hit in PHRASE_HITS[phrase]:
                        counts[CRITERION_IDS.index(hit)] += 1
                    text, r, k = _planted_sentence(rng, phrase)
                    sentences.append(text)
                    raw += r
                    kept += k
            target = round(rng.randint(*TARGET_RAW_TOKENS) * scale)
            while raw < target:
                text, r, k = pool[rng.randrange(len(pool))]
                sentences.append(text)
                raw += r
                kept += k
            rng.shuffle(sentences)
            reports.append(Report(
                report_id=f"{prefix}{n:03d}",
                sector=sector,
                language="en",
                text="\n".join(sentences) + "\n",
                counts=tuple(counts),
                raw_tokens=raw,
                kept_tokens=kept,
            ))
    return Corpus(profile, seed, tuple(reports))


def write_corpus(corpus: Corpus, directory: Path) -> Path:
    """Write reports plus ``manifest.csv``; return the manifest path."""
    docs = directory / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    for report in corpus.reports:
        (docs / f"{report.report_id}.txt").write_bytes(report.text.encode("utf-8"))
    manifest = directory / "manifest.csv"
    rows = ["report_id,sector,language,path"]
    rows += [f"{r.report_id},{r.sector},{r.language},docs/{r.report_id}.txt" for r in corpus.reports]
    manifest.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
    return manifest


# Rating bands of the paper: (lower bound, score), highest first.
BANDS = ((75, 10), (50, 7), (20, 5), (5, 3), (1, 1))


def band_score(count: int) -> int:
    for lower, score in BANDS:
        if count >= lower:
            return score
    return 0


@dataclass(frozen=True)
class Card:
    report_id: str
    sector: str
    language: str
    counts: tuple[int, ...]


def cards_of(corpus: Corpus) -> list[Card]:
    """Every report survives the default filter: all are in the analysis language."""
    return [Card(r.report_id, r.sector, r.language, r.counts) for r in corpus.reports]


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def expected_frequencies_csv(corpus: Corpus) -> bytes:
    rows = [["report_id", *CRITERION_IDS]]
    rows += [[r.report_id, *r.counts] for r in corpus.reports]
    return _csv_bytes(rows)


def scorecards_csv(cards: list[Card]) -> bytes:
    rows = [["report_id", "sector", *(f"{c}_freq" for c in CRITERION_IDS),
             *(f"{c}_score" for c in CRITERION_IDS), "language"]]
    rows += [[c.report_id, c.sector, *c.counts, *(band_score(n) for n in c.counts), c.language]
             for c in cards]
    return _csv_bytes(rows)


def bootstrap(cards: list[Card], seed: int, index: int) -> list[Card]:
    """Resample with replacement within each sector, keeping sector sizes."""
    rng = random.Random(f"cera-bench/bootstrap/{seed}/{index}")
    out = []
    for sector, _, _ in SECTORS:
        group = [c for c in cards if c.sector == sector]
        for j in range(len(group)):
            pick = group[rng.randrange(len(group))]
            out.append(Card(f"{pick.report_id}-b{index}-{j:03d}", sector, pick.language, pick.counts))
    return out
