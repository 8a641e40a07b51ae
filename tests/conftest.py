import os
from pathlib import Path

import pytest

from cera.scoring import ScoreCard, Sector

# numpy's OpenBLAS starts a second OS thread when it loads. Tests fork the miner's
# workers from this process, and a forked multi-threaded process can deadlock, so
# the miner mines in-process while other OS threads run; keep BLAS to one thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

FIXTURE_DIR = Path(__file__).parent / "data" / "fixture"
MANIFEST = FIXTURE_DIR / "manifest.csv"

# Hand-checked keyword counts for the fixture corpus, v1..v10 per report.
FIXTURE_FREQUENCIES = {
    "P1": [2, 5, 0, 20, 1, 0, 1, 1, 0, 3],
    "P2": [1, 30, 2, 60, 2, 1, 0, 2, 1, 5],
    "S1": [4, 50, 1, 6, 0, 2, 3, 0, 2, 20],
    "S2": [6, 60, 3, 9, 1, 3, 5, 1, 1, 30],
    "T1": [8, 75, 5, 2, 0, 4, 6, 3, 4, 55],
    "T2": [12, 80, 7, 1, 1, 6, 9, 5, 6, 75],
}

# The same counts pushed through the rating bands by hand.
FIXTURE_SCORES = {
    "P1": [1, 3, 0, 5, 1, 0, 1, 1, 0, 1],
    "P2": [1, 5, 1, 7, 1, 1, 0, 1, 1, 3],
    "S1": [1, 7, 1, 3, 0, 1, 1, 0, 1, 5],
    "S2": [3, 7, 1, 3, 1, 1, 3, 1, 1, 5],
    "T1": [3, 10, 3, 1, 0, 1, 3, 1, 1, 7],
    "T2": [3, 10, 3, 1, 1, 3, 3, 3, 3, 10],
}

FIXTURE_SECTORS = {
    "P1": Sector.PRIMARY,
    "P2": Sector.PRIMARY,
    "S1": Sector.SECONDARY,
    "S2": Sector.SECONDARY,
    "T1": Sector.TERTIARY,
    "T2": Sector.TERTIARY,
}


def make_cards(matrix, labels, criterion_prefix="c", language="en"):
    """Synthetic scorecards from a numeric matrix; scores carry the values."""
    matrix = np.asarray(matrix, dtype=float)
    cards = []
    for i, (row, label) in enumerate(zip(matrix, labels)):
        scores = {f"{criterion_prefix}{j + 1}": float(v) for j, v in enumerate(row)}
        freqs = {key: 1 for key in scores}
        cards.append(ScoreCard(f"r{i + 1}", label, language, freqs, scores))
    return cards


@pytest.fixture
def fixture_corpus():
    from cera.miner import load_corpus

    return load_corpus(FIXTURE_DIR, MANIFEST)
