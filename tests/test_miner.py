import _thread
import csv
import os
import re
import signal
import subprocess
import sys
import threading
import time
import unicodedata
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cera import miner
from cera.errors import CeraError, IngestionError, ValidationError
from cera.miner import (
    Document,
    Sector,
    build_sorted_keyword_file,
    load_corpus,
    mine_binary,
    mine_linear,
    preprocess_text,
    read_frequency_csv,
    stem_token,
    tokenize,
    write_frequency_csv,
    write_keyword_file,
)
from cera.scoring import Criterion, default_criteria

from conftest import FIXTURE_DIR, FIXTURE_FREQUENCIES, MANIFEST


def doc(report_id, text, sector=Sector.PRIMARY, language="en"):
    return Document(report_id, sector, language, text)


def crit(cid, *alternatives):
    return Criterion(cid, cid, tuple(alternatives))


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("The CEO;  the\tBoard!") == ["the", "ceo", "the", "board"]

    def test_hyphen_and_apostrophe_are_separators(self):
        assert tokenize("well-known don't") == ["well", "known", "don", "t"]

    def test_digits_kept(self):
        assert tokenize("CO2 emissions 2008") == ["co2", "emissions", "2008"]

    def test_empty(self):
        assert tokenize("") == []


class TestStemming:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("opportunities", "opportunity"),  # ies -> y
            ("classes", "class"),  # es
            ("emissions", "emission"),  # es fires before s
            ("rights", "right"),  # s
            ("reporting", "report"),  # ing
            ("delivered", "deliver"),  # ed
            ("gas", "gas"),  # residual would be too short
            ("as", "as"),
            ("ing", "ing"),
        ],
    )
    def test_rules(self, token, expected):
        assert stem_token(token) == expected

    def test_applied_once(self):
        # One pass only: no cascading strips.
        assert stem_token("dressings") == "dressing"


class TestPreprocess:
    def test_stop_word_removal(self):
        assert preprocess_text("The CEO and the Board", {"the", "and"}, False) == [
            "ceo",
            "board",
        ]

    def test_empty_text(self):
        assert preprocess_text("", {"the"}, True) == []

    def test_case_folding_with_stemming(self):
        tokens = preprocess_text("emissions Emissions EMISSIONS", frozenset(), True)
        assert tokens == ["emission", "emission", "emission"]


class TestLoadCorpus:
    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("report_id,sector,language,path\n", encoding="utf-8")
        assert load_corpus(tmp_path, manifest) == []

    def test_three_documents(self, tmp_path):
        rows = []
        for rid, sector in (("a", "primary"), ("b", "secondary"), ("c", "tertiary")):
            (tmp_path / f"{rid}.txt").write_text(f"text {rid}", encoding="utf-8")
            rows.append(f"{rid},{sector},en,{rid}.txt")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "report_id,sector,language,path\n" + "\n".join(rows) + "\n", encoding="utf-8"
        )
        corpus = load_corpus(tmp_path, manifest)
        assert [d.report_id for d in corpus] == ["a", "b", "c"]
        assert [d.sector for d in corpus] == [
            Sector.PRIMARY,
            Sector.SECONDARY,
            Sector.TERTIARY,
        ]

    def test_missing_file_names_path(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "report_id,sector,language,path\na,primary,en,x.txt\n", encoding="utf-8"
        )
        with pytest.raises(IngestionError, match="x.txt"):
            load_corpus(tmp_path, manifest)

    def test_duplicate_report_id(self, tmp_path):
        (tmp_path / "a.txt").write_text("x", encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "report_id,sector,language,path\na,primary,en,a.txt\na,primary,en,a.txt\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError):
            load_corpus(tmp_path, manifest)

    @pytest.mark.parametrize(
        "text, pattern",
        [
            ("report_id,sector,language,path\na,primary,en,a.txt,extra\n",
             "manifest row at line 2 has 5 cells, header has 4"),
            ("report_id,sector,language,path\na,primary,en\n",
             "manifest row at line 2 has 3 cells, header has 4"),
            ("report_id,sector,language,path,report_id\na,primary,en,a.txt,b\n",
             "manifest header repeats column 'report_id'"),
            ("report_id,sector,language,path\na,primary,en,a.txt\n,primary,en,a.txt\n",
             "manifest row at line 3: empty report_id"),
            ("", "manifest file has no header row"),
        ],
        ids=["extra-cell", "short-row", "repeated-id-column", "empty-id", "zero-byte"],
    )
    def test_malformed_manifest_named(self, tmp_path, text, pattern):
        (tmp_path / "a.txt").write_text("x", encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^{pattern}"):
            load_corpus(tmp_path, manifest)

    def test_unknown_sector(self, tmp_path):
        (tmp_path / "a.txt").write_text("x", encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "report_id,sector,language,path\na,primary,en,a.txt\nb,Quaternary,en,a.txt\n",
            encoding="utf-8",
        )
        message = ("manifest row at line 3, report 'b': unknown sector 'Quaternary'; "
                   "expected one of primary, secondary, tertiary")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_corpus(tmp_path, manifest)

    def test_sector_in_any_letter_case(self, tmp_path, fixture_corpus):
        text = MANIFEST.read_text(encoding="utf-8")
        for label, written in (("primary", "Primary"), ("tertiary", "TERTIARY")):
            text = text.replace(f",{label},", f",{written},")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text, encoding="utf-8")
        assert load_corpus(FIXTURE_DIR, manifest) == fixture_corpus

    def test_columns_found_by_name(self, tmp_path, fixture_corpus):
        rows = list(csv.reader(MANIFEST.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == ["report_id", "sector", "language", "path"]
        permuted = [[path, language, rid, sector] for rid, sector, language, path in rows]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(map(",".join, permuted)) + "\n", encoding="utf-8")
        assert load_corpus(FIXTURE_DIR, manifest) == fixture_corpus

    def test_report_byte_order_mark_dropped(self, tmp_path, fixture_corpus):
        (tmp_path / "manifest.csv").write_bytes(MANIFEST.read_bytes())
        for document in fixture_corpus:
            report = f"{document.report_id}.txt"
            (tmp_path / report).write_bytes(b"\xef\xbb\xbf" + (FIXTURE_DIR / report).read_bytes())
        marked = load_corpus(tmp_path, tmp_path / "manifest.csv")
        assert marked == fixture_corpus
        stop = miner.default_stoplist()
        assert (mine_linear(marked, default_criteria(), stop).counts
                == mine_linear(fixture_corpus, default_criteria(), stop).counts)


class TestKeywordFile:
    def test_hand_sorted_example(self):
        corpus = [doc("A", "b a"), doc("B", "a")]
        kwfile = build_sorted_keyword_file(corpus)
        assert kwfile.records == [
            ("a", "A"),
            ("a", "B"),
            ("b", "A"),
        ]

    def test_empty_corpus(self):
        kwfile = build_sorted_keyword_file([])
        assert kwfile.records == []

    def test_duplicates_retained(self):
        kwfile = build_sorted_keyword_file([doc("id", "z z")])
        assert kwfile.records == [("z", "id"), ("z", "id")]

    def test_sortedness_invariant(self):
        corpus = [doc(f"r{i}", " ".join(["beta", "alpha", "gamma"] * 3)) for i in range(4)]
        records = build_sorted_keyword_file(corpus).records
        assert all(records[i] <= records[i + 1] for i in range(len(records) - 1))

    def test_repeated_report_id_rejected(self):
        # Each report id holds one token sequence, so a second document with
        # the same id would replace the first one's records.
        with pytest.raises(ValidationError, match="report_id 'A' appears twice"):
            build_sorted_keyword_file([doc("A", "carbon"), doc("A", "water")])

    def test_round_trip(self, tmp_path):
        kwfile = build_sorted_keyword_file([doc("A", "b a"), doc("B", "a")])
        path = tmp_path / "kw.tsv"
        write_keyword_file(kwfile, path)
        assert path.read_bytes() == b"a\tA\na\tB\nb\tA\n"


# A tab and every character at which str.splitlines() breaks a line.
@pytest.mark.parametrize("ch", ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                "\x85", "\u2028", "\u2029"])
def test_keyword_file_rejects_report_id_breaking_its_lines(tmp_path, ch):
    kwfile = build_sorted_keyword_file([doc("A", "a"), doc(f"B{ch}", "a")])
    path = tmp_path / "kw.tsv"
    with pytest.raises(ValidationError, match=re.escape(f"report_id {f'B{ch}'!r}")):
        write_keyword_file(kwfile, path)
    assert not path.exists()
    # Spaces, a no-break one too, a comma and a quote are written as they are.
    kwfile = build_sorted_keyword_file([doc("A", "a"), doc("B ,\u00a0\"", "a")])
    write_keyword_file(kwfile, path)
    assert path.read_text(encoding="utf-8").splitlines() == ["a\tA", "a\tB ,\u00a0\""]


class TestMineLinear:
    def test_phrase_alternative(self):
        table = mine_linear(
            [doc("r", "sustainable development goals")],
            [crit("v1", "sustainable development")],
        )
        assert table.get("r", "v1") == 1

    def test_empty_document(self):
        table = mine_linear([doc("r", "")], [crit("v1", "human rights"), crit("v2", "x")])
        assert table.get("r", "v1") == 0 and table.get("r", "v2") == 0

    def test_non_overlapping_count(self):
        table = mine_linear(
            [doc("r", "human rights human rights")], [crit("v1", "human rights")]
        )
        assert table.get("r", "v1") == 2

    def test_longest_alternative_first(self):
        table = mine_linear(
            [doc("r", "climate change policy")],
            [crit("v1", "climate", "climate change")],
        )
        # One hit for the two-word form, not one for each alternative.
        assert table.get("r", "v1") == 1

    def test_no_self_overlap_within_criterion(self):
        table = mine_linear(
            [doc("r", "toxic waste toxic waste toxic")],
            [crit("v1", "toxic waste", "toxic")],
        )
        assert table.get("r", "v1") == 3

    def test_stop_words_bridged(self):
        table = mine_linear(
            [doc("r", "health, safety and the environment")],
            [crit("v1", "health safety and environment")],
            stoplist={"and", "the"},
        )
        assert table.get("r", "v1") == 1

    def test_empty_criteria_rejected(self):
        with pytest.raises(ValidationError):
            mine_linear([doc("r", "x")], [])


PROC_TASKS = Path("/proc/self/task")  # one entry per OS thread, on Linux


def os_threads() -> int:
    return len(os.listdir(PROC_TASKS)) if PROC_TASKS.is_dir() else threading.active_count()


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedMining:
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_rows_keep_corpus_order(self, monkeypatch, cpus):
        monkeypatch.setattr(miner, "_cpu_count", lambda: cpus)
        assert os_threads() == 1  # conftest.py keeps numpy's BLAS to this one thread
        docs = [doc(f"d{i}", "x " * i) for i in range(7)]  # blocks of 3, 2 and 2
        # One row per call of ``job``: the calling pid and the block's text lengths.
        rows = miner.map_forked(lambda block: [(os.getpid(), [len(d.text) for d in block])], docs)
        assert [len(lengths) for _, lengths in rows] == ([3, 2, 2] if cpus == 3 else [7])
        assert [n for _, lengths in rows for n in lengths] == [2 * i for i in range(7)]
        pids = [pid for pid, _ in rows]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == cpus  # one call per process
        assert_no_children()

    def test_forked_and_in_process_tables_equal(self, monkeypatch, fixture_corpus):
        monkeypatch.setattr(miner, "_cpu_count", lambda: 1)
        serial = mine_linear(fixture_corpus, default_criteria(), frozenset(["the"]), True)
        monkeypatch.setattr(miner, "_cpu_count", lambda: 3)
        forked = mine_linear(fixture_corpus, default_criteria(), frozenset(["the"]), True)
        assert forked == serial
        assert_no_children()

    def test_worker_exception_keeps_class_and_message(self, monkeypatch):
        monkeypatch.setattr(miner, "_cpu_count", lambda: 2)
        parent = os.getpid()

        def job(block):
            if os.getpid() != parent:
                raise ValidationError(f"bad report {block[0].report_id}")
            return [0]

        with pytest.raises(ValidationError, match=r"^bad report r1$"):
            miner.map_forked(job, [doc("r0", ""), doc("r1", "")])
        assert_no_children()

    def test_worker_killed_by_signal_is_an_error(self, monkeypatch):
        monkeypatch.setattr(miner, "_cpu_count", lambda: 2)
        parent = os.getpid()

        def job(block):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return [0]

        with pytest.raises(CeraError, match=r"^mining worker \d+ killed by signal 9 before"):
            miner.map_forked(job, [doc("r0", ""), doc("r1", "")])
        assert_no_children()

    def test_interrupt_kills_and_reaps_workers(self, monkeypatch):
        monkeypatch.setattr(miner, "_cpu_count", lambda: 3)
        parent = os.getpid()

        def job(block):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return [0]

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            miner.map_forked(job, [doc(f"r{i}", "") for i in range(3)])
        assert time.perf_counter() - start < 30
        assert_no_children()

    def test_other_threads_keep_mining_in_process(self, monkeypatch):
        """A ``threading`` thread and, where OS threads are listed, a ``_thread`` one,
        which ``threading.active_count()`` does not count."""
        monkeypatch.setattr(miner, "_cpu_count", lambda: 3)
        starters = [lambda wait: threading.Thread(target=wait).start()]
        if PROC_TASKS.is_dir():
            starters.append(lambda wait: _thread.start_new_thread(wait, ()))
        for start in starters:
            release = threading.Event()
            start(partial(release.wait, 30))
            try:
                docs = [doc(f"r{i}", "") for i in range(3)]
                rows = miner.map_forked(lambda block: [(os.getpid(), len(block))], docs)
            finally:
                release.set()
            deadline = time.monotonic() + 30
            while os_threads() > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert os_threads() == 1
            assert rows == [(os.getpid(), 3)]  # one call, on every item

    def test_unflushed_stdout_is_written_once(self):
        script = (
            "import sys\n"
            "from cera import miner\n"
            "from cera.scoring import default_criteria\n"
            "miner._cpu_count = lambda: 3\n"
            "sys.stdout.write('before mining\\n')\n"
            f"corpus = miner.load_corpus({str(FIXTURE_DIR)!r}, {str(MANIFEST)!r})\n"
            "miner.mine_linear(corpus, default_criteria())\n"
            "print('after mining')\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe stays block-buffered
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "before mining\nafter mining\n"


# Blocks of 2 CPUs start at r0 and r4, of 3 CPUs at r0, r3 and r6. Each later block
# brings keywords the first lacks, and r3 and r4 are empty.
BLOCK_TEXTS = [
    "alpha beta gamma", "beta delta alpha", "gamma epsilon", "", "",
    "zeta beta eta alpha", "theta gamma zeta iota", "kappa alpha theta kappa",
]
BLOCK_KEYWORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
]


class TestForkedBuild:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equals_serial_build(self, monkeypatch, tmp_path, cpus):
        corpus = [doc(f"r{i}", text) for i, text in enumerate(BLOCK_TEXTS)]
        monkeypatch.setattr(miner, "_cpu_count", lambda: 1)
        serial = build_sorted_keyword_file(corpus)
        monkeypatch.setattr(miner, "_cpu_count", lambda: cpus)
        assert os_threads() == 1
        kwfile = build_sorted_keyword_file(corpus)
        assert_no_children()
        assert kwfile.keywords == BLOCK_KEYWORDS
        assert kwfile.sequences["r6"].tolist() == [7, 2, 5, 8]
        assert kwfile.sequences["r3"].tolist() == []
        assert kwfile == serial
        write_keyword_file(serial, tmp_path / "serial.tsv")
        write_keyword_file(kwfile, tmp_path / "forked.tsv")
        assert (tmp_path / "forked.tsv").read_bytes() == (tmp_path / "serial.tsv").read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_repeated_report_id_rejected(self, monkeypatch, cpus):
        monkeypatch.setattr(miner, "_cpu_count", lambda: cpus)
        corpus = [doc(f"r{i}", text) for i, text in enumerate(BLOCK_TEXTS)] + [doc("r2", "x")]
        with pytest.raises(ValidationError, match=r"^report_id 'r2' appears twice$"):
            build_sorted_keyword_file(corpus)
        assert_no_children()
        # Both copies in one worker's block: positions 4 and 5, in 4-7 under 2 CPUs, 3-5 under 3.
        corpus = corpus[:8]
        corpus[5] = doc("r4", BLOCK_TEXTS[5])
        with pytest.raises(ValidationError, match=r"^report_id 'r4' appears twice$"):
            build_sorted_keyword_file(corpus)
        assert_no_children()


@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "ab", "c", "the", "cases"]), max_size=8), max_size=9),
    st.sampled_from([2, 3]),
)
@settings(max_examples=25, deadline=None)
def test_forked_build_equals_serial(docs_words, cpus):
    corpus = [doc(f"r{i}", " ".join(words)) for i, words in enumerate(docs_words)]
    original = miner._cpu_count
    try:
        miner._cpu_count = lambda: 1
        serial = build_sorted_keyword_file(corpus, {"the"}, True)
        miner._cpu_count = lambda: cpus
        assert build_sorted_keyword_file(corpus, {"the"}, True) == serial
    finally:
        miner._cpu_count = original


class TestMineBinary:
    def test_equals_linear_on_fixture(self, fixture_corpus):
        from cera.scoring import default_criteria

        criteria = default_criteria()
        stop = miner.default_stoplist()
        linear = mine_linear(fixture_corpus, criteria, stop, False)
        kwfile = build_sorted_keyword_file(fixture_corpus, stop, False)
        binary = mine_binary(kwfile, fixture_corpus, criteria)
        assert linear.counts == binary.counts

    def test_repeated_report_id_rejected_by_both_miners(self):
        # A table listing A twice would keep only the later document's hits.
        corpus = [doc("A", "carbon"), doc("A", "water")]
        criteria = [crit("v1", "carbon")]
        with pytest.raises(ValidationError, match="'A' appears twice"):
            mine_linear(corpus, criteria)
        with pytest.raises(ValidationError, match="'A' appears twice"):
            mine_binary(build_sorted_keyword_file(corpus), corpus, criteria)

    def test_report_missing_from_keyword_file_named(self):
        kwfile = build_sorted_keyword_file([doc("A", "carbon dioxide")])
        corpus = [doc("A", "carbon dioxide"), doc("B", "carbon dioxide")]
        with pytest.raises(ValidationError, match="not in the keyword file: B"):
            mine_binary(kwfile, corpus, [crit("v1", "carbon")])

    def test_adjacency_verification(self):
        corpus = [doc("A", "carbon dioxide emissions")]
        kwfile = build_sorted_keyword_file(corpus)
        table = mine_binary(kwfile, corpus, [crit("v1", "carbon dioxide")])
        assert table.get("A", "v1") == 1

    def test_first_word_present_but_not_adjacent(self):
        corpus = [doc("A", "carbon capture and dioxide")]
        kwfile = build_sorted_keyword_file(corpus)
        table = mine_binary(kwfile, corpus, [crit("v1", "carbon dioxide")])
        assert table.get("A", "v1") == 0

    def test_report_without_first_words_is_screened_out(self, monkeypatch):
        import numpy as np

        screened = [doc("z1", "water energy sites"), doc("z2", "dioxide emissions change")]
        mentions = random_corpus(np.random.default_rng(9), 6, 60)
        corpus = mentions[:3] + screened + mentions[3:]
        kwfile = build_sorted_keyword_file(corpus)
        seen = []
        original = miner.preprocess_text

        def counting(text, *args):
            seen.append(text)
            return original(text, *args)

        monkeypatch.setattr(miner, "preprocess_text", counting)
        table = mine_binary(kwfile, corpus, TEST_CRITERIA)
        for d in screened:
            assert set(table.row(d.report_id).values()) == {0}
        # The keyword file's sequences stand in for the reports' text.
        assert seen and set(seen) <= {alt for c in TEST_CRITERIA for alt in c.alternatives}
        monkeypatch.undo()
        assert table.counts == mine_linear(corpus, TEST_CRITERIA).counts


VOCAB = [
    "environmental", "policy", "climate", "change", "human", "rights",
    "sustainability", "carbon", "dioxide", "emissions", "toxic", "waste",
    "customer", "satisfaction", "sales", "growth", "report", "annual",
    "the", "and", "of", "water", "energy", "sites",
]

TEST_CRITERIA = [
    crit("v1", "environmental policy"),
    crit("v2", "climate change", "carbon dioxide emissions"),
    crit("v3", "human rights"),
    crit("v4", "sales", "customer satisfaction"),
    crit("v5", "toxic waste", "toxic"),
]


def random_corpus(rng, n_docs, max_tokens):
    sectors = [Sector.PRIMARY, Sector.SECONDARY, Sector.TERTIARY]
    corpus = []
    for i in range(n_docs):
        n_tokens = int(rng.integers(10, max_tokens + 1))
        words = rng.choice(VOCAB, size=n_tokens)
        corpus.append(doc(f"d{i}", " ".join(words), sectors[i % 3]))
    return corpus


class TestStrategyEquivalence:
    def test_randomized_corpora(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for trial in range(25):
            corpus = random_corpus(rng, int(rng.integers(2, 12)), 300)
            stemming = bool(rng.integers(0, 2))
            stop = frozenset(["the", "and", "of"]) if rng.integers(0, 2) else frozenset()
            linear = mine_linear(corpus, TEST_CRITERIA, stop, stemming)
            kwfile = build_sorted_keyword_file(corpus, stop, stemming)
            binary = mine_binary(kwfile, corpus, TEST_CRITERIA)
            assert linear.counts == binary.counts, f"trial {trial} diverged"

    def test_monotone_under_appended_text(self):
        import numpy as np

        rng = np.random.default_rng(8)
        base = random_corpus(rng, 4, 150)
        extended = [
            doc(d.report_id, d.text + " human rights climate change", d.sector)
            for d in base
        ]
        before = mine_linear(base, TEST_CRITERIA)
        after = mine_linear(extended, TEST_CRITERIA)
        for key, count in before.counts.items():
            assert after.counts[key] >= count

    def test_determinism(self):
        import numpy as np

        rng = np.random.default_rng(9)
        corpus = random_corpus(rng, 6, 200)
        first = mine_linear(corpus, TEST_CRITERIA, frozenset(["the"]), True)
        second = mine_linear(corpus, TEST_CRITERIA, frozenset(["the"]), True)
        assert first.counts == second.counts
        kw1 = build_sorted_keyword_file(corpus, frozenset(["the"]), True)
        kw2 = build_sorted_keyword_file(corpus, frozenset(["the"]), True)
        assert kw1.records == kw2.records


# The token rule, stated as a regex: maximal runs of Unicode word characters
# other than "_" (CPython's ``re`` defines ``\w`` as ``isalnum() or "_"``).
TOKEN_ORACLE = re.compile(r"[^\W_]+")
# Composed and decomposed accents, a dotted capital I whose lowercase adds a
# combining mark, apostrophes, dashes, "_", non-ASCII digits, astral letters.
TRICKY_CHARS = [
    "é", "e\u0301", "ï", "i\u0308", "\u0130", "ß", "_", "'", "\u2019", "\u2013", "-",
    "9", "\u0663", "\u00bd", "\U0001d518", "\U0001f600", " ", "\t", "\u00a0",
]
ASCII_TEXT = st.text(st.characters(max_codepoint=127), max_size=80)
UNICODE_TEXT = st.lists(
    st.one_of(st.characters(), st.sampled_from(TRICKY_CHARS)), max_size=80
).map("".join)


@given(st.one_of(ASCII_TEXT, UNICODE_TEXT))
@settings(max_examples=200, deadline=None)
def test_tokenize_matches_regex_oracle(text):
    expected = TOKEN_ORACLE.findall(unicodedata.normalize("NFC", text.lower()))
    assert tokenize(text) == expected


def test_ascii_table_matches_regex_on_every_ascii_code_point():
    text = "".join(map(chr, range(128)))
    assert tokenize(text) == TOKEN_ORACLE.findall(text.lower())


@given(st.text(max_size=300))
@settings(max_examples=60, deadline=None)
def test_tokenize_properties(text):
    tokens = tokenize(text)
    for token in tokens:
        assert token == token.lower()
        assert token
        assert not any(ch.isspace() for ch in token)


@given(st.lists(st.sampled_from(VOCAB), max_size=40), st.booleans())
@settings(max_examples=60, deadline=None)
def test_preprocess_removes_stoplist(words, stemming):
    stop = {"the", "and", "of"}
    tokens = preprocess_text(" ".join(words), stop, stemming)
    assert not set(tokens) & stop


def greedy_count(tokens, phrases):
    """Reference counter for one criterion: greedy, longest phrase first, no overlap."""
    phrases = sorted(phrases, key=lambda p: (-len(p), p))
    count = i = 0
    while i < len(tokens):
        for phrase in phrases:
            if tuple(tokens[i : i + len(phrase)]) == phrase:
                count += 1
                i += len(phrase)
                break
        else:
            i += 1
    return count


# Criteria that share whole phrases and first tokens, so one scan over all
# criteria must keep each criterion's matches apart.
SHARED_VOCAB = ["sustainable", "development", "goals", "climate", "change", "policy",
                "carbon", "the", "of"]
SHARED_CRITERIA = [
    crit("v1", "sustainable development", "development goals"),
    crit("v2", "sustainable development", "climate"),
    crit("v3", "climate change", "climate", "change policy"),
    crit("v4", "carbon", "carbon policy", "policy"),
    crit("v5", "the climate", "climate of change"),
]


@given(st.lists(st.sampled_from(SHARED_VOCAB), max_size=80), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_merged_scan_matches_per_criterion_oracle(words, stemming, use_stop):
    stop = frozenset(["the", "of"]) if use_stop else frozenset()
    corpus = [doc("r", " ".join(words))]
    linear = mine_linear(corpus, SHARED_CRITERIA, stop, stemming)
    binary = mine_binary(build_sorted_keyword_file(corpus, stop, stemming), corpus, SHARED_CRITERIA)
    tokens = preprocess_text(corpus[0].text, stop, stemming)
    for c in SHARED_CRITERIA:
        phrases = {tuple(preprocess_text(alt, stop, stemming)) for alt in c.alternatives} - {()}
        expected = greedy_count(tokens, phrases)
        assert linear.get("r", c.criterion_id) == expected, c.criterion_id
        assert binary.get("r", c.criterion_id) == expected, c.criterion_id


@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "ab", "c", "the", "cases"]), max_size=30), max_size=12),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_keyword_file_matches_per_occurrence_rendering(tmp_path_factory, docs_words, stemming):
    # Descending ids, some of which sort differently as strings than as numbers.
    corpus = [doc(f"r{len(docs_words) - i}", " ".join(words)) for i, words in enumerate(docs_words)]
    kwfile = build_sorted_keyword_file(corpus, {"the"}, stemming)
    occurrences = sorted(
        (token, d.report_id) for d in corpus for token in preprocess_text(d.text, {"the"}, stemming)
    )
    assert kwfile.records == occurrences
    path = tmp_path_factory.mktemp("kw") / "kw.tsv"
    write_keyword_file(kwfile, path)
    assert path.read_bytes() == "".join(f"{k}\t{r}\n" for k, r in occurrences).encode()


@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "ab", "c", "the", "cases"]), max_size=30), max_size=12),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_keyword_file_sequences(docs_words, stemming):
    corpus = [doc(f"r{len(docs_words) - i}", " ".join(words)) for i, words in enumerate(docs_words)]
    kwfile = build_sorted_keyword_file(corpus, {"the"}, stemming)
    keywords = kwfile.keywords
    assert len(set(keywords)) == len(keywords)
    for d in corpus:
        decoded = [keywords[k] for k in kwfile.sequences[d.report_id]]
        assert decoded == preprocess_text(d.text, {"the"}, stemming)


ACCENTED_VOCAB = ["énergie", "renouvelable", "forêt", "naïve", "café", "à", "accès", "the"]
ACCENTED_CRITERIA = [
    crit("v1", "énergie renouvelable", "énergie"),
    crit("v2", "forêt"),
    crit("v3", "accès à énergie", "naïve café"),
]


@given(st.lists(st.sampled_from(ACCENTED_VOCAB), max_size=60), st.booleans())
@settings(max_examples=60, deadline=None)
def test_nfc_and_nfd_inputs_count_alike(words, stemming):
    tables = []
    for form in ("NFC", "NFD"):
        norm = partial(unicodedata.normalize, form)
        corpus = [doc("r", norm(" ".join(words)))]
        criteria = [crit(c.criterion_id, *map(norm, c.alternatives)) for c in ACCENTED_CRITERIA]
        stop = miner._parse_stoplist(norm("à\nthe\n"))
        tables.append(mine_linear(corpus, criteria, stop, stemming))
        kwfile = build_sorted_keyword_file(corpus, stop, stemming)
        tables.append(mine_binary(kwfile, corpus, criteria))
    assert all(t.counts == tables[0].counts for t in tables)
    assert tables[0].get("r", "v2") == words.count("forêt")


class TestFrequencyCsv:
    def test_round_trip(self, tmp_path, fixture_corpus):
        from cera.scoring import default_criteria

        table = mine_linear(fixture_corpus, default_criteria(), miner.default_stoplist())
        path = tmp_path / "freq.csv"
        write_frequency_csv(table, path)
        again = read_frequency_csv(path)
        assert again.counts == table.counts
        assert again.report_ids == table.report_ids
        assert again.criterion_ids == table.criterion_ids

    def test_fixture_counts_match_hand_values(self, fixture_corpus):
        from cera.scoring import default_criteria

        table = mine_linear(fixture_corpus, default_criteria(), miner.default_stoplist())
        for rid, expected in FIXTURE_FREQUENCIES.items():
            got = [table.get(rid, f"v{i + 1}") for i in range(10)]
            assert got == expected, f"{rid}: {got} != {expected}"

    def test_lf_line_endings(self, tmp_path, fixture_corpus):
        from cera.scoring import default_criteria

        table = mine_linear(fixture_corpus, default_criteria(), miner.default_stoplist())
        path = tmp_path / "freq.csv"
        write_frequency_csv(table, path)
        assert b"\r" not in path.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "freq.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            read_frequency_csv(path)

    def test_non_integer_count_rejected(self, tmp_path):
        path = tmp_path / "freq.csv"
        path.write_text("report_id,v1,v2\nr1,1,2\nr2,3,two\n", encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=r"^frequency row at line 3: non-integer count 'two' for \(r2, v2\)$"):
            read_frequency_csv(path)

    def test_columns_found_by_name(self, tmp_path):
        ordered, permuted = tmp_path / "ordered.csv", tmp_path / "permuted.csv"
        ordered.write_text("report_id,v1,v2\nA,1,2\nB,3,4\n", encoding="utf-8")
        permuted.write_text("v1,report_id,v2\n1,A,2\n3,B,4\n", encoding="utf-8")
        assert read_frequency_csv(permuted) == read_frequency_csv(ordered)

    def test_duplicate_report_id_rejected(self, tmp_path):
        path = tmp_path / "freq.csv"
        path.write_text("report_id,v1,v2\nA,1,2\nA,3,4\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="frequency row at line 3: duplicate report_id 'A'"):
            read_frequency_csv(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "freq.csv"
        path.write_text("report_id,v1,v1\nA,3,999\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="repeats column 'v1'"):
            read_frequency_csv(path)

    def test_extra_cell_rejected(self, tmp_path):
        path = tmp_path / "freq.csv"
        path.write_text("report_id,v1,v2\nA,1,2\nB,5,6,99\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="frequency row at line 3 has 4 cells, header has 3"):
            read_frequency_csv(path)
