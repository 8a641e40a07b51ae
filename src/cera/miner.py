"""Corpus loading, token preprocessing, and criterion-frequency mining.

Reports are plain-text files listed in a CSV manifest together with their
industry sector and language. Mining counts, per report and per criterion,
the non-overlapping occurrences of any of the criterion's phrase
alternatives in the preprocessed token stream. Two interchangeable search
strategies are provided: a sequential scan (:func:`mine_linear`) and a
lookup against a sorted ``<keyword, file>`` record file (:func:`mine_binary`).
Both must produce identical frequency tables on identical inputs. ``Sector``
and the text, config and CSV readers come from :mod:`scoring`.
"""

from __future__ import annotations

import os
import re
import unicodedata
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import compress, count, filterfalse
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, NamedTuple, Sequence

from . import DATA
from .errors import CeraError, IngestionError, ValidationError
from .scoring import Criterion, Sector, config_lines, load_config, read_table, write_table


class Document(NamedTuple):
    report_id: str
    sector: Sector
    language_tag: str
    text: str


Corpus = list[Document]


class KeywordFile(NamedTuple):
    """The ``<keyword, file>`` record file, held as token sequences.

    ``keywords`` holds each keyword once, as first seen. ``sequences`` maps each
    report id to its preprocessed token order, as indices into ``keywords``; each
    position in a sequence is one record. The stop list and stemming flag are the
    preprocessing settings, which binary mining applies to criterion phrases.
    """

    keywords: list[str]
    sequences: dict[str, array]
    stoplist: frozenset[str]
    stemming: bool

    @property
    def records(self) -> list[tuple[str, str]]:
        """One ``(keyword, report_id)`` tuple per token occurrence, sorted on every access.
        Only tests and the benchmark's record counter read it (ROADMAP item 1b deletes it)."""
        return sorted((self.keywords[k], rid) for rid, seq in self.sequences.items() for k in seq)


# Tokens are maximal runs of characters for which ``str.isalnum()`` holds;
# hyphens, apostrophes, underscores and all other punctuation act as separators.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same rule for ASCII text, as a ``str.translate`` table: alphanumerics map
# to themselves, every other character to a space.
_ASCII_SEPARATORS = {c: c if chr(c).isalnum() else 32 for c in range(128)}

# Suffix-stripping rules, applied once per token, first match wins. A rule
# fires only when the remaining stem keeps at least 3 characters.
_STEM_RULES = (("ies", "y"), ("es", ""), ("s", ""), ("ing", ""), ("ed", ""))


def stem_token(token: str) -> str:
    for suffix, replacement in _STEM_RULES:
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)] + replacement
    return token


def tokenize(text: str) -> list[str]:
    # NFC: a decomposed accent is a combining mark, which is not alphanumeric.
    text = unicodedata.normalize("NFC", text.lower())
    if text.isascii():
        # str.translate has a fast path for all-ASCII strings only; on any
        # other string it is slower than the regex.
        return text.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(text)


def preprocess_text(
    text: str, stoplist: Iterable[str] = frozenset(), stemming: bool = False
) -> list[str]:
    """Lowercase, tokenize, drop stop-list tokens, then optionally stem."""
    stopset = stoplist if isinstance(stoplist, (set, frozenset)) else frozenset(stoplist)
    kept = filterfalse(stopset.__contains__, tokenize(text))
    return list(map(stem_token, kept) if stemming else kept)


def default_stoplist() -> frozenset[str]:
    """Shipped stop list: articles, prepositions, conjunctions, pronouns, common verbs."""
    return load_stoplist(DATA / "stopwords.txt")


def load_stoplist(path) -> frozenset[str]:
    return load_config(path, "stop list", _parse_stoplist)


def _parse_stoplist(text: str) -> frozenset[str]:
    words = set()
    for line in config_lines(text):
        word = unicodedata.normalize("NFC", line.lower())
        if any(ch.isspace() for ch in word):
            raise ValidationError(f"stop-list entries must be single words: {word!r}")
        words.add(word)
    return frozenset(words)


def load_corpus(root_path, manifest) -> Corpus:
    """Read a corpus from the ``manifest`` table: report_id,sector,language,path.

    Relative paths resolve against ``root_path``. Text is read as UTF-8 with
    invalid byte sequences replaced and a leading byte-order mark dropped.
    """
    root = Path(root_path)
    _, rows = read_table(manifest, "manifest", ("report_id", "sector", "language", "path"))

    corpus: Corpus = []
    for line, row in rows:
        rid = row["report_id"]
        try:
            sector = Sector(row["sector"])
        except ValueError as exc:
            raise ValidationError(f"manifest row at line {line}, report {rid!r}: {exc}") from None
        path = root / row["path"]  # an absolute path replaces root
        if not path.is_file():
            raise IngestionError(f"report file not found: {path}")
        text = path.read_text(encoding="utf-8-sig", errors="replace")
        corpus.append(Document(rid, sector, row["language"], text))
    return corpus


class FrequencyTable:
    """Complete (report, criterion) -> count mapping over a corpus; equal tables
    hold the same ids in the same order and the same counts."""

    def __init__(
        self, report_ids: list[str], criterion_ids: list[str], counts: dict[tuple[str, str], int]
    ):
        seen: set[str] = set()
        for rid in report_ids:
            if rid in seen:
                raise ValidationError(f"report_id {rid!r} appears twice")
            seen.add(rid)
            for cid in criterion_ids:
                value = counts.get((rid, cid))
                if value is None:
                    raise ValidationError(f"missing count for ({rid}, {cid})")
                if value < 0:
                    raise ValidationError(f"negative count for ({rid}, {cid})")
        self.report_ids = report_ids
        self.criterion_ids = criterion_ids
        self.counts = counts

    def __eq__(self, other) -> bool:
        return type(other) is FrequencyTable and vars(other) == vars(self)

    def get(self, report_id: str, criterion_id: str) -> int:
        return self.counts[(report_id, criterion_id)]

    def row(self, report_id: str) -> dict[str, int]:
        return {cid: self.counts[(report_id, cid)] for cid in self.criterion_ids}


def build_sorted_keyword_file(
    corpus: Corpus, stoplist: Iterable[str] = frozenset(), stemming: bool = False
) -> KeywordFile:
    """Token sequences from one preprocessing pass per report, in this process.

    Keywords are numbered as first seen; they are sorted where the file is
    written and searched. A report id listed twice is a ValidationError.
    """
    stopset = frozenset(stoplist)
    first_seen: defaultdict[str, int] = defaultdict(count().__next__)
    sequences: dict[str, array] = {}
    for doc in corpus:
        if doc.report_id in sequences:
            raise ValidationError(f"report_id {doc.report_id!r} appears twice")
        sequences[doc.report_id] = array("I", [  # no name keeps a report's token list alive
            *map(first_seen.__getitem__, preprocess_text(doc.text, stopset, stemming))
        ])
    return KeywordFile(list(first_seen), sequences, stopset, stemming)


# Each keyword's report ids in sorted order, and its occurrence count in each.
Postings = dict[str, tuple[list[str], array]]


def keyword_postings(kwfile: KeywordFile) -> Postings:
    """The postings of every keyword, tallied with one ``Counter`` per report in sorted id order.

    A report id holding a tab or a line break, which would break the keyword
    file's lines, is a ValidationError.
    """
    ids: list[list[str]] = [[] for _ in kwfile.keywords]
    counts = [array("I") for _ in kwfile.keywords]
    for rid in sorted(kwfile.sequences):
        if "\t" in rid or len(f"{rid}.".splitlines()) > 1:
            raise ValidationError(f"keyword file cannot hold report_id {rid!r}: tab or line break")
        for k, n in Counter(kwfile.sequences[rid]).items():
            ids[k].append(rid)
            counts[k].append(n)
    return dict(zip(kwfile.keywords, zip(ids, counts)))


def write_keyword_file(blocks: Sequence[Postings], path) -> None:
    """External format: one ``keyword<TAB>report_id`` line per record, LF endings, sorted.

    ``blocks`` holds the :func:`keyword_postings` of blocks of reports that ascend in
    report id, so each keyword's postings join block by block into one written chunk.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for keyword in sorted(set().union(*blocks)):
            fh.write("".join([f"{keyword}\t{rid}\n" * n for postings in blocks
                              for rid, n in zip(*postings.get(keyword, ((), ())))]))


# First token -> (criterion index, phrase) entries, longest phrase first
# within each criterion. Binary mining keys the same index by keyword number.
CriteriaIndex = dict[str, list[tuple[int, tuple[str, ...]]]]


def _compile_criteria(
    criteria: Sequence[Criterion], stoplist: frozenset[str], stemming: bool
) -> CriteriaIndex:
    """Preprocess every criterion's phrases into one first-token index.

    Within each criterion, alternatives are entered longest-first so the
    greedy scan always prefers the criterion's longest match at a position.
    """
    if not criteria:
        raise ValidationError("criteria set is empty")
    index: CriteriaIndex = {}
    for ci, crit in enumerate(criteria):
        alternatives = {tuple(preprocess_text(p, stoplist, stemming)) for p in crit.alternatives}
        alternatives.discard(())
        for alt in sorted(alternatives, key=lambda alt: (-len(alt), alt)):
            index.setdefault(alt[0], []).append((ci, alt))
    return index


def _count_hits(tokens: Sequence, index: dict, n_criteria: int) -> list[int]:
    """Greedy left-to-right counts of non-overlapping phrase occurrences, per criterion.

    One pass serves all criteria: each keeps its own next free position, so
    its matches never overlap each other but may overlap another criterion's.
    Only positions holding some phrase's first token are visited.
    """
    counts = [0] * n_criteria
    free = [0] * n_criteria
    for i in compress(range(len(tokens)), map(index.__contains__, tokens)):
        for ci, alt in index[tokens[i]]:
            if free[ci] <= i:
                k = len(alt)
                if k == 1 or tuple(tokens[i : i + k]) == alt:
                    counts[ci] += 1
                    free[ci] = i + k
    return counts


def _frequency_table(corpus: Corpus, criteria: Sequence[Criterion], rows) -> FrequencyTable:
    """Table from one row of per-criterion counts per report, in corpus order."""
    cids = [crit.criterion_id for crit in criteria]
    counts: dict[tuple[str, str], int] = {}
    for doc, row in zip(corpus, rows):
        counts.update(zip([(doc.report_id, cid) for cid in cids], row))
    return FrequencyTable([doc.report_id for doc in corpus], cids, counts)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _processes(jobs: int) -> int:
    """How many processes should share ``jobs`` jobs: the smaller of the CPU count
    and ``jobs`` but at least 1, or 1 without ``os.fork`` or while other OS threads
    run (forking them is unsafe). Threads are counted in ``/proc/self/task``,
    native ones too, where it exists."""
    import threading  # loaded only by the commands that mine

    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    if not hasattr(os, "fork") or threads > 1:
        return 1
    return min(_cpu_count(), jobs) or 1


def map_forked(job: Callable[[Sequence], object], items: Sequence) -> list:
    """What ``job`` returns on each contiguous block of ``items``, in block order.

    ``items`` is cut into :func:`_processes` blocks, the first ones one item longer
    where they do not divide evenly. Each process calls ``job`` once: this process on
    the first block, worker ``w`` on block ``w``; one block, as for no items, forks no
    worker. Every worker is reaped before this returns or raises. An exception raised
    here wins, and the workers are killed; otherwise a worker's exception is raised
    again here, and one that ends without sending its result is a CeraError.
    """
    n = _processes(len(items))
    bounds = [-(-len(items) * w // n) for w in range(n + 1)]
    blocks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    workers: list[tuple[int, BinaryIO]] = []  # pid and pipe of each unreaped worker
    try:
        for block in blocks[1:]:
            workers.append(_fork(job, block))
        results = [job(blocks[0])]
        while workers:
            results.append(_join(workers))
    finally:
        _end(workers)
    return results


def _fork(job: Callable[[Sequence], object], block: Sequence) -> tuple[int, BinaryIO]:
    """Fork a worker that computes ``job(block)``; its pid and the read end of its pipe.

    The worker sends ``pickle.dumps((True, result))``, or ``(False, exception)``
    when ``job`` raises, then ends with ``os._exit``: it flushes no stdio
    buffer it inherited and never returns into the caller's stack.
    """
    import pickle  # loaded only by the commands that fork, before the fork for the worker

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            try:
                message = pickle.dumps((True, job(block)))
            except Exception as exc:
                message = pickle.dumps((False, exc))
            with open(write_end, "wb") as pipe:
                pipe.write(message)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _join(workers: list[tuple[int, BinaryIO]]):
    """Reap ``workers[0]``, drop it from the list and return the result it sent.

    Its exception is raised again with its class and message; a worker that
    ends without sending is a CeraError.
    """
    import pickle

    pid, pipe = workers[0]
    with pipe:
        message = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del workers[0]
    if code:
        how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise CeraError(f"mining worker {pid} {how} before sending its rows")
    ok, payload = pickle.loads(message)
    if not ok:
        raise payload
    return payload


def _end(workers: list[tuple[int, BinaryIO]]) -> None:
    """Kill and reap the workers an exception left unreaped; with none, load no ``signal``."""
    for pid, pipe in workers:
        import signal

        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def mine_linear(
    corpus: Corpus,
    criteria: Sequence[Criterion],
    stoplist: Iterable[str] = frozenset(),
    stemming: bool = False,
) -> FrequencyTable:
    """Linear strategy: preprocess and scan each report in turn, in this process."""
    stopset = frozenset(stoplist)
    index = _compile_criteria(criteria, stopset, stemming)
    n = len(criteria)
    rows = (_count_hits(preprocess_text(doc.text, stopset, stemming), index, n) for doc in corpus)
    return _frequency_table(corpus, criteria, rows)


def _find(table: Sequence[tuple[str, int]], word: str) -> int | None:
    """The number paired with ``word`` in the sorted ``(keyword, number)`` table, or None."""
    i = bisect_left(table, (word,))
    return table[i][1] if i < len(table) and table[i][0] == word else None


def mine_binary(
    kwfile: KeywordFile, corpus: Corpus, criteria: Sequence[Criterion]
) -> FrequencyTable:
    """Keyword-file strategy; must agree exactly with :func:`mine_linear`.

    Each criterion phrase's words are found by binary search over the sorted
    keywords. Each report's stored token sequence is then scanned once for
    all criteria. No report text is preprocessed again; only the criterion
    phrases are. A report missing from the keyword file is a ValidationError.
    """
    table = sorted(zip(kwfile.keywords, count()))
    index: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for entries in _compile_criteria(criteria, kwfile.stoplist, kwfile.stemming).values():
        for ci, alt in entries:
            numbers = tuple(_find(table, word) for word in alt)
            if None not in numbers:  # else some word occurs in no report
                index.setdefault(numbers[0], []).append((ci, numbers))
    missing = [doc.report_id for doc in corpus if doc.report_id not in kwfile.sequences]
    if missing:
        raise ValidationError(f"report(s) not in the keyword file: {', '.join(missing)}")
    rows = (_count_hits(kwfile.sequences[doc.report_id], index, len(criteria)) for doc in corpus)
    return _frequency_table(corpus, criteria, rows)


def mine(corpus: Corpus, criteria: Sequence[Criterion], stoplist: frozenset[str],
         stemming: bool, binary: bool) -> tuple[FrequencyTable, list[Postings]]:
    """The one mining path: the table in corpus order and, mined binary, the postings of
    the blocks :func:`map_forked` mines in report-id order, which :func:`write_keyword_file`
    joins. Only here are blocks mined and their tables merged."""
    def mine_block(block: Corpus) -> tuple[FrequencyTable, Postings]:
        if not binary:
            return mine_linear(block, criteria, stoplist, stemming), {}
        kwfile = build_sorted_keyword_file(block, stoplist, stemming)
        return mine_binary(kwfile, block, criteria), keyword_postings(kwfile)

    tables, postings = zip(*map_forked(mine_block, sorted(corpus, key=lambda doc: doc.report_id)))
    counts = {key: n for table in tables for key, n in table.counts.items()}
    table = FrequencyTable([doc.report_id for doc in corpus], tables[0].criterion_ids, counts)
    return table, list(postings) if binary else []


def write_frequency_csv(table: FrequencyTable, path) -> None:
    rows = (
        [rid, *(table.counts[(rid, cid)] for cid in table.criterion_ids)]
        for rid in table.report_ids
    )
    write_table(path, ["report_id", *table.criterion_ids], rows)


def read_frequency_csv(path) -> FrequencyTable:
    """A frequency table: a ``report_id`` column, the others criteria in header order."""
    header, rows = read_table(path, "frequency")
    criterion_ids = [name for name in header if name != "report_id"]
    counts = {}
    for line, row in rows:
        rid = row["report_id"]
        for cid in criterion_ids:
            try:
                counts[(rid, cid)] = int(row[cid])
            except ValueError:
                problem = f"non-integer count {row[cid]!r} for ({rid}, {cid})"
                raise ValidationError(f"frequency row at line {line}: {problem}") from None
    return FrequencyTable([row["report_id"] for _, row in rows], criterion_ids, counts)
