"""Smoke test of the benchmark harness on tiny generated corpora.

Keeps the harness from rotting in a few seconds: one CLI child is started,
the workload operations run in-process. Run it alone with
``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
for path in (str(BENCH), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

import gencorpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cera import miner, scoring  # noqa: E402

# Tiny corpora are often too small for MDA and both SEM models; this seed's
# 82-report corpus and its bootstrap resamples are well-posed.
TINY = 0.15
SEED = 2


def _benchmark() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _documents(corpus: gencorpus.Corpus) -> list[miner.Document]:
    return [miner.Document(r.report_id, miner.Sector(r.sector), r.language, r.text)
            for r in corpus.reports]


def test_generator_lexicon_matches_the_packaged_one():
    packaged = {c.criterion_id: c.alternatives for c in scoring.default_criteria()}
    assert gencorpus.CRITERIA == packaged
    stoplist = miner.default_stoplist()
    assert set(gencorpus.STOP_WORDS) <= stoplist
    criterion_tokens = {t for alts in packaged.values() for p in alts
                        for t in miner.preprocess_text(p, stoplist)}
    assert not set(gencorpus.CONTENT_WORDS) & (stoplist | criterion_tokens)


def test_generator_is_deterministic():
    assert gencorpus.generate(3, "hostile", 0.02) == gencorpus.generate(3, "hostile", 0.02)


@pytest.mark.parametrize("profile", ["well-posed", "hostile"])
def test_planted_counts_match_both_miners(profile):
    corpus = gencorpus.generate(3, profile, 0.05)
    docs = _documents(corpus)
    criteria = scoring.default_criteria()
    stoplist = miner.default_stoplist()
    linear = miner.mine_linear(docs, criteria, stoplist)
    binary = miner.mine_binary(miner.build_sorted_keyword_file(docs, stoplist), docs, criteria)
    oracle = {(r.report_id, cid): n for r in corpus.reports
              for cid, n in zip(gencorpus.CRITERION_IDS, r.counts)}
    assert linear.counts == oracle
    assert binary.counts == oracle
    assert sum(len(miner.tokenize(d.text)) for d in docs) == corpus.raw_tokens
    assert sum(len(miner.preprocess_text(d.text, stoplist)) for d in docs) == corpus.kept_tokens
    if profile == "hostile":
        v2 = gencorpus.CRITERION_IDS.index("v2")
        v8 = gencorpus.CRITERION_IDS.index("v8")
        assert {gencorpus.band_score(r.counts[v2]) for r in corpus.reports} == {10}
        assert all(r.counts[v8] == 0 for r in corpus.reports if r.sector == "primary")


@pytest.fixture
def in_process(monkeypatch):
    """Run CLI operations in-process; the hostile-corpus child is skipped."""
    monkeypatch.setattr(workloads, "CHECK_HOSTILE", False)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer) as run_subcommand:
        yield tracer, run_subcommand


def test_traced_operations_report_every_per_layer_metric(tmp_path, in_process):
    tracer, run_subcommand = in_process
    exercised = {}
    for i, name in enumerate(("paper-binary", "reanalysis")):
        work = tmp_path / name
        work.mkdir()
        cli = workloads.Cli(work)
        wl = workloads.WORKLOADS[name](SEED, work, cli, TINY)
        wl.prepare()
        out = work / "traced"
        out.mkdir()
        assert tracing.traced_op(tracer, run_subcommand, wl, i, out) == []
        exercised[name] = {s.name for s in tracer.spans if s.op == i}
        wl.verify(name, 0, out, lambda artifact: 0)
        assert cli.failed == 0, cli.problems
    assert {"miner.kwfile_build", "miner.mine_binary", "report.emit"} <= exercised["paper-binary"]
    assert "miner.mine_linear" not in exercised["paper-binary"]
    assert "sem.fit.free_loadings" in exercised["reanalysis"]
    assert not any(s.startswith("miner.") for s in exercised["reanalysis"])
    # The pipeline reads the corpus once to mine and once to score.
    assert [s.name for s in tracer.spans if s.op == 0].count("miner.load_corpus") == 2
    assert tracer.counts["scoring.cards_kept"][0] == 82

    metrics = tracing.layer_metrics(tracer)
    metrics["cli.import_s"] = metrics["trace.overhead_s"] = (0.0, "s")
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared


def test_timed_run_prints_every_end_to_end_metric(tmp_path, monkeypatch, capsys, in_process):
    """One real child (the set-up probe); the operations run in-process."""
    tracer, run_subcommand = in_process

    def cera(cli, *args):
        index = cli.begin()
        start = time.perf_counter()
        code = run_subcommand([str(a) for a in args])
        return workloads.Child(index, code, time.perf_counter() - start, 0.01, 1.0, "")

    monkeypatch.setattr(workloads.Cli, "cera", cera)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SCALE", TINY)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    assert run.main(["--workload", "paper-linear", "--seed", str(SEED), "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # One set-up probe and one operation of two commands.
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    declared = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert list(tmp_path.iterdir()) == []
    spans = {s.name for s in tracer.spans}
    assert "miner.mine_linear" in spans and "miner.kwfile_build" not in spans


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "reanalysis", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
