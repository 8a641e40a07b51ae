"""The benchmark's workloads: inputs, CLI operations and output checks.

Every workload drives the real command line, ``python -m cera.cli``, in
child processes, one at a time (a closed loop with one client). An
operation is one CLI invocation; it fails when it exits non-zero, writes
an artifact with ``"status": "error"``, or fails an output check.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gencorpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FREE_MODEL = BENCH_DIR / "free_loadings_model.txt"

# A child that outlives this is killed, so one run always ends in time.
CHILD_TIMEOUT_S = 150
# Operations per run, at least, so no median rests on one sample. At the
# benchmark's 20 s every workload also repeats an input and compares digests.
MIN_OPS = 2
RESAMPLES = 3
HOSTILE_SCALE = 0.2
# The smoke test turns the untimed hostile-corpus check off to save a CLI start.
CHECK_HOSTILE = True


@dataclass
class Child:
    index: int  # operation number within the run
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


class Cli:
    """Starts CLI children one at a time and tallies attempted and failed operations.

    A failed check is charged to the operation that wrote the artifact, so an
    operation counts as failed at most once.
    """

    def __init__(self, logs: Path):
        self.logs = logs
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def spawn(self, argv: list[str], capture: bool = False) -> Child:
        """Run one child to completion; its rusage gives CPU time and peak RSS."""
        index = self.begin()
        log = self.logs / f"child-{index}.err"
        start = time.perf_counter()
        with open(log, "wb") as err:
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                stderr=err, env=self.env, cwd=self.logs,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read() if proc.stdout else b""
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if proc.stdout:
                    proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            stderr = log.read_text("utf-8", "replace")
            self.fail(index, f"{' '.join(argv[1:4])}: exit {proc.returncode}: {stderr[-300:]}")
        return Child(
            index=index,
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.decode("utf-8", "replace"),
        )

    def cera(self, *args) -> Child:
        return self.spawn([sys.executable, "-m", "cera.cli", *map(str, args)])

    def begin(self) -> int:
        """Count one more attempted operation and return its number."""
        self.attempted += 1
        return self.attempted - 1

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, index: int, problem: str) -> None:
        self.failed_ops.add(index)
        self.problems.append(problem)


@dataclass
class Op:
    """One workload operation: a fixed sequence of CLI children."""

    children: list[Child]
    wall_s: float

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


def digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def check_bytes(path: Path, expected: bytes) -> str | None:
    if not path.is_file():
        return f"{path.name} missing"
    if path.read_bytes() != expected:
        return f"{path.name} differs from the planted oracle"
    return None


def check_analysis(path: Path) -> str | None:
    """On the well-posed profile MDA and SEM must succeed, SEM with no Heywood case."""
    try:
        payload = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return f"cannot read {path.name}: {exc}"
    if payload.get("status") == "error":
        return f"{path.name} is an error artifact: {payload.get('message')}"
    conv = payload.get("convergence")
    if conv is not None and (not conv.get("converged") or conv.get("heywood_variables")):
        return f"SEM did not converge cleanly: {conv}"
    return None


def check_exists(path: Path) -> str | None:
    return None if path.is_file() else f"{path.name} missing"


class Workload:
    name = ""
    # Artifact -> position of the child that writes it; others blame the first child.
    writers: dict[str, int] = {}

    def __init__(self, seed: int, work: Path, cli: Cli, scale: float = 1.0):
        self.seed = seed
        self.work = work
        self.cli = cli
        self.scale = scale
        self.first_digests: dict[int, dict[str, str]] = {}

    def prepare(self) -> dict:
        """Build inputs before timing starts; returns corpus stats for the run record."""
        raise NotImplementedError

    def commands(self, i: int, out: Path) -> list[list]:
        raise NotImplementedError

    def checks(self, out: Path) -> dict[str, str | None]:
        """Artifact -> problem found in it, or None."""
        raise NotImplementedError

    def repeat_key(self, i: int) -> int:
        """Operations with equal keys run on equal inputs and must agree byte for byte."""
        return 0

    def verify(self, what: str, i: int, out: Path, blame) -> None:
        """Check operation ``i``'s artifacts; ``blame(artifact)`` names the operation to charge.

        The first operation on some inputs is the reference the later ones
        must match byte for byte.
        """
        for artifact, problem in self.checks(out).items():
            if problem:
                self.cli.fail(blame(artifact), f"{what}: {problem}")
        found = digests(out)
        first = self.first_digests.setdefault(self.repeat_key(i), found)
        for artifact in sorted(k for k, v in found.items() if first.get(k) != v):
            self.cli.fail(blame(artifact), f"{what}: {artifact} differs from "
                                           "an earlier run on the same inputs")

    def run_op(self, i: int) -> Op:
        out = self.work / f"op-{i}"
        out.mkdir(parents=True)
        start = time.perf_counter()
        children = [self.cli.cera(*cmd) for cmd in self.commands(i, out)]
        op = Op(children, time.perf_counter() - start)
        if all(c.returncode == 0 for c in children):
            self.verify(f"{self.name} op {i}", i, out,
                        lambda artifact: children[self.writers.get(artifact, 0)].index)
        shutil.rmtree(out)
        return op


class PaperWorkload(Workload):
    strategy = ""
    writers = {"report.txt": 1}

    def prepare(self) -> dict:
        self.corpus = gencorpus.generate(self.seed, "well-posed", self.scale)
        self.manifest = gencorpus.write_corpus(self.corpus, self.work / "corpus")
        self.expected_freq = gencorpus.expected_frequencies_csv(self.corpus)
        self.expected_cards = gencorpus.scorecards_csv(gencorpus.cards_of(self.corpus))
        return self.corpus.stats()

    def commands(self, i: int, out: Path) -> list[list]:
        return [
            ["pipeline", "--manifest", self.manifest, "--out-dir", out,
             "--strategy", self.strategy],
            ["report", "--out-dir", out],
        ]

    def checks(self, out: Path) -> dict[str, str | None]:
        return {
            "frequencies.csv": check_bytes(out / "frequencies.csv", self.expected_freq),
            "scorecards.csv": check_bytes(out / "scorecards.csv", self.expected_cards),
            "mda.json": check_analysis(out / "mda.json"),
            "sem_fit.json": check_analysis(out / "sem_fit.json"),
            "report.txt": check_exists(out / "report.txt"),
        }


class PaperLinear(PaperWorkload):
    """The default path users run; preprocessing and the linear scan dominate."""

    name = "paper-linear"
    strategy = "linear"

    def prepare(self) -> dict:
        stats = super().prepare()
        if CHECK_HOSTILE:
            self.check_hostile()
        return stats

    def check_hostile(self) -> None:
        """Hostile profile (saturated v2, v8 absent in one sector): mined and checked, not timed.

        Only the counts and the exit status are checked; how the analyses
        degrade on this corpus is not pinned here.
        """
        corpus = gencorpus.generate(self.seed, "hostile", HOSTILE_SCALE * self.scale)
        manifest = gencorpus.write_corpus(corpus, self.work / "hostile")
        out = self.work / "hostile-out"
        child = self.cli.cera("pipeline", "--manifest", manifest, "--out-dir", out)
        if child.returncode == 0:
            for problem in (
                check_bytes(out / "frequencies.csv", gencorpus.expected_frequencies_csv(corpus)),
                check_bytes(out / "scorecards.csv",
                            gencorpus.scorecards_csv(gencorpus.cards_of(corpus))),
            ):
                if problem:
                    self.cli.fail(child.index, f"hostile corpus: {problem}")
        shutil.rmtree(self.work / "hostile")
        shutil.rmtree(out, ignore_errors=True)


class PaperBinary(PaperWorkload):
    """Same corpus, keyword-file strategy: stresses memory, bypasses the linear scan."""

    name = "paper-binary"
    strategy = "binary"

    def checks(self, out: Path) -> dict[str, str | None]:
        found = super().checks(out)
        found["keyword_file.tsv"] = check_exists(out / "keyword_file.tsv")
        return found


class Reanalysis(Workload):
    """Analysis subcommands only, on bootstrap resamples of the well-posed scorecards.

    Process start-up and the SEM fit dominate; the mining layers do nothing.
    ``sem`` runs twice, with the packaged model and with the free-loadings one.
    """

    name = "reanalysis"
    writers = {"anova.csv": 0, "mda.json": 1, "case_scores.csv": 1, "sem_fit.json": 2,
               "free/sem_fit.json": 3, "report.txt": 4}

    def prepare(self) -> dict:
        corpus = gencorpus.generate(self.seed, "well-posed", self.scale)
        cards = gencorpus.cards_of(corpus)
        self.scorecards = []
        for k in range(RESAMPLES):
            path = self.work / f"scorecards-{k}.csv"
            path.write_bytes(gencorpus.scorecards_csv(gencorpus.bootstrap(cards, self.seed, k)))
            self.scorecards.append(path)
        return corpus.stats()

    def repeat_key(self, i: int) -> int:
        return i % RESAMPLES

    def commands(self, i: int, out: Path) -> list[list]:
        cards = self.scorecards[self.repeat_key(i)]
        common = ["--scorecards", cards, "--out-dir", out]
        return [
            ["anova", *common],
            ["mda", *common],
            ["sem", *common],
            ["sem", "--scorecards", cards, "--out-dir", out / "free", "--sem-model", FREE_MODEL],
            ["report", *common],
        ]

    def checks(self, out: Path) -> dict[str, str | None]:
        return {
            "anova.csv": check_exists(out / "anova.csv"),
            "mda.json": check_analysis(out / "mda.json"),
            "sem_fit.json": check_analysis(out / "sem_fit.json"),
            "free/sem_fit.json": check_analysis(out / "free" / "sem_fit.json"),
            "report.txt": check_exists(out / "report.txt"),
        }


WORKLOADS = {w.name: w for w in (PaperLinear, PaperBinary, Reanalysis)}
