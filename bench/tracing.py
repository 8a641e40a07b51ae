"""Traced run: the real CLI, in-process, with spans around each layer's functions.

The program itself is not instrumented. For the duration of the run the
module attributes the CLI looks up at call time (``miner.load_corpus``,
``sem.fit_model``, ``cli.emit_report``, ...) are replaced by wrappers that
open a span around the original call; counts come from the wrapped calls'
arguments and return values. A span holds a name, start, end, parent and
operation number; spans stay in memory and are written out when the run
ends. Each CLI command of a workload operation runs through
``cera.cli.run_subcommand`` inside a root span named ``cli``. A layer
metric is the median, over the operations of the run, of the summed self
time of that layer's spans in one operation; the root span's self time is
work no layer span covers (argument parsing, config and model loading,
artifact writes other than the timed ones).
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import FREE_MODEL, MIN_OPS, SRC, Cli, Workload

IMPORT_REPEATS = 3
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import cera.cli; "
    "print(repr(time.perf_counter() - t))"
)

# Per-layer metric -> the span whose self time it reports.
SPAN_METRICS = {
    "miner.load_corpus_s": "miner.load_corpus",
    "miner.preprocess_s": "miner.preprocess",
    "miner.scan_s": "miner.mine_linear",
    "miner.kwfile_build_s": "miner.kwfile_build",
    "miner.kwfile_write_s": "miner.kwfile_write",
    "miner.mine_binary_s": "miner.mine_binary",
    "miner.freq_write_s": "miner.freq_write",
    "scoring.build_s": "scoring.build",
    "scoring.csv_write_s": "scoring.csv_write",
    "scoring.csv_read_s": "scoring.csv_read",
    "anova.table_s": "anova.table",
    "mda.run_s": "mda.run",
    "report.emit_s": "report.emit",
    "sem.cov_s": "sem.cov",
    "sem.fit_s.packaged": "sem.fit.packaged",
    "sem.fit_s.free_loadings": "sem.fit.free_loadings",
    "cli.unaccounted_s": "cli",
}
# Per-layer counts, summed over one operation.
COUNT_METRICS = (
    "miner.raw_tokens",
    "miner.kept_tokens",
    "miner.kwfile_records",
    "miner.kwfile_bytes",
    "scoring.cards_kept",
    "scoring.cards_dropped",
    "sem.iterations.packaged",
    "sem.iterations.free_loadings",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.op = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value: int) -> None:
        self.counts[name][self.op] += value

    def per_op(self, name: str, self_time: bool = True) -> list[float]:
        """Summed (self) time of the spans called ``name`` in each operation."""
        covered: dict[int, float] = defaultdict(float)
        if self_time:
            for s in self.spans:
                if s.parent is not None:
                    covered[s.parent] += s.end - s.start
        totals: dict[int, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.name == name:
                totals[s.op] += s.end - s.start - covered[i]
        return list(totals.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": [asdict(s) for s in self.spans],
                   "counts": {k: dict(v) for k, v in self.counts.items()}}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the functions the CLI calls with spans; restore them on exit."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cera import anova, cli, mda, miner, scoring, sem

    free_model = sem.load_model(FREE_MODEL)
    originals = []

    def wrap(module, attr: str, span, count=None) -> None:
        original = getattr(module, attr)
        originals.append((module, attr, original))

        def traced(*args, **kwargs):
            name = span(*args) if callable(span) else span
            if name is None:
                result = original(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            if count:
                count(result, *args)
            return result

        setattr(module, attr, traced)

    def sem_label(model, *_):
        return "free_loadings" if model == free_model else "packaged"

    try:
        wrap(miner, "load_corpus", "miner.load_corpus")
        wrap(miner, "tokenize", None,
             lambda tokens, *_: tracer.count("miner.raw_tokens", len(tokens)))
        wrap(miner, "preprocess_text", "miner.preprocess",
             lambda tokens, *_: tracer.count("miner.kept_tokens", len(tokens)))
        wrap(miner, "mine_linear", "miner.mine_linear")
        wrap(miner, "build_sorted_keyword_file", "miner.kwfile_build",
             lambda kwfile, *_: tracer.count("miner.kwfile_records", len(kwfile.records)))
        wrap(miner, "write_keyword_file", "miner.kwfile_write",
             lambda _, kwfile, path: tracer.count("miner.kwfile_bytes",
                                                  Path(path).stat().st_size))
        wrap(miner, "mine_binary", "miner.mine_binary")
        wrap(miner, "write_frequency_csv", "miner.freq_write")
        wrap(scoring, "build_scorecards", "scoring.build")
        wrap(scoring, "filter_sample", "scoring.build", lambda kept, cards, *_: (
            tracer.count("scoring.cards_kept", len(kept)),
            tracer.count("scoring.cards_dropped", len(cards) - len(kept))))
        wrap(scoring, "write_scorecards_csv", "scoring.csv_write")
        wrap(scoring, "read_scorecards_csv", "scoring.csv_read")
        wrap(anova, "anova_table", "anova.table")
        wrap(mda, "run_mda", "mda.run")
        wrap(sem, "covariance_from_cards", "sem.cov")
        wrap(sem, "fit_model", lambda model, *_: f"sem.fit.{sem_label(model)}",
             lambda fit, model, *_: tracer.count(f"sem.iterations.{sem_label(model)}",
                                                 fit.iterations))
        wrap(cli, "emit_report", "report.emit")
        yield cli.run_subcommand
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def traced_op(tracer: Tracer, run_subcommand, wl: Workload, i: int, out: Path) -> list[str]:
    """Run operation ``i``'s CLI commands in-process; returns the problems met."""
    tracer.op = i
    problems = []
    for cmd in wl.commands(i, out):
        argv = [str(a) for a in cmd]
        with tracer.span("cli"):
            try:
                code = run_subcommand(argv)
            except SystemExit as exc:  # usage errors exit through argparse
                code = exc.code
        if code != 0:
            problems.append(f"{' '.join(argv[:1])}: exit {code}")
    return problems


def run_traced(wl: Workload, cli: Cli, seconds: float, spans_path: Path):
    """Import time and one untraced CLI operation, then traced operations for ``seconds``."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        child = cli.spawn([sys.executable, "-c", IMPORT_SNIPPET], capture=True)
        if child.returncode == 0:
            imports.append(float(child.stdout.strip()))
    untraced = wl.run_op(0)

    tracer = Tracer()
    i = 0
    with instrumented(tracer) as run_subcommand:
        start = time.perf_counter()
        while i < MIN_OPS or time.perf_counter() - start < seconds:
            out = wl.work / f"traced-{i}"
            out.mkdir(parents=True)
            index = cli.begin()
            try:
                problems = traced_op(tracer, run_subcommand, wl, i, out)
            except Exception:  # a failing layer is a failed operation, not a crashed run
                problems = [traceback.format_exc(limit=3)]
            for problem in problems:
                cli.fail(index, f"{wl.name} traced op {i}: {problem}")
            if problems:
                break
            # Traced artifacts must equal the CLI children's on the same inputs.
            wl.verify(f"{wl.name} traced op {i}", i, out, lambda artifact: index)
            shutil.rmtree(out)
            i += 1
    tracer.write(spans_path)

    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = (_median(imports), "s")
    traced_wall = _median(tracer.per_op("cli", self_time=False))
    metrics["trace.overhead_s"] = (untraced.wall_s - traced_wall, "s")
    detail = {"traced_operations": i, "untraced_wall_s": untraced.wall_s, "spans": len(tracer.spans)}
    return metrics, detail


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, medians over operations; a layer a workload bypasses reads 0."""
    metrics = {name: (_median(tracer.per_op(span)), "s") for name, span in SPAN_METRICS.items()}
    for name in COUNT_METRICS:
        metrics[name] = (_median(tracer.counts[name].values()), "count")
    return metrics
