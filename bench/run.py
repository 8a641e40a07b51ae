#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload paper-linear --seed 1 --seconds 20 --trace 0

``--trace 0`` times CLI operations (child processes, one at a time) and
prints the end-to-end metrics. ``--trace 1`` runs the traced in-process
pass and prints the per-layer metrics. Inputs are generated from
``--seed`` before timing starts. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import MIN_OPS, ROOT, SRC, WORKLOADS, Cli, Workload

WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
# Corpus size relative to the paper's 539 reports; the smoke test shrinks it.
SCALE = 1.0


def measure_setup(cli: Cli) -> float:
    """Median wall time of a fresh ``cera --help``: what every command pays first."""
    walls = [
        cli.spawn([sys.executable, "-m", "cera.cli", "--help"]).wall_s
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(walls)


def run_timed(wl: Workload, cli: Cli, seconds: float):
    setup_s = measure_setup(cli)
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        ops.append(wl.run_op(len(ops)))
    walls = [op.wall_s for op in ops]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(op.cpu_s for op in ops), "s"),
        "peak_rss_mb": (statistics.median(op.rss_mb for op in ops), "MB"),
        "setup_s": (setup_s, "s"),
        "ok_share": ((cli.attempted - cli.failed) / cli.attempted, "share"),
    }
    detail = {"operations": len(ops), "op_wall_s": [round(w, 4) for w in walls],
              "op_cpu_s": [round(op.cpu_s, 4) for op in ops]}
    return metrics, detail


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _src_lines() -> int:
    """Net ``src/`` line count, recorded for information; not a gated metric."""
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_record(args, corpus_stats: dict, detail: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "corpus": corpus_stats,
        "src_lines": _src_lines(),
        **detail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cera" / "cli.py").is_file():
        print(f"bench: cera sources not found under {SRC}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run whose pid was reused
    work.mkdir(parents=True)
    cli = Cli(work)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, cli, SCALE)
        corpus_stats = wl.prepare()
        if args.trace:
            import tracing

            spans = WORK_ROOT / "spans" / f"{args.workload}-seed{args.seed}.json"
            metrics, detail = tracing.run_traced(wl, cli, args.seconds, spans)
        else:
            metrics, detail = run_timed(wl, cli, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in cli.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print("record: " + json.dumps(run_record(args, corpus_stats, detail), sort_keys=True))
    print(json.dumps({
        "correct": cli.failed == 0,
        "attempted": cli.attempted,
        "failed": cli.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
