"""Every failure path of the CLI, pinned row by row as tests/data/paper_seed1.sha256
pins the success paths.

Each case runs one command in-process over an output directory that holds an earlier
successful run of every stage (``pipeline`` mined binary, then ``report``, on the
error-contract corpus of tests/test_cli.py, on which every analysis fits). Before the
run, one input is damaged, one artifact path is made a directory, one writer fails
after its first line or one mining worker is killed; in one case nothing fails, and
linear mining must delete the earlier run's keyword file. The case's row in
tests/data/failure_paths.json holds the command, the damage, the exit code, the stderr
lines and the sorted names of the files left in the output directory, each with its
sha256 (``dir`` for a directory). The case's temporary directory is written ``<out>``
in the stderr lines and in the files, and a worker's pid ``<pid>``. A usage error's
lines leave out argparse's usage block, whose wrapping depends on the terminal and
the Python version.

After a deliberate change, re-record the table and list each changed row in CHANGES.md:

    PYTHONPATH=src python tests/test_failure_paths.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from unittest import mock

from cera import anova, cli, mda, miner, scoring
from cera.cli import run_subcommand

from test_cli import CONTRACT_INPUTS

TABLE = Path(__file__).parent / "data" / "failure_paths.json"
CONFIG = "--config @in/config.json"  # @ is the case's temporary directory


def _write(name: str, data: bytes):
    """Damage: ``name`` (under the case directory) holds ``data``."""
    return lambda tmp: (tmp / name).write_bytes(data)


def _edit(name: str, old: bytes, new: bytes):
    """Damage: the first ``old`` in ``name`` becomes ``new``."""
    def edit(tmp):
        path = tmp / name
        path.write_bytes(path.read_bytes().replace(old, new, 1))
    return edit


def _delete(name: str):
    return lambda tmp: (tmp / name).unlink()


def _block(name: str):
    """Damage: the output file ``name`` is replaced by an empty directory."""
    def block(tmp):
        path = tmp / "out" / name
        path.unlink(missing_ok=True)
        path.mkdir()
    return block


def _config(values):
    """Damage: the --config file holds ``values``."""
    return _write("in/config.json", json.dumps(values).encode())


def _fail_writing(module, attr: str, name: str) -> tuple:
    """A patch: ``module.attr`` writes one line to ``name`` and raises, and writes
    any other file as before."""
    original = getattr(module, attr)

    def write(*args):
        path = next(arg for arg in args if isinstance(arg, Path))
        if path.name != name:
            return original(*args)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("partial\n")
        raise OSError("disk full")
    return ((module, attr, write),)


def _killed_worker() -> tuple:
    """Patches: mine on two CPUs, and the worker kills itself as it preprocesses."""
    parent, preprocess = os.getpid(), miner.preprocess_text

    def preprocess_text(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return preprocess(*args)
    return ((miner, "_cpu_count", lambda: 2), (miner, "preprocess_text", preprocess_text))


BAD_SECTOR_CARDS = b"report_id,sector,v1_score\nr1,quaternary,1\n"
EMPTY_MODEL = b"[latents]\n[loadings]\n[residuals]\n"
MIXED_SECTOR = (b",primary,", b",quaternary,")
SIX_REPORTS = b"".join(CONTRACT_INPUTS["manifest.csv"].splitlines(keepends=True)[:7])
# Each case: (damage, command, what is done before the run, patches while it runs).
CASES = {
    # Each command against an unreadable or malformed input.
    "mine-no-manifest": ("no --manifest", "mine", None, ()),
    "mine-report-missing": ("report R05.txt deleted", f"mine {CONFIG}", _delete("in/R05.txt"), ()),
    "mine-manifest-sector": ("unknown sector", f"mine {CONFIG}",
                             _edit("in/manifest.csv", *MIXED_SECTOR), ()),
    "mine-manifest-undecodable": ("manifest ends in 0xff", f"mine {CONFIG}",
                                  _edit("in/manifest.csv", b"R35.txt\n", b"R35.txt\n\xff"), ()),
    "mine-criteria-malformed": ("criteria without a [criterion] header", f"mine {CONFIG}",
                                _write("in/criteria.txt", b"policy\n"), ()),
    "mine-stoplist-malformed": ("stop list of two words a line", f"mine {CONFIG}",
                                _write("in/stoplist.txt", b"two words\n"), ()),
    "score-frequencies-missing": ("frequencies.csv deleted", f"score {CONFIG}",
                                  _delete("out/frequencies.csv"), ()),
    "score-frequencies-malformed": ("non-integer count", f"score {CONFIG}",
                                    _write("out/frequencies.csv", b"report_id,v1\nR00,x\n"), ()),
    "score-manifest-sector": ("unknown sector", f"score {CONFIG}",
                              _edit("in/manifest.csv", *MIXED_SECTOR), ()),
    "score-empty-sample": ("--language fr --elimination disjunction",
                           f"score {CONFIG} --language fr --elimination disjunction", None, ()),
    "anova-scorecards-missing": ("scorecards.csv deleted", f"anova {CONFIG}",
                                 _delete("out/scorecards.csv"), ()),
    "mda-scorecards-malformed": ("unknown sector", f"mda {CONFIG}",
                                 _write("out/scorecards.csv", BAD_SECTOR_CARDS), ()),
    "sem-model-empty": ("SEM model without variables", f"sem {CONFIG}",
                        _write("in/model.txt", EMPTY_MODEL), ()),
    "report-scorecards-missing": ("scorecards.csv deleted", f"report {CONFIG}",
                                  _delete("out/scorecards.csv"), ()),
    "report-model-empty": ("SEM model without variables", f"report {CONFIG}",
                           _write("in/model.txt", EMPTY_MODEL), ()),
    "pipeline-manifest-sector": ("unknown sector", f"pipeline {CONFIG} --strategy binary",
                                 _edit("in/manifest.csv", *MIXED_SECTOR), ()),
    "pipeline-model-empty": ("SEM model without variables", f"pipeline {CONFIG}",
                             _write("in/model.txt", EMPTY_MODEL), ()),
    "pipeline-empty-sample": ("--language fr --elimination disjunction",
                              f"pipeline {CONFIG} --language fr --elimination disjunction",
                              None, ()),
    "pipeline-six-reports": ("manifest cut to six reports: mda cannot fit, sem fits",
                             f"pipeline {CONFIG}", _write("in/manifest.csv", SIX_REPORTS), ()),
    # Usage errors, from a flag or the --config file.
    "flag-manifest-missing": ("--manifest names no file", "mine --manifest @in/absent.csv",
                              None, ()),
    "config-no-manifest": ("config without a manifest key", f"pipeline {CONFIG}", _config({}),
                           ()),
    "config-missing": ("--config names no file", "pipeline --config @in/absent.json", None, ()),
    "config-bad-json": ("config is not JSON", f"pipeline {CONFIG}",
                        _write("in/config.json", b'{"manifest": '), ()),
    "config-not-object": ("config holds a JSON list", f"pipeline {CONFIG}", _config([1, 2]), ()),
    "config-boolean-key": ("stemming is a string", f"pipeline {CONFIG}",
                           _config({"manifest": "manifest.csv", "stemming": "yes"}), ()),
    "config-string-key": ("language is a number", f"pipeline {CONFIG}",
                          _config({"manifest": "manifest.csv", "language": 5}), ()),
    "config-choice": ("strategy outside its choices", f"pipeline {CONFIG}",
                      _config({"manifest": "manifest.csv", "strategy": "quick"}), ()),
    "config-input-missing": ("criteria names no file", f"pipeline {CONFIG}",
                             _config({"manifest": "manifest.csv", "criteria": "absent.txt"}), ()),
    "config-two-errors": ("manifest names no file, and stemming is a string", f"pipeline {CONFIG}",
                          _config({"manifest": "missing.csv", "stemming": "yes"}), ()),
    # Nothing fails, but the stage must delete the keyword file the earlier run mined.
    "mine-linear-after-binary": ("none: linear mining over the binary run", f"mine {CONFIG}",
                                 None, ()),
    # A killed mining worker.
    "mine-worker-killed": ("a worker killed by SIGKILL", f"mine {CONFIG}", None, _killed_worker()),
    "pipeline-worker-killed": ("a worker killed by SIGKILL", f"pipeline {CONFIG} --strategy binary",
                               None, _killed_worker()),
}
# Each file a stage owns made a directory, in pipeline and in the stage's own command,
# and each writer failing after one line in pipeline.
COMMAND_OF = {"mine": "mine --strategy binary", "score": "score", "anova": "anova", "mda": "mda",
              "sem": "sem"}
WRITERS = {"frequencies.csv": (miner, "write_frequency_csv"),
           "keyword_file.tsv": (miner, "write_keyword_file"),
           "scorecards.csv": (scoring, "write_scorecards_csv"),
           "anova.csv": (anova, "write_anova_csv"), "mda.json": (cli, "_write_json"),
           "case_scores.csv": (mda, "write_case_scores_csv"), "sem_fit.json": (cli, "_write_json")}
for stage, names in cli.OUTPUTS.items():
    for name in names:
        CASES[f"pipeline-{name}-dir"] = (f"{name} is a directory",
                                         f"pipeline {CONFIG} --strategy binary", _block(name), ())
        command = COMMAND_OF[stage]
        CASES[f"{command.split()[0]}-{name}-dir"] = (f"{name} is a directory",
                                                     f"{command} {CONFIG}", _block(name), ())
        CASES[f"pipeline-{name}-writer"] = (f"{name} writer fails after one line",
                                            f"pipeline {CONFIG} --strategy binary", None,
                                            _fail_writing(*WRITERS[name], name))
CASES["report-report.txt-dir"] = ("report.txt is a directory", f"report {CONFIG}",
                                  _block("report.txt"), ())


def _left(tmp: Path) -> dict:
    """The sha256 of each file in the output directory, ``tmp`` written ``<out>`` in it."""
    def digest(path):
        return hashlib.sha256(path.read_bytes().replace(str(tmp).encode(), b"<out>")).hexdigest()
    out = tmp / "out"
    return {p.name: "dir" if p.is_dir() else digest(p) for p in sorted(out.iterdir())}


def _run(tmp: Path, command: str, patches=()) -> tuple[int, list[str]]:
    argv = [arg.replace("@", f"{tmp}/") for arg in command.split()]
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(miner, "_cpu_count", lambda: 1))
        for target, attr, value in patches:
            stack.enter_context(mock.patch.object(target, attr, value))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = run_subcommand([*argv, "--out-dir", str(tmp / "out")])
        except SystemExit as exc:  # usage errors exit through argparse
            code = exc.code
    lines = err.getvalue().replace(str(tmp), "<out>").splitlines()
    lines = [re.sub(r"worker \d+", "worker <pid>", line) for line in lines
             if not line.startswith(("usage: ", " "))]
    return code, lines


def observe(root: Path) -> dict:
    """Run every case under ``root`` and return its row, in CASES order."""
    base = root / "base"
    (base / "in").mkdir(parents=True)
    for name, data in CONTRACT_INPUTS.items():
        (base / "in" / name).write_bytes(data)
    for command in (f"pipeline {CONFIG} --strategy binary", f"report {CONFIG}"):
        assert _run(base, command) == (0, []), command
    rows = {}
    for case, (damage, command, before, patches) in CASES.items():
        tmp = root / case
        shutil.copytree(base, tmp)
        if before is not None:
            before(tmp)
        code, lines = _run(tmp, command, patches)
        rows[case] = {"command": command.replace("@", "<out>/"), "damage": damage, "exit": code,
                      "stderr": lines, "files": _left(tmp)}
    return rows


def test_failure_paths_match_the_pinned_table(tmp_path):
    rows, pinned = observe(tmp_path), json.loads(TABLE.read_text(encoding="utf-8"))
    differing = [case for case in {**pinned, **rows} if rows.get(case) != pinned.get(case)]
    report = "\n".join(f"{case}:\n  pinned   {pinned.get(case)}\n  observed {rows.get(case)}"
                       for case in differing)
    assert not differing, f"{len(differing)} rows differ from {TABLE.name}:\n{report}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = observe(Path(scratch))
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} rows in {TABLE}", file=sys.stderr)
