import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cera
from cera import cli, miner, scoring, sem

from cera.cli import FLAGS, STRATEGIES, _build_config, build_parser, run_subcommand
from cera.errors import IdentificationError, ValidationError
from cera.miner import Sector
from cera.scoring import ScoreCard, rate_frequency, read_scorecards_csv, write_scorecards_csv

from conftest import FIXTURE_DIR, FIXTURE_FREQUENCIES, FIXTURE_SCORES, MANIFEST

OUTPUT_FILES = ("frequencies.csv", "scorecards.csv", "anova.csv", "mda.json", "sem_fit.json")


def run_pipeline(out_dir, *extra):
    return run_subcommand(
        ["pipeline", "--manifest", str(MANIFEST), "--out-dir", str(out_dir), *extra]
    )


class TestPipeline:
    def test_fixture_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_pipeline(out) == 0
        for name in OUTPUT_FILES:
            assert (out / name).is_file(), name
        err = capsys.readouterr().err
        # 6 reports cannot support the multivariate stages; those degrade.
        assert "mda:" in err
        assert "sem:" in err
        assert "Sector." not in err

    def test_scorecards_match_hand_ratings(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(out)
        cards = {c.report_id: c for c in read_scorecards_csv(out / "scorecards.csv")}
        assert set(cards) == set(FIXTURE_SCORES)
        for rid, expected in FIXTURE_SCORES.items():
            got = [cards[rid].scores[f"v{i + 1}"] for i in range(10)]
            assert got == expected, rid

    def test_analysis_stage_error_artifacts(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(out)
        for name in ("mda.json", "sem_fit.json"):
            payload = json.loads((out / name).read_text(encoding="utf-8"))
            assert payload["status"] == "error"
            assert payload["stage"] == name.split(".")[0].replace("_fit", "")
            assert payload["message"]
        anova_lines = (out / "anova.csv").read_text(encoding="utf-8").splitlines()
        assert len(anova_lines) == 11  # header + one row per criterion

    def test_anova_failure_leaves_header_only_table(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        lines = MANIFEST.read_text(encoding="utf-8").splitlines()
        manifest.write_text("\n".join(lines[:5]) + "\n", encoding="utf-8")  # no tertiary
        out = tmp_path / "out"
        assert run_subcommand(
            ["pipeline", "--manifest", str(manifest), "--root", str(FIXTURE_DIR),
             "--out-dir", str(out)]
        ) == 0
        anova_lines = (out / "anova.csv").read_text(encoding="utf-8").splitlines()
        assert len(anova_lines) == 1 and anova_lines[0].startswith("variable,")
        err = capsys.readouterr().err
        assert err.startswith("anova: sector(s) missing from sample: tertiary")

    def test_failed_mda_removes_stale_case_scores(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "case_scores.csv").write_text("report_id,sector\n", encoding="utf-8")
        assert run_pipeline(out) == 0
        assert json.loads((out / "mda.json").read_text(encoding="utf-8"))["status"] == "error"
        assert not (out / "case_scores.csv").exists()

    @pytest.mark.parametrize("argv, left", [
        (["--language", "fr", "--elimination", "disjunction"], {"frequencies.csv"}),
        (["--criteria", "@"], set()),
    ], ids=["score-fails", "mine-fails"])
    def test_failed_run_leaves_no_earlier_artifact(self, tmp_path, argv, left):
        out = tmp_path / "out"
        assert run_pipeline(out, "--strategy", "binary") == 0
        criteria = tmp_path / "criteria.txt"
        criteria.write_text("policy\n", encoding="utf-8")  # no [criterion] header
        argv = [str(criteria) if a == "@" else a for a in argv]
        assert run_pipeline(out, *argv) == 1
        assert {p.name for p in out.iterdir()} == left

    def test_deterministic_outputs(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run_pipeline(first)
        run_pipeline(second)
        for name in OUTPUT_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize("argv, line", [
        (["--manifest", str(MANIFEST), "--language", "fr", "--elimination", "disjunction"],
         "score: no scorecards to write\n"),
        ([], "mine: a corpus manifest is required (--manifest)\n"),
        (["--manifest", str(MANIFEST), "--criteria", "@"],
         "mine: criteria config @: criterion v1 max_score 5 is below the scale's top score 10\n"),
    ], ids=["empty-sample", "no-manifest", "max-score"])
    def test_diagnostic_names_the_stage(self, tmp_path, capsys, argv, line):
        criteria = tmp_path / "criteria.txt"
        criteria.write_text("[v1]\nlabel: policy\nmax_score: 5\npolicy\n", encoding="utf-8")
        argv = [str(criteria) if a == "@" else a for a in argv]
        assert run_subcommand(["pipeline", "--out-dir", str(tmp_path / "out"), *argv]) == 1
        assert capsys.readouterr().err == line.replace("@", str(criteria))

    def test_write_error_names_the_stage(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "scorecards.csv").mkdir(parents=True)
        assert run_pipeline(out) == 1
        err = capsys.readouterr().err
        assert err.startswith("score: [Errno") and "scorecards.csv" in err

    def test_lf_only(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(out)
        for name in OUTPUT_FILES:
            raw = (out / name).read_bytes()
            assert b"\r" not in raw and raw.endswith(b"\n"), name


class TestMine:
    def test_strategies_agree_byte_for_byte(self, tmp_path):
        linear, binary = tmp_path / "lin", tmp_path / "bin"
        assert run_subcommand(
            ["mine", "--manifest", str(MANIFEST), "--out-dir", str(linear)]
        ) == 0
        assert run_subcommand(
            ["mine", "--manifest", str(MANIFEST), "--out-dir", str(binary),
             "--strategy", "binary"]
        ) == 0
        assert (linear / "frequencies.csv").read_bytes() == (
            binary / "frequencies.csv"
        ).read_bytes()
        # Only the binary strategy materializes its sorted keyword file.
        assert not (linear / "keyword_file.tsv").exists()
        assert (binary / "keyword_file.tsv").is_file()

    @pytest.mark.parametrize("command", ["mine", "pipeline"])
    def test_linear_run_removes_binary_keyword_file(self, tmp_path, command):
        out = tmp_path / "out"
        argv = [command, "--manifest", str(MANIFEST), "--out-dir", str(out)]
        assert run_subcommand([*argv, "--strategy", "binary"]) == 0
        assert (out / "keyword_file.tsv").is_file()
        assert run_subcommand(argv) == 0
        assert not (out / "keyword_file.tsv").exists()
        # A directory of that name is no keyword file: linear mining leaves it be.
        (out / "keyword_file.tsv").mkdir()
        assert run_subcommand(argv) == 0
        assert (out / "keyword_file.tsv").is_dir()

    @pytest.mark.parametrize("max_score", [5, 0])
    def test_max_score_below_top_band_rejected(self, tmp_path, capsys, max_score):
        criteria, out = tmp_path / "criteria.txt", tmp_path / "out"
        criteria.write_text(f"[v1]\nlabel: policy\nmax_score: {max_score}\npolicy\n",
                            encoding="utf-8")
        assert run_subcommand(["mine", "--manifest", str(MANIFEST), "--criteria", str(criteria),
                               "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"mine: criteria config {criteria}: criterion v1 max_score {max_score} "
            "is below the scale's top score 10\n"
        )
        assert not (out / "frequencies.csv").exists()

    def test_missing_manifest_flag(self, tmp_path, capsys):
        code = run_subcommand(["mine", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("mine:")

    def test_manifest_referencing_absent_file(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "report_id,sector,language,path\nR1,primary,en,ghost.txt\n",
            encoding="utf-8",
        )
        code = run_subcommand(
            ["mine", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("mine:")
        assert "ghost.txt" in err


    def test_manifest_without_language_column(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("report_id,sector,path\nP1,primary,P1.txt\n", encoding="utf-8")
        code = run_subcommand(
            ["mine", "--manifest", str(manifest), "--root", str(FIXTURE_DIR),
             "--out-dir", str(tmp_path / "out")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "mine: manifest needs columns report_id,sector,language,path\n"
        )

    def test_killed_mining_worker_is_a_mine_diagnostic(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(miner, "_cpu_count", lambda: 2)
        parent, preprocess = os.getpid(), miner.preprocess_text

        def killed_in_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return preprocess(*args)

        monkeypatch.setattr(miner, "preprocess_text", killed_in_worker)
        for strategy in STRATEGIES:
            out = tmp_path / strategy
            assert run_subcommand(["mine", "--manifest", str(MANIFEST), "--out-dir", str(out),
                                   "--strategy", strategy]) == 1
            err = capsys.readouterr().err
            assert re.fullmatch(
                r"mine: mining worker \d+ killed by signal 9 before sending its rows\n", err
            ), err
            assert not (out / "frequencies.csv").exists()
            assert not (out / "keyword_file.tsv").exists()
            with pytest.raises(ChildProcessError):  # the worker was reaped
                os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_unwritable_keyword_file_is_a_mine_diagnostic(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        monkeypatch.setattr(miner, "_cpu_count", lambda: cpus)
        out = tmp_path / "out"
        (out / "keyword_file.tsv").mkdir(parents=True)
        assert run_pipeline(out, "--strategy", "binary") == 1
        assert capsys.readouterr().err == (
            f"mine: [Errno 21] Is a directory: '{out / 'keyword_file.tsv'}'\n"
        )
        assert not (out / "frequencies.csv").exists()
        with pytest.raises(ChildProcessError):  # the writer was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_report_id_with_tab_or_line_break_fails_binary_only(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        monkeypatch.setattr(miner, "_cpu_count", lambda: cpus)
        manifest = tmp_path / "manifest.csv"
        text = MANIFEST.read_text(encoding="utf-8")
        manifest.write_text(text.replace("P1,", '"a\tb",').replace("P2,", '"c\nd",'),
                            encoding="utf-8")
        argv = ["mine", "--manifest", str(manifest), "--root", str(FIXTURE_DIR)]
        out = tmp_path / "out"
        assert run_subcommand([*argv, "--out-dir", str(out), "--strategy", "binary"]) == 1
        assert capsys.readouterr().err == (
            "mine: keyword file cannot hold report_id 'a\\tb': tab or line break\n"
        )
        assert not (out / "keyword_file.tsv").exists()
        assert not (out / "frequencies.csv").exists()
        with pytest.raises(ChildProcessError):  # the writer was reaped
            os.waitpid(-1, os.WNOHANG)
        assert run_subcommand([*argv, "--out-dir", str(out), "--strategy", "linear"]) == 0
        assert (out / "frequencies.csv").is_file()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_scan_error_wins_over_write_error(self, tmp_path, capsys, monkeypatch, cpus):
        monkeypatch.setattr(miner, "_cpu_count", lambda: cpus)

        def mine_binary(*args):
            raise ValidationError("scan failed")

        monkeypatch.setattr(miner, "mine_binary", mine_binary)
        out = tmp_path / "out"
        (out / "keyword_file.tsv").mkdir(parents=True)
        assert run_pipeline(out, "--strategy", "binary") == 1
        assert capsys.readouterr().err == "mine: scan failed\n"
        with pytest.raises(ChildProcessError):  # the writer was killed and reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_binary_scan_deletes_an_earlier_keyword_file(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        """``mine`` alone, unlike ``pipeline``, deletes no earlier artifact before it mines."""
        monkeypatch.setattr(miner, "_cpu_count", lambda: cpus)
        out = tmp_path / "out"
        argv = ["mine", "--manifest", str(MANIFEST), "--out-dir", str(out), "--strategy", "binary"]
        assert run_subcommand(argv) == 0
        assert (out / "keyword_file.tsv").is_file()

        def mine_binary(*args):
            raise ValidationError("scan failed")

        monkeypatch.setattr(miner, "mine_binary", mine_binary)
        assert run_subcommand(argv) == 1
        assert capsys.readouterr().err == "mine: scan failed\n"
        assert not (out / "keyword_file.tsv").exists()
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus, how", [(1, "raise"), (2, "raise"), (2, "scan")])
    def test_failed_binary_mine_leaves_no_keyword_file(
        self, tmp_path, capsys, monkeypatch, cpus, how
    ):
        """A writer that fails after its first line, or a scan that fails in a worker
        once the command's own block is mined, leaves no keyword_file.tsv behind."""
        monkeypatch.setattr(miner, "_cpu_count", lambda: cpus)
        parent, scan, out = os.getpid(), miner.mine_binary, tmp_path / "out"

        def write_keyword_file(blocks, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("partial\tP1\n")
            raise OSError("disk full")

        def mine_binary(*args):
            if os.getpid() != parent:
                raise ValidationError("scan failed")
            return scan(*args)

        if how == "scan":
            monkeypatch.setattr(miner, "mine_binary", mine_binary)
        else:
            monkeypatch.setattr(miner, "write_keyword_file", write_keyword_file)
        assert run_pipeline(out, "--strategy", "binary") == 1
        line = {"raise": "disk full", "scan": "scan failed"}[how]
        assert capsys.readouterr().err == f"mine: {line}\n"
        assert not (out / "keyword_file.tsv").exists()
        assert not (out / "frequencies.csv").exists()
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_interrupted_block_kills_the_other_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(miner, "_cpu_count", lambda: 2)
        parent = os.getpid()

        def mine_binary(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(miner, "mine_binary", mine_binary)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(tmp_path / "out", "--strategy", "binary")
        assert time.perf_counter() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("flags", [[], ["--stemming"]])
    def test_blocks_join_in_report_id_order(self, tmp_path, monkeypatch, flags):
        """Mined in blocks of the corpus sorted by report id, one block per CPU, a
        shuffled manifest gives the fixture's keyword file, and its frequency rows
        in manifest order, on 1, 2 and 3 CPUs."""
        argv = ["mine", "--root", str(FIXTURE_DIR), "--strategy", "binary", *flags]
        assert run_subcommand([*argv, "--manifest", str(MANIFEST),
                               "--out-dir", str(tmp_path / "fixture")]) == 0
        keyword_file = (tmp_path / "fixture" / "keyword_file.tsv").read_bytes()
        rows = (tmp_path / "fixture" / "frequencies.csv").read_bytes().splitlines(keepends=True)
        lines = MANIFEST.read_bytes().splitlines(keepends=True)
        order = [0, 4, 6, 1, 5, 2, 3]  # the header, then S2, T2, P1, T1, P2, S1
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"".join(lines[i] for i in order))
        for cpus in (1, 2, 3):
            monkeypatch.setattr(miner, "_cpu_count", lambda: cpus)
            out = tmp_path / f"cpus-{cpus}"
            assert run_subcommand([*argv, "--manifest", str(manifest), "--out-dir", str(out)]) == 0
            assert (out / "keyword_file.tsv").read_bytes() == keyword_file
            assert (out / "frequencies.csv").read_bytes() == b"".join(rows[i] for i in order)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("flags, the_lines", [([], 0), (["--no-stoplist"], 47)])
    def test_no_stoplist_keeps_stop_words(self, tmp_path, flags, the_lines):
        out = tmp_path / "out"
        assert run_subcommand(
            ["mine", "--manifest", str(MANIFEST), "--out-dir", str(out), "--strategy", "binary",
             *flags]
        ) == 0
        lines = (out / "keyword_file.tsv").read_text(encoding="utf-8").splitlines()
        assert sum(line.startswith("the\t") for line in lines) == the_lines


class TestScore:
    def test_explicit_frequencies_path(self, tmp_path):
        out = tmp_path / "out"
        run_subcommand(["mine", "--manifest", str(MANIFEST), "--out-dir", str(out)])
        moved = tmp_path / "freqs.csv"
        moved.write_bytes((out / "frequencies.csv").read_bytes())
        code = run_subcommand(
            ["score", "--manifest", str(MANIFEST), "--out-dir", str(out),
             "--frequencies", str(moved)]
        )
        assert code == 0
        assert (out / "scorecards.csv").is_file()

    def test_frequencies_missing_a_criterion(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_subcommand(["mine", "--manifest", str(MANIFEST), "--out-dir", str(out)])
        cut = tmp_path / "freqs.csv"
        lines = (out / "frequencies.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].endswith(",v10")
        cut.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines),
                       encoding="utf-8")
        code = run_subcommand(
            ["score", "--manifest", str(MANIFEST), "--out-dir", str(out),
             "--frequencies", str(cut)]
        )
        assert code == 1
        assert capsys.readouterr().err == "score: frequency table lacks criterion column(s): v10\n"
        assert not (out / "scorecards.csv").exists()

    def test_negative_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_subcommand(["mine", "--manifest", str(MANIFEST), "--out-dir", str(out)])
        negative = tmp_path / "freqs.csv"
        lines = (out / "frequencies.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("P1,2,")
        lines[1] = "P1,-1," + lines[1][len("P1,2,"):]
        negative.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_subcommand(
            ["score", "--manifest", str(MANIFEST), "--out-dir", str(out),
             "--frequencies", str(negative)]
        )
        assert code == 1
        assert capsys.readouterr().err == "score: negative count for (P1, v1)\n"
        assert not (out / "scorecards.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--stoplist", "X"], ["--no-stoplist"], ["--stemming"], ["--strategy", "binary"],
    ], ids=["stoplist", "no-stoplist", "stemming", "strategy"])
    def test_mining_flags_are_usage_errors(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            run_subcommand(
                ["score", "--manifest", str(MANIFEST), "--out-dir", str(tmp_path / "out"), *flags]
            )
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_manifest_flag_names_score(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_subcommand(["mine", "--manifest", str(MANIFEST), "--out-dir", str(out)])
        code = run_subcommand(["score", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "score: a corpus manifest is required (--manifest)\n"

    def test_score_before_mine(self, tmp_path, capsys):
        code = run_subcommand(
            ["score", "--manifest", str(MANIFEST), "--out-dir", str(tmp_path / "out")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("score:")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("stage, module, writer", [
    ("mine", miner, "write_frequency_csv"), ("score", scoring, "write_scorecards_csv"),
], ids=["frequencies", "scorecards"])
def test_failed_write_leaves_no_partial_artifact(
    tmp_path, capsys, monkeypatch, strategy, stage, module, writer
):
    """A writer that fails after its first line leaves no artifact of its stage, in
    ``pipeline`` or in the stage's own command run over an earlier ``mine``'s output;
    a failed ``score`` keeps what ``mine`` wrote."""
    def write(rows, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("partial\n")
        raise OSError("disk full")

    corpus = ["--manifest", str(MANIFEST)]
    mine = ["mine", *corpus, "--strategy", strategy]
    alone = mine if stage == "mine" else ["score", *corpus]
    mined = ["frequencies.csv", *(["keyword_file.tsv"] if strategy == "binary" else [])]
    for command, out in ((["pipeline", *corpus, "--strategy", strategy], tmp_path / "pipeline"),
                         (alone, tmp_path / "alone")):
        assert run_subcommand([*mine, "--out-dir", str(out)]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(module, writer, write)
            assert run_subcommand([*command, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"{stage}: disk full\n"
        assert sorted(p.name for p in out.iterdir()) == ([] if stage == "mine" else mined)


@pytest.mark.parametrize("stage", ["mine", "score"])
def test_unreadable_manifest_deletes_the_stage_files(tmp_path, capsys, stage):
    """A stage that fails while it reads its inputs, alone, deletes an earlier run's files
    of that stage and keeps the other stage's."""
    out, manifest = tmp_path / "out", tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST.read_text(encoding="utf-8").replace(",tertiary,", ",quaternary,"),
                        encoding="utf-8")
    corpus = ["--manifest", str(MANIFEST), "--out-dir", str(out)]
    assert run_subcommand(["mine", *corpus, "--strategy", "binary"]) == 0
    assert run_subcommand(["score", *corpus]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["frequencies.csv", "keyword_file.tsv", "scorecards.csv"]
    argv = [stage, "--manifest", str(manifest), "--root", str(FIXTURE_DIR), "--out-dir", str(out)]
    assert run_subcommand(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{stage}: manifest row at line 6, report 'T1': ") and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == [
        name for name in names if name not in cli.OUTPUTS[stage]]


class TestAnalysisCommands:
    @pytest.fixture()
    def scored(self, tmp_path):
        out = tmp_path / "out"
        run_subcommand(["mine", "--manifest", str(MANIFEST), "--out-dir", str(out)])
        run_subcommand(["score", "--manifest", str(MANIFEST), "--out-dir", str(out)])
        return out

    def test_anova_succeeds_on_fixture(self, scored):
        assert run_subcommand(["anova", "--out-dir", str(scored)]) == 0
        lines = (scored / "anova.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 11

    def test_mda_rejects_tiny_sample(self, scored, capsys):
        assert run_subcommand(["mda", "--out-dir", str(scored)]) == 1
        assert capsys.readouterr().err.startswith("mda:")
        assert not (scored / "mda.json").exists()

    def test_sem_rejects_tiny_sample(self, scored, capsys):
        assert run_subcommand(["sem", "--out-dir", str(scored)]) == 1
        assert capsys.readouterr().err.startswith("sem:")

    def test_sem_rejects_empty_model(self, tmp_path, capsys):
        cards, model, out = tmp_path / "cards.csv", tmp_path / "empty.txt", tmp_path / "out"
        write_scorecards_csv(seeded_cards(11, 120), cards)
        model.write_text("[latents]\n[loadings]\n[residuals]\n", encoding="utf-8")
        argv = ["sem", "--scorecards", str(cards), "--sem-model", str(model), "--out-dir", str(out)]
        assert run_subcommand(argv) == 1
        assert capsys.readouterr().err == f"sem: SEM model {model}: model has no observed variable\n"
        assert not (out / "sem_fit.json").exists()

    def test_missing_scorecards(self, tmp_path, capsys):
        code = run_subcommand(["anova", "--out-dir", str(tmp_path / "nothing")])
        assert code == 1
        assert capsys.readouterr().err.startswith("anova:")

    def test_header_only_scorecards(self, scored, capsys):
        header_only = scored / "header.csv"
        lines = (scored / "scorecards.csv").read_text(encoding="utf-8").splitlines()
        header_only.write_text(lines[0] + "\n", encoding="utf-8")
        code = run_subcommand(
            ["mda", "--scorecards", str(header_only), "--out-dir", str(scored / "mda")]
        )
        assert code == 1
        assert capsys.readouterr().err == "mda: no scorecards\n"
        assert list((scored / "mda").iterdir()) == []

    def test_single_commands_share_the_pipeline_path(self, tmp_path, capsys):
        piped, single = tmp_path / "pipe", tmp_path / "single"
        assert run_pipeline(piped) == 0
        pipeline_err = capsys.readouterr().err.splitlines()
        cards = str(piped / "scorecards.csv")
        assert run_subcommand(["anova", "--scorecards", cards, "--out-dir", str(single)]) == 0
        assert (single / "anova.csv").read_bytes() == (piped / "anova.csv").read_bytes()
        for name in ("mda", "sem"):
            code = run_subcommand([name, "--scorecards", cards, "--out-dir", str(single)])
            assert code == 1
            expected = [line for line in pipeline_err if line.startswith(f"{name}: ")]
            assert len(expected) == 1
            assert capsys.readouterr().err.splitlines() == expected
        assert [p.name for p in single.iterdir()] == ["anova.csv"]

    @pytest.mark.parametrize("analysis", ["mda", "sem"])
    def test_failed_command_deletes_its_earlier_files(self, tmp_path, capsys, analysis):
        """An analysis that cannot fit, run alone over a successful run's files, leaves
        none of its own files; the other analyses' stay as they were."""
        cards, out, fixture = tmp_path / "cards.csv", tmp_path / "out", tmp_path / "fixture"
        write_scorecards_csv(seeded_cards(11, 120), cards)
        for command in cli.ANALYSES:
            assert run_subcommand([command, "--scorecards", str(cards), "--out-dir", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["anova.csv", "case_scores.csv", "mda.json", "sem_fit.json"]
        assert run_pipeline(fixture) == 0  # six reports: mda and sem cannot fit
        line = [x for x in capsys.readouterr().err.splitlines() if x.startswith(f"{analysis}: ")]
        argv = [analysis, "--scorecards", str(fixture / "scorecards.csv"), "--out-dir", str(out)]
        assert run_subcommand(argv) == 1
        assert capsys.readouterr().err.splitlines() == line
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            name: data for name, data in before.items() if name not in cli.OUTPUTS[analysis]}

    @pytest.mark.parametrize("analysis, blocked", [
        ("anova", "anova.csv"), ("mda", "case_scores.csv"), ("sem", "sem_fit.json"),
    ])
    def test_write_error_names_the_analysis(self, tmp_path, capsys, analysis, blocked):
        """An artifact path that is a directory fails the analysis under its own name, in
        pipeline and alone, and leaves no other file of it; pipeline keeps what mine, score
        and the analyses before it wrote."""
        for name, data in CONTRACT_INPUTS.items():
            (tmp_path / name).write_bytes(data)  # every analysis fits these
        config = ["--config", str(tmp_path / "config.json")]
        piped, alone = tmp_path / "pipeline", tmp_path / "alone"
        assert run_subcommand(["pipeline", *config, "--out-dir", str(piped)]) == 0
        assert capsys.readouterr().err == ""
        shutil.copytree(piped, alone)
        earlier = list(cli.ANALYSES)[:list(cli.ANALYSES).index(analysis)]
        kept_piped = ["frequencies.csv", "scorecards.csv",
                      *(name for stage in earlier for name in cli.OUTPUTS[stage])]
        kept_alone = [p.name for p in alone.iterdir() if p.name not in cli.OUTPUTS[analysis]]
        for out, command, kept in ((piped, "pipeline", kept_piped), (alone, analysis, kept_alone)):
            (out / blocked).unlink()
            (out / blocked).mkdir()
            assert run_subcommand([command, *config, "--out-dir", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"{analysis}: [Errno 21] Is a directory: '{out / blocked}'\n")
            assert sorted(p.name for p in out.iterdir()) == sorted([*kept, blocked])

    def test_corrupt_scorecards_reported_cleanly(self, scored, capsys):
        # A hand-edited scorecard file must fail as a stage diagnostic,
        # not an unhandled parser exception.
        path = scored / "scorecards.csv"
        text = path.read_text(encoding="utf-8").replace(",10,", ",ten,", 1)
        path.write_text(text, encoding="utf-8")
        assert run_subcommand(["anova", "--out-dir", str(scored)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("anova:")
        assert "line" in err

    @pytest.mark.parametrize("command", ["anova", "mda", "sem", "report"])
    def test_scorecards_without_scores_fail_cleanly(self, tmp_path, capsys, command):
        path = tmp_path / "cards.csv"
        rows = [f"r{i},{s},{i},en" for i, s in enumerate(["primary", "secondary", "tertiary"] * 3)]
        path.write_text("report_id,sector,v1_freq,language\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        assert run_subcommand([command, "--scorecards", str(path), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"{command}: scorecard header has no <criterion>_score column\n"
        assert list(out.iterdir()) == []


class TestReport:
    def test_partial_report_on_fixture(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_pipeline(out)
        capsys.readouterr()
        assert run_subcommand(["report", "--out-dir", str(out)]) == 0
        raw = (out / "report.txt").read_bytes()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        assert "SECTOR COMPOSITION" in text
        assert "ONE-WAY ANOVA BY SECTOR" in text
        assert "DISCRIMINANT ANALYSIS" not in text
        assert "STRUCTURAL EQUATION MODEL" not in text
        err = capsys.readouterr().err
        assert "mda:" in err and "sem:" in err

    def test_writes_only_the_report(self, tmp_path, capsys):
        cards, out = tmp_path / "cards.csv", tmp_path / "out"
        write_scorecards_csv(seeded_cards(11, 120), cards)
        assert run_subcommand(["report", "--scorecards", str(cards), "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        text = (out / "report.txt").read_text(encoding="utf-8")
        for section in ("SECTOR COMPOSITION", "ONE-WAY ANOVA BY SECTOR", "DISCRIMINANT ANALYSIS",
                        "STRUCTURAL EQUATION MODEL"):
            assert section in text
        assert [p.name for p in out.iterdir()] == ["report.txt"]

    def test_custom_target(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(out)
        target = tmp_path / "summary.txt"
        assert run_subcommand(["report", "--out-dir", str(out), "--out", str(target)]) == 0
        assert target.is_file()


class TestUsageErrors:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            run_subcommand([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            run_subcommand(["transmogrify"])
        assert excinfo.value.code == 2

    def test_bad_strategy_value(self):
        with pytest.raises(SystemExit) as excinfo:
            run_subcommand(
                ["mine", "--manifest", str(MANIFEST), "--strategy", "quadratic"]
            )
        assert excinfo.value.code == 2

    def test_every_flag_belongs_to_a_command(self):
        read = {dest for _, _, dests in cli.COMMANDS.values() for dest in dests}
        assert set(cli.FLAGS) == read | {"config", "out_dir"}

    def test_nonexistent_manifest_path(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_subcommand(
                ["mine", "--manifest", str(tmp_path / "absent.csv"),
                 "--out-dir", str(tmp_path / "out")]
            )
        assert excinfo.value.code == 2


class TestConfigFile:
    def test_relative_paths_resolve_against_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        rel_manifest = os.path.relpath(MANIFEST, tmp_path)
        config_path.write_text(
            json.dumps({"manifest": rel_manifest, "out_dir": "results"}),
            encoding="utf-8",
        )
        assert run_subcommand(["pipeline", "--config", str(config_path)]) == 0
        assert (tmp_path / "results" / "frequencies.csv").is_file()

    def test_flag_overrides_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"manifest": str(MANIFEST), "strategy": "binary"}),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_subcommand(
            ["mine", "--config", str(config_path), "--out-dir", str(out),
             "--strategy", "linear"]
        ) == 0
        assert not (out / "keyword_file.tsv").exists()

    def test_config_strategy_used_without_flag(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"manifest": str(MANIFEST), "strategy": "binary"}),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run_subcommand(["mine", "--config", str(config_path), "--out-dir", str(out)]) == 0
        assert (out / "keyword_file.tsv").is_file()

    def test_malformed_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            run_subcommand(["mine", "--config", str(config_path)])
        assert excinfo.value.code == 2

    def test_truncated_json(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"manifest": ', encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            run_subcommand(["mine", "--config", str(config_path)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"cera: error: cannot read config {config_path}: "
            "Expecting value: line 1 column 14 (char 13)"
        )

    @pytest.mark.parametrize("key, value", [
        ("stemming", "false"), ("use_stoplist", "no"), ("stemming", 1),
    ])
    def test_boolean_must_be_json_boolean(self, tmp_path, capsys, key, value):
        assert repr(key) in self.usage_error(tmp_path, capsys, {key: value}, "mine")

    @pytest.mark.parametrize("key, value", [("strategy", "quick"), ("elimination", "both")])
    def test_value_outside_choices(self, tmp_path, capsys, key, value):
        err = self.usage_error(tmp_path, capsys, {key: value}, _command_taking(key))
        assert f"{key} must be one of (" in err and repr(value) in err

    @pytest.mark.parametrize("key, value", [
        ("manifest", 5), ("out_dir", ["a"]), ("language", 5), ("strategy", {"a": 1}),
    ])
    def test_text_and_path_values_must_be_strings(self, tmp_path, capsys, key, value):
        err = self.usage_error(tmp_path, capsys, {key: value}, _command_taking(key))
        assert f"config key {key!r} must be a string" in err

    @staticmethod
    def usage_error(tmp_path, capsys, values, command) -> str:
        """Run ``command`` with ``values`` as its config file; expect exit 2 and return stderr."""
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"manifest": str(MANIFEST), **values}), encoding="utf-8"
        )
        with pytest.raises(SystemExit) as excinfo:
            run_subcommand(
                [command, "--config", str(config_path), "--out-dir", str(tmp_path / "out")]
            )
        assert excinfo.value.code == 2
        assert not (tmp_path / "out").exists()
        return capsys.readouterr().err

    @pytest.fixture
    def pipeline_out(self, tmp_path):
        out = tmp_path / "p"
        assert run_pipeline(out) == 0
        return out

    def run_with_config(self, tmp_path, command, values) -> int:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(values), encoding="utf-8")
        return run_subcommand([command, "--config", str(config_path)])

    def test_analysis_ignores_manifest_key(self, tmp_path, pipeline_out):
        """anova reads no manifest, so a missing one named in the config is no error."""
        values = {"manifest": "gone/manifest.csv", "out_dir": str(pipeline_out)}
        (pipeline_out / "anova.csv").unlink()
        assert self.run_with_config(tmp_path, "anova", values) == 0
        assert (pipeline_out / "anova.csv").is_file()

    def test_report_ignores_mining_keys(self, tmp_path, pipeline_out):
        """report does not mine, so a strategy outside the choices is no error."""
        values = {"strategy": "bogus", "out_dir": str(pipeline_out)}
        assert self.run_with_config(tmp_path, "report", values) == 0
        assert (pipeline_out / "report.txt").is_file()

    def test_scorecards_key_read(self, tmp_path, pipeline_out):
        """The config's scorecards path is read, relative to the config file."""
        values = {"scorecards": "p/scorecards.csv", "out_dir": "q"}
        assert self.run_with_config(tmp_path, "anova", values) == 0
        assert not (tmp_path / "q" / "scorecards.csv").exists()
        assert (tmp_path / "q" / "anova.csv").read_bytes() == (
            pipeline_out / "anova.csv"
        ).read_bytes()

    def test_null_means_unset(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"manifest": str(MANIFEST), "language": None, "stemming": None,
                        "out_dir": None}),
            encoding="utf-8",
        )
        config = TestConfigFields.build(["pipeline", "--config", str(config_path)])
        assert (config.language, config.stemming, config.out_dir) == ("en", False, Path("out"))


# A non-default value for every option but --config, as a config file states
# it, and an argv fragment that overrides it. "@" stands for the flag directory.
FILE_VALUES = {
    "manifest": "inputs/manifest.csv",
    "root": "corpus",
    "criteria": "inputs/criteria.txt",
    "stoplist": "inputs/stop.txt",
    "use_stoplist": False,
    "stemming": True,
    "strategy": "binary",
    "out_dir": "results",
    "elimination": "disjunction",
    "language": "fr",
    "sem_model": "inputs/model.txt",
    "frequencies": "inputs/frequencies.csv",
    "scorecards": "inputs/scorecards.csv",
    "out": "summary.txt",
}
FLAG_VALUES = {
    "manifest": (["--manifest", "@/manifest.csv"], "@/manifest.csv"),
    "root": (["--root", "@/corpus"], "@/corpus"),
    "criteria": (["--criteria", "@/criteria.txt"], "@/criteria.txt"),
    "stoplist": (["--stoplist", "@/stop.txt"], "@/stop.txt"),
    "use_stoplist": (["--no-stoplist"], False),
    "stemming": (["--stemming"], True),
    "strategy": (["--strategy", "linear"], "linear"),
    "out_dir": (["--out-dir", "@/out"], "@/out"),
    "elimination": (["--elimination", "conjunction"], "conjunction"),
    "language": (["--language", "de"], "de"),
    "sem_model": (["--sem-model", "@/model.txt"], "@/model.txt"),
    "frequencies": (["--frequencies", "@/frequencies.csv"], "@/frequencies.csv"),
    "scorecards": (["--scorecards", "@/scorecards.csv"], "@/scorecards.csv"),
    "out": (["--out", "@/summary.txt"], "@/summary.txt"),
}
FILE_KEYS = ("manifest", "criteria", "stoplist", "sem_model")


def _is_path(key: str) -> bool:
    return FLAGS[key][3].get("type") is Path


def _command_taking(key: str) -> str:
    """The first command, in --help order, that takes option ``key``."""
    return next(name for name, (_, _, dests) in cli.COMMANDS.items()
                if key in ("out_dir", *dests))


class TestConfigFields:
    """Every option, on a command that takes it: from the config file, overridden by its flag."""

    @pytest.fixture
    def setup(self, tmp_path):
        config_dir, flag_dir = tmp_path / "cfg", tmp_path / "flags"
        for key in FILE_KEYS:
            flag_path = Path(FLAG_VALUES[key][1].replace("@", str(flag_dir)))
            for path in (config_dir / FILE_VALUES[key], flag_path):
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("", encoding="utf-8")
        return config_dir, flag_dir

    @staticmethod
    def build(argv):
        args = build_parser().parse_args(argv)
        _build_config(args)
        return args

    @staticmethod
    def write_config(config_dir, values):
        path = config_dir / "config.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        return str(path)

    def test_tables_cover_every_field(self):
        options = set(FLAGS) - {"config"}
        assert set(FILE_VALUES) == options
        assert set(FLAG_VALUES) == options
        assert set(FILE_KEYS) < set(filter(_is_path, options)) == {
            "out_dir", "manifest", "root", "criteria", "stoplist", "frequencies", "scorecards",
            "sem_model", "out",
        }

    @pytest.mark.parametrize("key", sorted(FILE_VALUES))
    def test_field_from_config_file(self, setup, key):
        """Relative paths resolve against the config file's directory."""
        config_dir, _ = setup
        path = self.write_config(config_dir, FILE_VALUES)
        command = _command_taking(key)
        config = self.build([command, "--config", path])
        expected = FILE_VALUES[key]
        if _is_path(key):
            expected = config_dir / expected
        assert getattr(config, key) == expected
        assert getattr(config, key) != getattr(self.build([command]), key)

    @pytest.mark.parametrize("key", sorted(FLAG_VALUES))
    def test_flag_overrides_field(self, setup, key):
        config_dir, flag_dir = setup
        path = self.write_config(config_dir, FILE_VALUES)
        argv, expected = FLAG_VALUES[key]
        argv = [a.replace("@", str(flag_dir)) for a in argv]
        if _is_path(key):
            expected = Path(expected.replace("@", str(flag_dir)))
        elif key in ("use_stoplist", "stemming"):
            # The flag can only move a boolean off its default.
            path = self.write_config(config_dir, {**FILE_VALUES, key: not expected})
        config = self.build([_command_taking(key), "--config", path, *argv])
        assert getattr(config, key) == expected

    def test_unknown_key_ignored(self, setup):
        config_dir, _ = setup
        path = self.write_config(config_dir, {"no_such_option": 3, "language": "fr"})
        config = self.build(["pipeline", "--config", path])
        assert config.language == "fr"
        assert not hasattr(config, "no_such_option")


def _packaged(name: str) -> str:
    return resources.files("cera.data").joinpath(name).read_text("utf-8")


BOM_INPUTS = {
    "manifest": (MANIFEST.read_text(encoding="utf-8"),
                 lambda path: miner.load_corpus(FIXTURE_DIR, path)),
    "stoplist": ("the\nand\n", miner.load_stoplist),
    "criteria": (_packaged("criteria.txt"), scoring.load_criteria),
    "sem_model": (_packaged("sem_model.txt"), sem.load_model),
    "config": (json.dumps({"language": "fr", "sem_model": "model.txt"}),
               lambda path: cli._load_config_file(path, ("language", "sem_model"))),
    "frequencies": ("report_id,v1,v2\nA,1,2\nB,3,4\n", miner.read_frequency_csv),
    "scorecards": ("report_id,sector,v1_freq,v1_score,language\nr1,primary,3,1,en\n",
                   scoring.read_scorecards_csv),
}


@pytest.mark.parametrize("name", sorted(BOM_INPUTS))
def test_byte_order_mark_ignored(tmp_path, name):
    text, load = BOM_INPUTS[name]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load(marked) == load(plain)


def _undecodable(name: str) -> bytes:
    """The BOM_INPUTS text for ``name``, ending in a byte that is not UTF-8."""
    return BOM_INPUTS[name][0].encode("utf-8") + b"\xff"


BAD_BYTE = "'utf-8' codec can't decode byte 0xff"
# One bad input per run: the file's bytes, the command that reads it (@ is
# the file's path), its exit code and the start of its one diagnostic line.
BAD_INPUT_RUNS = {
    "manifest": (_undecodable("manifest"), ["mine", "--manifest", "@"], 1,
                 f"mine: cannot read manifest @: {BAD_BYTE}"),
    "stoplist": (_undecodable("stoplist"), ["mine", "--manifest", str(MANIFEST), "--stoplist", "@"],
                 1, f"mine: cannot read stop list @: {BAD_BYTE}"),
    "criteria": (_undecodable("criteria"), ["mine", "--manifest", str(MANIFEST), "--criteria", "@"],
                 1, f"mine: cannot read criteria config @: {BAD_BYTE}"),
    # The pipeline goes on: the sem stage fails alone, into its error artifact.
    "sem_model": (_undecodable("sem_model"),
                  ["pipeline", "--manifest", str(MANIFEST), "--sem-model", "@"], 0,
                  f"sem: cannot read SEM model @: {BAD_BYTE}"),
    "config": (_undecodable("config"), ["anova", "--config", "@"], 2,
               f"cera: error: cannot read config @: {BAD_BYTE}"),
    "frequencies": (_undecodable("frequencies"),
                    ["score", "--manifest", str(MANIFEST), "--frequencies", "@"], 1,
                    f"score: cannot read frequency @: {BAD_BYTE}"),
    "scorecards": (_undecodable("scorecards"), ["anova", "--scorecards", "@"], 1,
                   f"anova: cannot read scorecard @: {BAD_BYTE}"),
    "oversized-cell": (b"report_id,sector,v1_score\nr1,primary," + b"1" * 131_073 + b"\n",
                       ["anova", "--scorecards", "@"], 1,
                       "anova: scorecard row at line 2: field larger than field limit (131072)"),
    "manifest-sector": (b"report_id,sector,language,path\nP1,Quaternary,en,P1.txt\n",
                        ["mine", "--manifest", "@"], 1,
                        "mine: manifest row at line 2, report 'P1': unknown sector 'Quaternary'; "
                        "expected one of primary, secondary, tertiary"),
    "scorecard-sector": (b"report_id,sector,v1_score\nr1,quaternary,1\n",
                         ["anova", "--scorecards", "@"], 1,
                         "anova: scorecard row at line 2: unknown sector 'quaternary'; "
                         "expected one of primary, secondary, tertiary"),
    "frequency-cell": (b"report_id,v1\nP1,x\n",
                       ["score", "--manifest", str(MANIFEST), "--frequencies", "@"], 1,
                       "score: frequency row at line 2: non-integer count 'x' for (P1, v1)"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUT_RUNS))
def test_bad_input_is_one_named_diagnostic(tmp_path, capsys, name):
    content, argv, expected, line = BAD_INPUT_RUNS[name]
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_bytes(content)
    argv = [str(bad) if a == "@" else a for a in argv]
    try:
        code = run_subcommand([*argv, "--out-dir", str(out)])
    except SystemExit as exc:  # usage errors exit through argparse
        code = exc.code
    assert code == expected
    err = capsys.readouterr().err.splitlines()
    named = [e for e in err if e.startswith(line.replace("@", str(bad)))]
    assert len(named) == 1, err
    if expected == 1:
        assert err == named
    if name == "sem_model":
        assert (out / "anova.csv").is_file() and (out / "mda.json").is_file()
        fit = json.loads((out / "sem_fit.json").read_text(encoding="utf-8"))
        assert fit["status"] == "error"
        assert fit["message"].startswith(f"cannot read SEM model {bad}: {BAD_BYTE}")


# The CLI's error contract, under damaged inputs: pipeline runs from a --config file
# naming a manifest of 12 reports per sector, the packaged criteria, a stop list and a
# one-factor SEM model, on which every analysis fits. An example damages one of them.
def _contract_inputs() -> dict[str, bytes]:
    rng = random.Random(37)
    phrases = [criterion.alternatives[0] for criterion in scoring.default_criteria()]
    files = {"manifest.csv": b"report_id,sector,language,path\n"}
    for i in range(36):
        level = rng.gauss(i % 3 - 1.0, 1.0)
        counts = [max(0, round(8 + 5 * level + 4 * rng.gauss(0, 1))) for _ in phrases]
        words = [p for p, n in zip(phrases, counts) for _ in range(n)]
        rng.shuffle(words)
        files[f"R{i:02d}.txt"] = f"We report on {'. '.join(words)}.\n".encode()
        files["manifest.csv"] += f"R{i:02d},{list(Sector)[i % 3].value},en,R{i:02d}.txt\n".encode()
    files["criteria.txt"] = _packaged("criteria.txt").encode()
    files["stoplist.txt"] = b"we\non\n"
    files["model.txt"] = (b"[latents]\nf\n[loadings]\nf -> v1 free\nf -> v2 free\nf -> v3 free\n"
                          b"f -> v4 free\n[residuals]\nv1 free\nv2 free\nv3 free\nv4 free\n")
    files["config.json"] = json.dumps({
        "manifest": "manifest.csv", "criteria": "criteria.txt", "stoplist": "stoplist.txt",
        "sem_model": "model.txt", "language": "en", "elimination": "conjunction",
    }, indent=1).encode()
    return files


CONTRACT_INPUTS = _contract_inputs()
EDITS = ("truncate", "insert", "delete", "bom", "crlf", "nul", "repeat_row", "sector_case")


def _damage(data: bytes, edit: str, at: int, byte: int) -> bytes:
    """``data`` with one ``edit`` at the byte or line that ``at`` picks."""
    i, lines = at % (len(data) + 1), data.splitlines(keepends=True) or [b""]
    row = at % len(lines)
    if edit == "repeat_row":
        lines.insert(row, lines[row])
    elif edit == "sector_case":
        for sector in Sector:
            lines[row] = lines[row].replace(sector.value.encode(), sector.value.title().encode())
    else:
        return {"truncate": data[:i], "insert": data[:i] + bytes([byte]) + data[i:],
                "delete": data[:i] + data[i + 1:], "bom": b"\xef\xbb\xbf" + data,
                "crlf": data.replace(b"\n", b"\r\n"), "nul": data[:i] + b"\0" + data[i:]}[edit]
    return b"".join(lines)


def _failing_keyword_file_writer(blocks, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("partial\tR00\n")
    raise OSError("disk full")


@settings(max_examples=40, derandomize=True, deadline=None)
@given(target=st.sampled_from(("manifest.csv", "report", "criteria.txt", "stoplist.txt",
                               "model.txt", "config.json")),
       report=st.integers(0, 35),
       edits=st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 1 << 16),
                                st.integers(0, 255)), min_size=1, max_size=4),
       run=st.sampled_from((("linear", ""), ("binary", ""), ("binary", "\t"), ("binary", "\n"),
                            ("binary", "writer"))),
       cpus=st.sampled_from((1, 2)))
def test_damaged_input_keeps_the_error_contract(
    tmp_path_factory, target, report, edits, run, cpus
):
    """Exit 0, 1 or 2 and one diagnostic line per failed stage, named after it. A failed
    mine leaves no artifact, a failed score only what it mined, each failed analysis its
    error artifact, and a written keyword file two fields on every line.

    ``run`` is the strategy and, mined binary, a fault for the keyword file besides the
    edits to ``target``: the manifest gives report ``report`` an id with a tab or a line
    break in it, or the keyword file's writer writes a line and then fails."""
    (strategy, fault), inputs = run, tmp_path_factory.mktemp("contract")
    rid = f"R{report:02d}"
    target = f"{rid}.txt" if target == "report" else target
    for name, data in CONTRACT_INPUTS.items():
        if name == "manifest.csv" and fault in ("\t", "\n"):
            broken = f'"{rid[:2]}{fault}{rid[2:]}"'
            data = data.replace(f"\n{rid},".encode(), f"\n{broken},".encode())
        if name == target:
            for edit in edits:
                data = _damage(data, *edit)
        (inputs / name).write_bytes(data)
    out, err = inputs / "out", io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(miner, "_cpu_count", lambda: cpus))
        if fault == "writer":
            stack.enter_context(
                mock.patch.object(miner, "write_keyword_file", _failing_keyword_file_writer))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:  # any other exception fails the test
            code = run_subcommand(["pipeline", "--config", str(inputs / "config.json"),
                                   "--out-dir", str(out), "--strategy", strategy])
        except SystemExit as exc:  # usage errors exit through argparse
            code = exc.code
    lines = err.getvalue().splitlines()
    left = sorted(p.name for p in out.iterdir()) if out.exists() else []
    if code == 2:
        usage, error = lines[:-1], lines[-1]
        assert usage[0].startswith("usage: cera ") and error.startswith("cera: error: "), lines
        assert all(line.startswith(" ") for line in usage[1:]) and left == [], lines
        return
    stages = [line.partition(": ")[0] for line in lines]
    if code == 1:
        assert stages in (["mine"], ["score"]), lines
        mined = ["frequencies.csv", *(["keyword_file.tsv"] if strategy == "binary" else [])]
        assert left == ([] if stages == ["mine"] else sorted(mined)), (lines, left)
        return
    assert code == 0 and set(stages) <= set(cli.ANALYSES), lines
    assert len(stages) == len(set(stages)), lines
    assert ((out / "anova.csv").read_text(encoding="utf-8").count("\n") == 1) == (
        "anova" in stages)
    for name, artifact in (("mda", "mda.json"), ("sem", "sem_fit.json")):
        payload = json.loads((out / artifact).read_text(encoding="utf-8"))
        assert (payload.get("status") == "error") == (name in stages), (name, lines)
    if strategy == "binary":
        text = (out / "keyword_file.tsv").read_text(encoding="utf-8")
        assert text.endswith("\n") and all(
            line.count("\t") == 1 for line in text[:-1].split("\n")), "keyword file"


@pytest.mark.parametrize("load, text, error", [
    (miner.load_stoplist, "two words\n", ValidationError),
    (scoring.load_criteria, "[v1]\nlabel: no phrases\n", ValidationError),
    (sem.load_model, "[latents]\nf free\n[loadings]\nf -> y free\n[residuals]\ny free\n",
     IdentificationError),
], ids=["stoplist", "criteria", "sem_model"])
def test_parse_error_names_the_file(tmp_path, load, text, error):
    path = tmp_path / "config.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as excinfo:
        load(path)
    assert type(excinfo.value) is error and f" {path}: " in str(excinfo.value)


def test_readme_library_use_runs(tmp_path, monkeypatch):
    """The README's "Library use" block runs as written, on a copy of the fixture corpus."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    shutil.copytree(FIXTURE_DIR, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(block, names)
    table = names["table"]
    assert {rid: list(table.row(rid).values()) for rid in table.report_ids} == FIXTURE_FREQUENCIES
    assert [row.variable_id for row in names["rows"]] == [f"v{j}" for j in range(1, 11)]


def run_child(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter that imports this checkout's cera."""
    src = str(Path(cera.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_runs_without_scipy():
    """The package, the CLI and every analysis routine import no scipy module."""
    script = """
import sys
import numpy as np
import cera, cera.cli
from cera import numcore, sem
sem.fit_model(sem.default_model(), np.eye(10) + 0.3, 100)
numcore.chisq_sf(3.0, 2)
numcore.f_sf(2.0, 3, 7.5)
numcore.generalized_eigen(np.eye(2), np.eye(2))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    run_child(script)


FACTOR_OF = [0, 0, 0, 1, 1, 2, 2, 2, 2, 2]  # v1..v10 -> construct, as in the packaged model


def seeded_cards(seed: int, n: int) -> list[ScoreCard]:
    """Cards with three correlated constructs and sector-shifted means."""
    rng = random.Random(seed)
    cards = []
    for i in range(n):
        shift = (-0.5, 0.0, 0.5)[i % 3]
        factors = [rng.gauss(shift, 1.0) for _ in range(3)]
        freqs = {
            f"v{j + 1}": max(0, round(25 + 18 * (factors[k] + 0.7 * rng.gauss(0.0, 1.0))))
            for j, k in enumerate(FACTOR_OF)
        }
        scores = {cid: rate_frequency(f) for cid, f in freqs.items()}
        cards.append(ScoreCard(f"r{i:03d}", list(Sector)[i % 3], "en", freqs, scores))
    return cards


# sha256 of each artifact that anova, mda, sem and report write for seeded_cards(11, 120).
SEEDED_DIGESTS = {
    "anova.csv": "ffb5a0dc185b0515a434377eb101dac59002a6721399027525dfc131b2593668",
    "case_scores.csv": "5ec507314edb05c450a58be5fff09d6746f9606e4687fec97c0cbbdfb4e906a8",
    "mda.json": "6887e291995c3927853bd1949aa20231685d876602a83ff38f0af46fe0108a97",
    "report.txt": "54355f93d7a30062e27ea0d8ac958b90beb1b836f49b6f2b53f21e2015936860",
    "sem_fit.json": "95017b4e836d5f1414d2249be6e97715941d1d44c48255fd34a5e7562607c6ff",
}

# sha256 of each artifact that pipeline and then report write for the fixture corpus, with
# either strategy; MDA and SEM fail on its six reports and write their error JSONs.
FIXTURE_DIGESTS = {
    "anova.csv": "d14e53fc39fcda0ed4f2c010b184eeb8d2ebd682d4a38a5a35d70a5a9a88640f",
    "frequencies.csv": "11b7b7b5e1820d1ed52c3f0cd592c7f4e6c62cc31b4ce647c727a6455a656d0e",
    "mda.json": "bf8f6ed37239b470ace703bbbc2896fae221f8ffd4c8934c1c706051122e605f",
    "report.txt": "1b5c3ddd481bf323aec9228aba3bc91c8612ac195c7f7b512689b4c37216797c",
    "scorecards.csv": "c39d1392a680b48c6af843a0acbf83e274daf72ecbb335150288645951bbf514",
    "sem_fit.json": "cbbef02b1fa7a540b7e1881f7a5ded82503a25d277f8159fd54d09b9897ec464",
}
KEYWORD_FILE_DIGEST = "ac3af4a8cf76710bc824ca635ad3a845b5c698594f20d8ca25219f22302af391"


def test_analysis_artifact_bytes_pinned(tmp_path):
    """Every artifact of the seeded analyses and of the fixture pipeline, byte for byte,
    on every supported Python: group keys, the case-score group column, the report's
    sector rows and each float total, which adds left to right."""
    def digests(out):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}

    cards, out = tmp_path / "cards.csv", tmp_path / "out"
    write_scorecards_csv(seeded_cards(11, 120), cards)
    for command in ("anova", "mda", "sem", "report"):
        assert run_subcommand([command, "--scorecards", str(cards), "--out-dir", str(out)]) == 0
    assert digests(out) == SEEDED_DIGESTS
    for strategy, extra in (("linear", {}), ("binary", {"keyword_file.tsv": KEYWORD_FILE_DIGEST})):
        out = tmp_path / strategy
        assert run_subcommand(["pipeline", "--manifest", str(MANIFEST), "--out-dir", str(out),
                               "--strategy", strategy]) == 0
        assert run_subcommand(["report", "--out-dir", str(out)]) == 0
        assert digests(out) == {**FIXTURE_DIGESTS, **extra}


def test_sector_letter_case_keeps_analysis_bytes(tmp_path):
    """Scorecard sectors written ``Primary`` and ``TERTIARY`` read as the lower-case file does."""
    lower, mixed = tmp_path / "lower.csv", tmp_path / "mixed.csv"
    write_scorecards_csv(seeded_cards(11, 120), lower)
    text = lower.read_text(encoding="utf-8")
    mixed.write_text(text.replace(",primary,", ",Primary,").replace(",tertiary,", ",TERTIARY,"),
                     encoding="utf-8")
    assert mixed.read_bytes() != lower.read_bytes()
    artifacts = []
    for cards in (lower, mixed):
        out = tmp_path / f"{cards.stem}-out"
        for command in ("anova", "mda", "report"):
            assert run_subcommand([command, "--scorecards", str(cards), "--out-dir", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(artifacts[0]) == ["anova.csv", "case_scores.csv", "mda.json", "report.txt"]
    assert artifacts[1] == artifacts[0]


@pytest.mark.parametrize("argv, expected", [
    (["--help"], 0), (["frobnicate"], 2), (["mine", "--strategy", "bogus"], 2),
], ids=["help", "unknown-command", "bad-choice"])
def test_parsing_loads_no_stage(argv, expected):
    """``--help`` and a usage error end before any stage module or ``json`` is imported."""
    script = """
import contextlib, io, sys
from cera.cli import run_subcommand
try:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        run_subcommand(sys.argv[2:])
except SystemExit as exc:
    assert exc.code == int(sys.argv[1]), exc.code
stages = {"cera.miner", "cera.scoring", "cera.anova", "cera.mda", "cera.sem", "cera.numcore",
          "json"}
loaded = sorted(stages & set(sys.modules))
assert not loaded, loaded
"""
    run_child(script, str(expected), *argv)


def test_no_command_loads_numpy(tmp_path):
    """Every command runs without importing numpy, the analyses on cards they can fit.

    No command loads ``dataclasses`` or ``inspect``. ``--help``, ``mine`` and ``score``
    load no analysis module either. ``--help`` and the analyses load neither ``pickle``
    nor ``signal``, which only forked mining needs.
    """
    cards = tmp_path / "cards.csv"
    write_scorecards_csv(seeded_cards(11, 120), cards)
    script = """
import contextlib, io, sys
from cera.cli import run_subcommand
manifest, cards, out, mode = sys.argv[1:]
fixture = ["--out-dir", out]
fitted = ["--scorecards", cards, "--out-dir", out + "-cards"]
# Six fixture reports are too few for mda and sem, which exit 1 on them.
runs = {"fixture": [(["--help"], 0), (["mine", "--manifest", manifest, *fixture], 0),
                    (["score", "--manifest", manifest, *fixture], 0), (["anova", *fixture], 0),
                    (["mda", *fixture], 1), (["sem", *fixture], 1),
                    (["pipeline", "--manifest", manifest, "--strategy", "linear", *fixture], 0),
                    (["pipeline", "--manifest", manifest, "--strategy", "binary", *fixture], 0),
                    (["report", *fixture], 0)],
        "fitted": [(["--help"], 0), (["anova", *fitted], 0), (["mda", *fitted], 0),
                   (["sem", *fitted], 0), (["report", *fitted], 0)]}[mode]
for argv, expected in runs:
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run_subcommand(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == expected, (argv, code)
    loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
    assert not loaded, (argv[0], loaded[:5])
    generated = {"dataclasses", "inspect"} & set(sys.modules)
    assert not generated, (argv[0], sorted(generated))
    if argv[0] in ("--help", "mine", "score"):
        analysis = {"cera.anova", "cera.mda", "cera.sem", "cera.numcore"} & set(sys.modules)
        assert not analysis, (argv[0], sorted(analysis))
    if mode == "fitted":  # this process mines nothing
        forking = {"pickle", "signal"} & set(sys.modules)
        assert not forking, (argv[0], sorted(forking))
"""
    out = tmp_path / "out"
    for mode in ("fixture", "fitted"):
        run_child(script, str(MANIFEST), str(cards), str(out), mode)
    assert (out / "keyword_file.tsv").is_file() and (out / "report.txt").is_file()
    fit = json.loads((tmp_path / "out-cards" / "sem_fit.json").read_text())
    assert fit["convergence"]["converged"]
    assert (tmp_path / "out-cards" / "case_scores.csv").is_file()
