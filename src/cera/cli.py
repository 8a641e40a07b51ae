"""Command-line front end: mine -> score -> analyze.

Subcommands: mine, score, anova, mda, sem, pipeline, report. ``FLAGS``
declares every option once: its flag, help line, default and argparse
options. A JSON file passed with --config supplies values for the options
a command takes and its other keys are ignored; flags given on the command
line win. The parsed namespace, filled in this way, is the run's resolved
config. Exit codes: 0 success, 1 runtime or analysis error, 2 usage error.

Each stage (mine, score, anova, mda, sem) owns its files in --out-dir
(``OUTPUTS``). ``_stage`` is the one boundary: it deletes them before the
stage runs and when it fails, and names the failed stage on stderr.

Arguments are parsed before any stage is loaded: this module imports only
the parser's needs and ``report``, and each handler imports the stage
modules it runs and ``json`` when it runs, ``miner`` only for ``mine``,
``score`` and ``pipeline``. So ``--help`` and a usage error load no stage,
``mine`` and ``score`` no analysis, the other commands no mining code, and
no command imports numpy or ``dataclasses``. Stage functions are looked up
through their modules at call time, so bench/tracing.py can wrap them.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import ELIMINATION_RULES
from .errors import CeraError, IngestionError, ValidationError
from .report import emit_report

TYPE_CHECKING = False  # typing is not imported at start-up
if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable

    from . import miner, scoring
    from .anova import AnovaRow
    from .mda import MdaResult
    from .sem import SemFit

STRATEGIES = ("linear", "binary")

FREQUENCIES_NAME = "frequencies.csv"
KEYWORD_FILE_NAME = "keyword_file.tsv"
SCORECARDS_NAME = "scorecards.csv"
ANOVA_NAME = "anova.csv"
MDA_NAME = "mda.json"
CASE_SCORES_NAME = "case_scores.csv"
SEM_NAME = "sem_fit.json"
REPORT_NAME = "report.txt"
# The files each stage owns in --out-dir, its error artifact first; pipeline and report own none.
OUTPUTS = {"mine": (FREQUENCIES_NAME, KEYWORD_FILE_NAME), "score": (SCORECARDS_NAME,),
           "anova": (ANOVA_NAME,), "mda": (MDA_NAME, CASE_SCORES_NAME), "sem": (SEM_NAME,)}


class StageFailure(Exception):
    """A stage failed; the message is its diagnostic line, stage name first."""


def _load_config_file(path: str, dests: tuple[str, ...]) -> dict:
    """The config file's values for the options ``dests``; null means unset.

    Booleans must be JSON booleans and every other value a JSON string.
    Relative paths resolve against the file's directory.
    """
    import json

    from . import scoring

    text = scoring.read_text(path, "config")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    values = {}
    for key in dests:
        value = raw.get(key)
        if value is None:
            continue
        _, _, default, options = FLAGS[key]
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false, got {value!r}")
        elif not isinstance(value, str):
            raise ValueError(f"config key {key!r} must be a string, got {value!r}")
        values[key] = Path(path).parent / value if options.get("type") is Path else value
    return values


def _build_config(args: argparse.Namespace) -> None:
    """Fill in each option the command takes, then check its choices and input files.

    An option takes its flag, else the config file's value, else its FLAGS default.
    """
    dests = ("out_dir", *COMMANDS[args.command][2])
    file_values = _load_config_file(args.config, dests) if args.config else {}
    for dest in dests:
        _, _, default, options = FLAGS[dest]
        if getattr(args, dest) is None:
            setattr(args, dest, file_values.get(dest, default))
        value, choices = getattr(args, dest), options.get("choices")
        if choices and value not in choices:
            raise ValueError(f"{dest} must be one of {choices}, got {value!r}")
        if dest in ("manifest", "criteria", "stoplist", "sem_model") and value is not None:
            if not value.is_file():
                raise ValueError(f"{dest.replace('_', ' ')} file not found: {value}")


def _stoplist(args: argparse.Namespace) -> frozenset[str]:
    from . import miner

    if not args.use_stoplist:
        return frozenset()
    if args.stoplist is not None:
        return miner.load_stoplist(args.stoplist)
    return miner.default_stoplist()


def _criteria(args: argparse.Namespace) -> scoring.CriteriaSet:
    from . import scoring

    if args.criteria is not None:
        return scoring.load_criteria(args.criteria)
    return scoring.default_criteria()


def _load_corpus(args: argparse.Namespace) -> miner.Corpus:
    from . import miner

    if args.manifest is None:
        raise ValidationError("a corpus manifest is required (--manifest)")
    root = args.root if args.root is not None else args.manifest.parent
    return miner.load_corpus(root, args.manifest)


def _delete(out_dir: Path, stages: Iterable[str]) -> None:
    """Delete the files that ``stages`` own in ``out_dir``; a directory stays."""
    for stage in stages:
        for path in map(out_dir.joinpath, OUTPUTS.get(stage, ())):
            if path.is_file():
                path.unlink()


@contextmanager
def _stage(name: str, out_dir: Path | None = None):
    """Run a block as stage ``name``: an input or I/O error in it fails the stage
    with one ``name: message`` line. With ``out_dir``, the stage's files there are
    deleted before the block runs and again when it raises, so a failed stage
    leaves none of them, an earlier run's or its own."""
    owned = (name,) if out_dir is not None else ()
    try:
        try:
            _delete(out_dir, owned)
            yield
        except BaseException:
            _delete(out_dir, owned)
            raise
    except (CeraError, OSError) as exc:
        raise StageFailure(f"{name}: {exc}") from exc


def _mine(args: argparse.Namespace, criteria: scoring.CriteriaSet) -> miner.FrequencyTable:
    """Mine the corpus and write its artifacts."""
    from . import miner

    corpus = _load_corpus(args)
    stoplist = _stoplist(args)
    binary = args.strategy == "binary"

    def mine(block: miner.Corpus) -> list:
        """The block's frequency table and, mined binary, its keyword postings."""
        if not binary:
            return [(miner.mine_linear(block, criteria, stoplist, args.stemming), {})]
        kwfile = miner.build_sorted_keyword_file(block, stoplist, args.stemming)
        return [(miner.mine_binary(kwfile, block, criteria), miner.keyword_postings(kwfile))]

    # Blocks ascend in report id, so each keyword's postings join block by block.
    blocks = miner.map_forked(mine, sorted(corpus, key=lambda doc: doc.report_id))
    tables, postings = zip(*blocks)
    if binary:
        miner.write_keyword_file(postings, args.out_dir / KEYWORD_FILE_NAME)
    counts = {key: n for block in tables for key, n in block.counts.items()}
    ids = [doc.report_id for doc in corpus]
    table = miner.FrequencyTable(ids, tables[0].criterion_ids, counts)
    miner.write_frequency_csv(table, args.out_dir / FREQUENCIES_NAME)
    return table


def _score(
    args: argparse.Namespace, table: miner.FrequencyTable, criteria: scoring.CriteriaSet
) -> list[scoring.ScoreCard]:
    """Rate and filter the mined reports and write their scorecards."""
    from . import scoring

    cards = scoring.build_scorecards(table, _load_corpus(args), criteria)
    sample = scoring.filter_sample(cards, args.language, args.elimination)
    scoring.write_scorecards_csv(sample, args.out_dir / SCORECARDS_NAME)
    return sample


def _read_scorecards(args: argparse.Namespace) -> list[scoring.ScoreCard]:
    from . import scoring

    return scoring.read_scorecards_csv(args.scorecards or args.out_dir / SCORECARDS_NAME)


def _write_json(path: Path, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# Each subcommand's handler, which COMMANDS binds to its subparser as ``run``.
def _cmd_mine(args: argparse.Namespace) -> int:
    _mine(args, _criteria(args))
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    from . import miner

    freq_path = args.frequencies or args.out_dir / FREQUENCIES_NAME
    _score(args, miner.read_frequency_csv(freq_path), _criteria(args))
    return 0


# One stage function per analysis, shared by the single commands, pipeline
# and report: it computes, writes its artifacts into ``out_dir`` when given
# one, and returns the result.
def _anova(args: argparse.Namespace, cards: list[scoring.ScoreCard],
           out_dir: Path | None) -> list[AnovaRow]:
    from . import anova as anova_mod

    rows = anova_mod.anova_table(cards)
    if out_dir is not None:
        anova_mod.write_anova_csv(rows, out_dir / ANOVA_NAME)
    return rows


def _mda(args: argparse.Namespace, cards: list[scoring.ScoreCard],
         out_dir: Path | None) -> MdaResult:
    from . import mda as mda_mod

    result = mda_mod.run_mda(cards)
    if out_dir is not None:
        _write_json(out_dir / MDA_NAME, mda_mod.mda_result_to_dict(result))
        mda_mod.write_case_scores_csv(result, out_dir / CASE_SCORES_NAME)
    return result


def _sem(args: argparse.Namespace, cards: list[scoring.ScoreCard],
         out_dir: Path | None) -> SemFit:
    from . import sem as sem_mod

    path = args.sem_model
    model = sem_mod.load_model(path) if path is not None else sem_mod.default_model()
    s, n = sem_mod.covariance_from_cards(cards, model.observed_vars)
    fit = sem_mod.fit_model(model, s, n)
    if out_dir is not None:
        _write_json(out_dir / SEM_NAME, sem_mod.fit_to_dict(fit))
    return fit


ANALYSES = {"anova": _anova, "mda": _mda, "sem": _sem}


def _write_failure(out_dir: Path, name: str, error: CeraError) -> None:
    """A failed analysis leaves a header-only anova.csv, or an error JSON."""
    if name == "anova":
        from . import anova as anova_mod

        anova_mod.write_anova_csv([], out_dir / ANOVA_NAME)
        return
    payload = {
        "status": "error",
        "stage": name,
        "error_class": type(error).__name__,
        "message": str(error),
    }
    _write_json(out_dir / OUTPUTS[name][0], payload)


def _run_analyses(
    args: argparse.Namespace, cards: list[scoring.ScoreCard], out_dir: Path | None = None
) -> dict:
    """Every analysis on ``cards``, each its own stage; one that cannot run yields None
    and, with ``out_dir``, writes its failure artifact there, then prints its line. An
    I/O error fails the run under the analysis's name, so each stage prints one line."""
    results = {}
    for name, analyze in ANALYSES.items():
        with _stage(name, out_dir):
            try:
                results[name] = analyze(args, cards, out_dir)
            except CeraError as exc:
                results[name] = None
                if out_dir is not None:
                    _write_failure(out_dir, name, exc)
                print(f"{name}: {exc}", file=sys.stderr)
    return results


def _cmd_analysis(args: argparse.Namespace) -> int:
    ANALYSES[args.command](args, _read_scorecards(args), args.out_dir)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    """Chain every stage; analysis failures leave diagnostic artifacts."""
    with _stage("mine", args.out_dir):
        _delete(args.out_dir, OUTPUTS)
        criteria = _criteria(args)
        table = _mine(args, criteria)
    with _stage("score", args.out_dir):
        sample = _score(args, table, criteria)
    _run_analyses(args, sample, args.out_dir)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from . import scoring

    cards = _read_scorecards(args)
    composition = scoring.sector_composition(cards)
    text = emit_report(composition, **_run_analyses(args, cards))
    with open(args.out or args.out_dir / REPORT_NAME, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return 0


# Every option, keyed by its dest: (flag, help, default, other add_argument options).
# Path options parse to a Path; in a config file they resolve against its directory.
_PATH = {"type": Path}
FLAGS = {
    "config": ("--config", "JSON file with default option values", None, {}),
    "out_dir": ("--out-dir", "output directory (default: out)", Path("out"), _PATH),
    "manifest": ("--manifest", "corpus manifest CSV (report_id,sector,language,path)", None, _PATH),
    "root": ("--root", "base directory for relative report paths", None, _PATH),
    "criteria": ("--criteria", "criteria config file (default: packaged set)", None, _PATH),
    "stoplist": ("--stoplist", "stop-word list file (default: packaged list)", None, _PATH),
    "use_stoplist": ("--no-stoplist", "disable stop-word removal", True, {"action": "store_false"}),
    "stemming": (
        "--stemming", "enable suffix stemming (off by default)", False, {"action": "store_true"}
    ),
    "strategy": (
        "--strategy", "mining strategy (default: linear)", "linear", {"choices": STRATEGIES}
    ),
    "elimination": (
        "--elimination",
        "drop a report when it is foreign-language AND all-zero (conjunction, "
        "the default) or when EITHER holds (disjunction)",
        "conjunction",
        {"choices": ELIMINATION_RULES},
    ),
    "language": ("--language", "analysis language tag (default: en)", "en", {}),
    "frequencies": (
        "--frequencies", "frequency CSV (default: OUT_DIR/frequencies.csv)", None, _PATH
    ),
    "scorecards": ("--scorecards", "scorecard CSV (default: OUT_DIR/scorecards.csv)", None, _PATH),
    "sem_model": ("--sem-model", "model config file", None, _PATH),
    "out": ("--out", "report path (default: OUT_DIR/report.txt)", None, _PATH),
}
_CORPUS = ("manifest", "root", "criteria")
_MINING = ("stoplist", "use_stoplist", "stemming", "strategy")
_FILTER = ("elimination", "language")

# Each command in --help order: (help, handler, the flags it reads besides --config, --out-dir).
COMMANDS = {
    "mine": ("count criterion keyword frequencies", _cmd_mine, (*_CORPUS, *_MINING)),
    "score": (
        "rate frequencies and filter the sample", _cmd_score, (*_CORPUS, *_FILTER, "frequencies")
    ),
    "anova": ("one-way ANOVA of each criterion across sectors", _cmd_analysis, ("scorecards",)),
    "mda": ("discriminant analysis of sector membership", _cmd_analysis, ("scorecards",)),
    "sem": (
        "fit the latent-construct covariance model", _cmd_analysis, ("scorecards", "sem_model")
    ),
    "pipeline": (
        "run mine, score, anova, mda, and sem",
        _cmd_pipeline,
        (*_CORPUS, *_MINING, *_FILTER, "sem_model"),
    ),
    "report": (
        "write a combined human-readable summary", _cmd_report, ("scorecards", "sem_model", "out")
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cera",
        description="Score disclosure criteria over a report corpus and analyze "
        "the scorecards by sector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, dests) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(run=run)
        for dest in ("config", "out_dir", *dests):
            flag, flag_help, _, options = FLAGS[dest]
            command.add_argument(flag, dest=dest, default=None, help=flag_help, **options)
    return parser


def run_subcommand(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _build_config(args)
    except (ValueError, IngestionError) as exc:
        parser.error(str(exc))  # exits 2
    try:
        with _stage(args.command, args.out_dir):
            args.out_dir.mkdir(parents=True, exist_ok=True)
            return args.run(args)
    except StageFailure as exc:
        print(exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand())


if __name__ == "__main__":
    main()
