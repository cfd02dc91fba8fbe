"""Command-line front end.

Subcommands: augment (fetch into the cache), run (full pipeline), evaluate
(score a mapping against gold), tune (TPE search), summarize (inspect a mapping).
Exit codes: 0 ok, 2 configuration error, 3 input error, 4 stage failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .augment import AugmentationCache, HtmlSearchProvider, fetch_names
from .config import PipelineConfig
from .errors import ConfigError, HarmonizerError, InputError, StageError
from .evaluation import GoldPairs, build_report
from .ingest import load_assignee_table, load_gold_standard
from .pipeline import read_mapping, run_pipeline, summarize_mapping, tune_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_STAGE = 4


def _global_flags(for_subcommand: bool = False) -> argparse.ArgumentParser:
    # Subcommand copies default to SUPPRESS so they only write into the
    # namespace when actually given, instead of clobbering a value the root
    # parser already read (flags are accepted on either side).
    default = argparse.SUPPRESS if for_subcommand else None
    flag_default = argparse.SUPPRESS if for_subcommand else False
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", metavar="PATH", default=default, help="YAML config file")
    parent.add_argument("--seed", type=int, metavar="S", default=default, help="override run.seed")
    parent.add_argument("--verbose", action="store_true", default=flag_default, help="INFO-level logging")
    return parent


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parent = _global_flags(for_subcommand=True)
    parser = argparse.ArgumentParser(
        prog="harmonizer",
        description="Consolidate variant company names in patent assignee records.",
        parents=[_global_flags()],
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_augment = sub.add_parser("augment", parents=[parent], help="fetch augmentation for every input name")
    p_augment.add_argument("--input", required=True, help="assignee TSV")
    p_augment.add_argument("--cache", required=True, help="augmentation cache JSONL (appended to)")
    p_augment.add_argument("--refresh", action="store_true", help="re-fetch names already cached")
    p_augment.add_argument("--threads", type=int, metavar="N", help="override run.threads")
    p_augment.add_argument("--offline", action="store_true", help="fetch nothing; only count what the cache covers")

    p_run = sub.add_parser("run", parents=[parent], help="run the full pipeline")
    p_run.add_argument("--input", required=True, help="assignee TSV")
    p_run.add_argument("--cache", required=True, help="augmentation cache JSONL")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--gold", help="optional gold TSV; writes eval.json")

    p_eval = sub.add_parser("evaluate", parents=[parent], help="compare a mapping to a gold standard")
    p_eval.add_argument("--pred", required=True, help="mapping TSV from a run")
    p_eval.add_argument("--gold", required=True, help="gold TSV")
    p_eval.add_argument("--out", help="write the JSON report here instead of stdout")

    p_tune = sub.add_parser("tune", parents=[parent], help="TPE search over score/filter parameters")
    p_tune.add_argument("--input", required=True, help="assignee TSV")
    p_tune.add_argument("--gold", required=True, help="gold TSV")
    p_tune.add_argument("--cache", required=True, help="augmentation cache JSONL")
    p_tune.add_argument("--trials", type=int, help="trial budget (default: tune.trials)")
    p_tune.add_argument("--out", help="append trials to this JSONL store")

    p_summarize = sub.add_parser("summarize", parents=[parent], help="reduction and largest communities of a mapping")
    p_summarize.add_argument("--mapping", required=True, help="mapping TSV from a run")
    p_summarize.add_argument("--input", help="assignee TSV for patent-count portfolios")
    p_summarize.add_argument("--top", type=_count, default=10, help="how many communities to list")

    return parser


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    run: dict = {}
    if args.seed is not None:
        run["seed"] = args.seed
    if getattr(args, "threads", None) is not None:
        run["threads"] = args.threads
    return PipelineConfig.load(args.config, overrides={"run": run})


def make_provider(config: PipelineConfig) -> HtmlSearchProvider:
    """The live provider built from ``augment.provider``, whose keys are its
    parameters."""
    return HtmlSearchProvider(**config["augment"]["provider"])


def _cmd_augment(args: argparse.Namespace, config: PipelineConfig) -> int:
    # The provider settings are checked before the input is read.
    provider = None if args.offline else make_provider(config)
    records = load_assignee_table(args.input)
    cache = AugmentationCache(args.cache)
    if provider is not None:
        threads = config["run"]["threads"]
        fetch_names([record.raw_name for record in records], provider, cache, threads, refresh=args.refresh)
    # All three counts are over distinct names so the line adds up.
    names = {record.raw_name for record in records}
    covered = sum(1 for name in names if name in cache)
    print(f"augment: {len(names)} names, {covered} cached, {len(names) - covered} un-augmented")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace, config: PipelineConfig) -> int:
    manifest = run_pipeline(
        config,
        input_path=args.input,
        cache_path=args.cache,
        out_dir=args.out,
        gold_path=args.gold,
    )
    counts = manifest.stage_counts
    print(
        f"run: {counts.get('records', 0)} records -> {counts.get('communities', 0)} communities "
        f"({counts.get('candidate_pairs', 0)} candidate pairs, {counts.get('edges', 0)} edges); "
        f"artifacts in {args.out}"
    )
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> int:
    rows = read_mapping(args.pred)
    gold = GoldPairs(load_gold_standard(args.gold), [row["record_id"] for row in rows])
    report = build_report(gold, [row["community_id"] for row in rows])
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        print(f"evaluate: wrote {args.out} (f1={report['f1']:.4f})")
    else:
        print(payload, end="")
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace, config: PipelineConfig) -> int:
    history = tune_pipeline(
        config,
        input_path=args.input,
        cache_path=args.cache,
        gold_path=args.gold,
        n_trials=args.trials,
        store_path=args.out,
    )
    best = history.best
    print(
        f"tune: {len(history.trials)} trials in {history.elapsed_s:.1f}s; "
        f"best f1={best.objective:.4f} at trial {best.trial_id}"
    )
    print(json.dumps(best.params, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_summarize(args: argparse.Namespace, config: PipelineConfig) -> int:
    rows = read_mapping(args.mapping)
    records = load_assignee_table(args.input) if args.input else ()
    summary = summarize_mapping(rows, records, top_k=args.top)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "augment": _cmd_augment,
    "run": _cmd_run,
    "evaluate": _cmd_evaluate,
    "tune": _cmd_tune,
    "summarize": _cmd_summarize,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _load_config(args)
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except HarmonizerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
