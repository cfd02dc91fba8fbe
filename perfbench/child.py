"""One measured call into the program, in a fresh interpreter.

    python3 perfbench/child.py MODE WORKDIR

WORKDIR holds ``spec.json``, written by ``run.py``. MODE is one of

* ``setup``: import ``harmonizer.cli`` and load the config, as every CLI call
  does;
* ``plain``: one workload run, timed from the first call into ``harmonizer``
  to the returned result, then its outputs checked;
* ``trace``: the same run with spans around every layer entry point;
* ``memory``: the same run under ``tracemalloc``, for per-layer allocation
  peaks (kept apart so it cannot distort span times);
* ``blocking``: candidate pairs of the workload's scaling draw, a corpus of
  another size from the same recipe and seed.

Times are scaled to a fixed host speed by ``probe.Probe``. The last line
of standard output is one JSON object. A run that raises or fails a check
reports ``error`` and exits with 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import traceback
import tracemalloc
from pathlib import Path

from probe import Probe
from spans import Tracer, install_alloc_peaks, install_spans

ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(Exception):
    pass


def _pair_count(sizes) -> int:
    return sum(n * (n - 1) // 2 for n in sizes)


def pairwise_f1(pred: dict[str, str], gold: dict[str, str]) -> float:
    """Pairwise F1 from cluster sizes, independent of the program's own
    evaluation code."""
    cells: dict[tuple[str, str], int] = {}
    for rid, cid in pred.items():
        key = (cid, gold[rid])
        cells[key] = cells.get(key, 0) + 1
    pred_sizes: dict[str, int] = {}
    gold_sizes: dict[str, int] = {}
    for (cid, eid), n in cells.items():
        pred_sizes[cid] = pred_sizes.get(cid, 0) + n
        gold_sizes[eid] = gold_sizes.get(eid, 0) + n
    tp = _pair_count(cells.values())
    pred_pairs = _pair_count(pred_sizes.values())
    gold_pairs = _pair_count(gold_sizes.values())
    precision = tp / pred_pairs if pred_pairs else 1.0
    recall = tp / gold_pairs if gold_pairs else 1.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _read_tsv(path: Path, header: list[str]) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != header:
        raise CheckFailed(f"{path.name}: bad header")
    return [line.split("\t") for line in lines[1:] if line]


def check_run(spec: dict, out: Path) -> dict:
    """Every input record mapped exactly once; F1 recomputed from the
    mapping, equal to eval.json's and at or above the floor."""
    record_ids = [row[0] for row in _read_tsv(Path(spec["records"]), ["record_id", "raw_name", "patent_count", "locations"])]
    gold = dict(_read_tsv(Path(spec["gold"]), ["record_id", "entity_id"]))
    rows = _read_tsv(out / "mapping.tsv", ["record_id", "raw_name", "community_id", "canonical_name"])
    mapped = [row[0] for row in rows]
    if len(mapped) != len(set(mapped)):
        raise CheckFailed("a record is mapped more than once")
    if set(mapped) != set(record_ids):
        raise CheckFailed(f"{len(set(record_ids) - set(mapped))} records unmapped, "
                          f"{len(set(mapped) - set(record_ids))} unknown records mapped")
    for row in rows:
        if len(row) != 4 or not row[2].isdigit():
            raise CheckFailed(f"bad mapping row {row!r}")
    f1 = pairwise_f1({row[0]: row[2] for row in rows}, gold)
    reported = json.loads((out / "eval.json").read_text(encoding="utf-8"))["f1"]
    if abs(f1 - reported) > 1e-9:
        raise CheckFailed(f"eval.json f1 {reported} != recomputed {f1}")
    if f1 < spec["f1_floor"]:
        raise CheckFailed(f"f1 {f1:.4f} below floor {spec['f1_floor']}")
    return {
        "f1": f1,
        "digest": hashlib.sha256((out / "mapping.tsv").read_bytes()).hexdigest(),
        "pairs_rows": len((out / "pairs.tsv").read_text(encoding="utf-8").splitlines()) - 1,
    }


def check_tune(spec: dict, history) -> dict:
    """Every trial ran without error; the best F1 is at or above the floor
    and never below the incumbent (trial 0). The digest covers the best
    trial, which is what ``harmonizer tune`` reports: single trials of a
    low-resolution, dense graph can change with ``PYTHONHASHSEED``, because
    networkx's Louvain iterates sets of string node ids."""
    trials = history.trials
    if len(trials) != spec["trials"]:
        raise CheckFailed(f"{len(trials)} trials, expected {spec['trials']}")
    failed = [t.trial_id for t in trials if t.error]
    if failed:
        raise CheckFailed(f"trials {failed} raised")
    f1 = history.best.objective
    if f1 < trials[0].objective:
        raise CheckFailed("best trial below the incumbent")
    if f1 < spec["f1_floor"]:
        raise CheckFailed(f"f1 {f1:.4f} below floor {spec['f1_floor']}")
    best = json.dumps([history.best.trial_id, history.best.params, f1], sort_keys=True)
    return {"f1": f1, "digest": hashlib.sha256(best.encode()).hexdigest(), "pairs_rows": 0}


def layer_metrics(tracer, top: str, pairs_rows: int, scale: float) -> dict[str, float]:
    """Per-layer times (scaled like wall_s), counts and shares of one traced
    run."""
    total, own, longest, calls = tracer.totals()
    counts = tracer.counts
    wall = total[top]
    candidates = counts.get("match.candidates", 0)
    match_s = sum(total.get(k, 0.0) for k in ("match.block", "match.score", "match.write"))
    graph_s = sum(total.get(k, 0.0) for k in ("graph.build", "graph.refine", "graph.naming"))
    metrics = {
        "ingest.load_s": total.get("ingest.load", 0.0),
        "augment.cache_load_s": total.get("augment.cache_load", 0.0),
        "augment.resolve_s": total.get("augment.resolve", 0.0),
        "augment.cache_hits": counts.get("augment.cache_hits", 0),
        "augment.cache_misses": counts.get("augment.cache_misses", 0),
        "augment.domain_s": total.get("augment.domain", 0.0),
        "parse.clean_s": total.get("parse.clean", 0.0),
        "parse.classify_s": total.get("parse.classify", 0.0),
        "parse.type2": counts.get("parse.type2", 0),
        "embed.idf_s": total.get("embed.idf", 0.0),
        "embed.corpus_s": total.get("embed.corpus", 0.0),
        "embed.degenerate": counts.get("embed.degenerate", 0),
        "match.block_s": total.get("match.block", 0.0),
        "match.score_s": total.get("match.score", 0.0),
        "match.write_s": total.get("match.write", 0.0),
        "match.candidates": candidates,
        "match.pairs_rows": pairs_rows,
        "match.edge_yield": counts.get("graph.edges", 0) / candidates if candidates else 0.0,
        "match.share": match_s / wall,
        "graph.build_s": total.get("graph.build", 0.0),
        "graph.edges": counts.get("graph.edges", 0),
        "graph.louvain_s": total.get("graph.louvain", 0.0),
        "graph.louvain_calls": calls.get("graph.louvain", 0),
        "graph.bridgeness_s": total.get("graph.bridgeness", 0.0),
        "graph.bridgeness_calls": calls.get("graph.bridgeness", 0),
        "graph.bridgeness_max_nodes": counts.get("graph.bridgeness_max_nodes", 0),
        "graph.refine_self_s": own.get("graph.refine", 0.0),
        "graph.pruned_edges": counts.get("graph.pruned_edges", 0),
        "graph.communities_split": counts.get("graph.communities_split", 0),
        "graph.largest_community": counts.get("graph.largest_community", 0),
        "graph.naming_s": total.get("graph.naming", 0.0),
        "graph.share": graph_s / wall,
        "tune.trials": calls.get("tune.objective", 0),
        "tune.objective_s": total.get("tune.objective", 0.0),
        "tune.objective_max_s": longest.get("tune.objective", 0.0),
        "tune.rescore_s": own.get("tune.objective", 0.0),
        "tune.suggest_s": total.get("tune.suggest", 0.0),
        "evaluation.report_s": total.get("evaluation.report", 0.0),
        "pipeline.prepare_s": total.get("pipeline.prepare", 0.0),
        "pipeline.self_s": own[top],
    }
    return {key: value * scale if key.endswith("_s") else value for key, value in metrics.items()}


def run_workload(mode: str, spec: dict, work: Path) -> dict:
    import harmonizer.pipeline as pipeline
    from harmonizer.config import PipelineConfig

    tracer = Tracer()
    peaks: dict[str, float] = {}
    if mode == "trace":
        install_spans(tracer)
    elif mode == "memory":
        install_alloc_peaks(peaks)
        tracemalloc.start()
    out = work / f"out-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        with Probe() as probe:
            config = PipelineConfig.load(spec["config"])
            if spec["kind"] == "run":
                pipeline.run_pipeline(config, spec["records"], spec["cache"], out, gold_path=spec["gold"], offline=True)
            else:
                history = pipeline.tune_pipeline(config, spec["records"], spec["cache"], spec["gold"], n_trials=spec["trials"])
        tracemalloc.stop()
        result = check_run(spec, out) if spec["kind"] == "run" else check_tune(spec, history)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result["wall_s"] = probe.scaled_s
    result["raw_wall_s"] = probe.wall_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "trace":
        top = "pipeline.run" if spec["kind"] == "run" else "pipeline.tune"
        result["layers"] = layer_metrics(tracer, top, result["pairs_rows"], probe.scale)
        tracer.dump(work / "spans.json")
    if mode == "memory":
        result["layers"] = {f"{layer}.peak_alloc_mb": peaks.get(layer, 0.0) for layer in ("match", "graph")}
    return result


def main() -> int:
    mode, work = sys.argv[1], Path(sys.argv[2])
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if mode == "setup":
            with Probe() as probe:
                import harmonizer.cli  # noqa: F401
                from harmonizer.config import PipelineConfig

                PipelineConfig.load(spec["config"])
            result = {"setup_s": probe.scaled_s, "raw_setup_s": probe.wall_s}
        elif mode == "blocking":
            from harmonizer.augment import AugmentationCache
            from harmonizer.config import PipelineConfig
            from harmonizer.ingest import load_assignee_table
            from harmonizer.pipeline import prepare_corpus

            other = spec["scaling"]
            artifacts = prepare_corpus(
                PipelineConfig.load(spec["config"]),
                load_assignee_table(other["records"]),
                AugmentationCache(other["cache"]),
            )
            result = {"candidates": len(artifacts.candidates)}
        else:
            result = run_workload(mode, spec, work)
    except Exception as exc:
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
