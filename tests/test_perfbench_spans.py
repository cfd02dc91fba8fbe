"""perfbench's tracer still finds every entry point it wraps.

``perfbench/spans.py`` replaces package functions by name where their callers
look them up, so a renamed function or a changed return type would break
trace runs without failing anything else. The tracer runs in a subprocess,
since it patches the package's modules for good.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import harmonizer

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from spans import GRAPH_CALLS, MATCH_CALLS, Tracer, install_spans

tracer = Tracer()
install_spans(tracer)
import harmonizer.pipeline as pipeline
from harmonizer.config import PipelineConfig

paths = json.loads(sys.argv[2])
config = PipelineConfig.load(paths["config"])
manifest = pipeline.run_pipeline(config, paths["input"], paths["cache"], Path("out"), gold_path=paths["gold"])
run = {"spans": sorted({span[0] for span in tracer.spans}), "counts": dict(tracer.counts)}
history = pipeline.tune_pipeline(config, paths["input"], paths["cache"], paths["gold"], n_trials=2)
print(json.dumps({
    "run": run,
    "spans": sorted({span[0] for span in tracer.spans}),
    "candidate_pairs": manifest.stage_counts["candidate_pairs"],
    "trials": len(history.trials),
    "alloc_calls_missing": [name for name in MATCH_CALLS + GRAPH_CALLS if not hasattr(pipeline, name)],
}))
"""

RUN_SPANS = [
    "augment.cache_load", "augment.domain", "augment.resolve", "embed.corpus", "embed.idf",
    "evaluation.report", "graph.build", "graph.louvain", "graph.naming", "graph.refine", "ingest.load",
    "match.block", "match.score", "match.write", "parse.classify", "parse.clean", "pipeline.prepare",
    "pipeline.run",
]


def test_install_spans_traces_run_and_tune(corpus60_paths, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(harmonizer.__file__).resolve().parent.parent))
    paths = json.dumps({key: str(path) for key, path in corpus60_paths.items()})
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), paths],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["run"]["spans"] == RUN_SPANS
    assert out["run"]["counts"]["match.candidates"] == out["candidate_pairs"] > 0
    assert out["run"]["counts"]["graph.edges"] > 0
    assert sorted(set(out["spans"]) - set(RUN_SPANS)) == ["pipeline.tune", "tune.objective", "tune.suggest"]
    assert out["trials"] == 2
    assert out["alloc_calls_missing"] == []


HUB_SCRIPT = """
import hashlib, json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import corpus
from spans import Tracer, install_spans

tracer = Tracer()
install_spans(tracer)
import harmonizer.pipeline as pipeline
from harmonizer.config import PipelineConfig

rows = corpus.hub_rows(1, n_big=7, n_pairs=2, n_singletons=48)
draw = corpus.write_corpus(rows, corpus.HUB_CONFIG, Path("in"), 1)
config = PipelineConfig.load(draw.config, environ={})
manifest = pipeline.run_pipeline(config, draw.records, draw.cache, Path("out"), gold_path=draw.gold)
print(json.dumps({
    "n_records": draw.n_records,
    "inputs": draw.sha256,
    "filter": manifest.filter,
    "counts": tracer.counts,
    "outputs": {name: hashlib.sha256((Path("out") / name).read_bytes()).hexdigest()
                for name in ("mapping.tsv", "summary.json")},
}))
"""


def test_hub_draw_prunes_and_splits(tmp_path):
    """The committed corpora never prune or split, so this draw pins the
    refine, prune and bridgeness path: the manifest's filter counts, the
    traced ones, and the mapping and summary bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(harmonizer.__file__).resolve().parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", HUB_SCRIPT, str(ROOT / "perfbench")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["n_records"] == 285
    assert {key: out["inputs"][key] for key in ("records", "cache", "gold")} == {
        "records": "ca47ee4bed56044ba5987cadd44af37fd5418b57a11b90d3f25251effb29b6cd",
        "cache": "001329370c4a9c82bc83109c061bae8089a3926bb5d8c5aa7d6732788403f3b5",
        "gold": "b64f8a3a3946953b453047a277d76f257f2ab12ba0109cb0c2780ccebc9d5db0",
    }
    largest = max(int(size) for size in out["filter"]["community_sizes"])
    assert (out["filter"]["pruned_edges"], out["filter"]["communities_split"], largest) == (14, 2, 38)
    traced = [out["counts"][f"graph.{key}"] for key in ("pruned_edges", "communities_split", "largest_community")]
    assert traced == [14, 2, 38]
    assert out["outputs"] == {
        "mapping.tsv": "b90b4026f952e0624bc52fd084739d65ce8ba73abf6bdb3e677be00bd87e8955",
        "summary.json": "b412ef13ff3ac1ae2d69d901c77f53616a02708cc8347b4a4ab873934e71191b",
    }
