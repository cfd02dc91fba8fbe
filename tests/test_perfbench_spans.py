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
manifest = pipeline.run_pipeline(
    config, paths["input"], paths["cache"], Path("out"), gold_path=paths["gold"], offline=True
)
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
