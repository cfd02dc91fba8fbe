"""Spans and allocation peaks recorded from outside the program.

Each entry point is wrapped where its caller looks it up: the pipeline calls
``score_pairs`` through ``harmonizer.pipeline``'s namespace, refinement calls
``louvain`` through ``harmonizer.graph``'s, so those attributes are replaced.
Nothing under ``src/`` changes. Spans hold a name, start, end and parent id,
stay in memory, and are written once the run ends.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Optional


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def most(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def first(self, key: str, value: float) -> None:
        self.counts.setdefault(key, value)

    def parent_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap_callable(self, fn: Callable, name: Optional[str], after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span called ``name`` (none when ``name`` is
        None); ``after(args, kwargs, result)`` runs once the span has ended."""

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap(self, owner: Any, attr: str, name: Optional[str], after: Optional[Callable] = None) -> None:
        setattr(owner, attr, self.wrap_callable(getattr(owner, attr), name, after))

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration, summed self time, longest single
        duration, and call count. Self time is a span minus its children;
        spans nest strictly, so children never overlap."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        longest: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child_time[i]
            longest[name] = max(longest.get(name, 0.0), end - start)
            calls[name] = calls.get(name, 0) + 1
        return total, own, longest, calls

    def dump(self, path: Path) -> None:
        rows = [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}) + "\n", encoding="utf-8")


def install_spans(tracer: Tracer) -> None:
    """Wrap every layer entry point the pipeline and tuner call."""
    import harmonizer.graph as graph
    import harmonizer.pipeline as pipeline
    import harmonizer.tune as tune

    def after_resolve(args, kwargs, results):
        hits = sum(1 for r in results.values() if r is not None)
        tracer.count("augment.cache_hits", hits)
        tracer.count("augment.cache_misses", len(results) - hits)

    def after_classify(args, kwargs, name_class):
        tracer.count("parse.type2", int(name_class.name == "TYPE2"))

    def after_embed(args, kwargs, embeddings):
        tracer.count("embed.degenerate", sum(1 for e in embeddings.values() if e.degenerate))

    def after_block(args, kwargs, candidates):
        tracer.count("match.candidates", len(candidates))

    def after_build(args, kwargs, g):
        tracer.first("graph.edges", g.number_of_edges())

    def after_bridgeness(args, kwargs, values):
        tracer.most("graph.bridgeness_max_nodes", len(values))

    def after_prune(args, kwargs, pruned):
        tracer.count("graph.pruned_edges", args[0].number_of_edges() - pruned.number_of_edges())

    # The first Louvain call inside a refinement is its initial partition;
    # refinement only ever splits those communities.
    initial: list[dict] = []

    def after_louvain(args, kwargs, partition):
        if tracer.parent_name() == "graph.refine" and not initial:
            initial.append(partition.assignments)

    def after_refine(args, kwargs, partition):
        groups = partition.communities()
        tracer.most("graph.largest_community", max((len(m) for m in groups.values()), default=0))
        parts: dict[int, set[int]] = {}
        for rid, cid in initial.pop().items():
            parts.setdefault(cid, set()).add(partition.assignments[rid])
        tracer.count("graph.communities_split", sum(1 for finals in parts.values() if len(finals) > 1))

    tracer.wrap(pipeline, "run_pipeline", "pipeline.run")
    tracer.wrap(pipeline, "tune_pipeline", "pipeline.tune")
    tracer.wrap(pipeline, "load_assignee_table", "ingest.load")
    tracer.wrap(pipeline, "load_gold_standard", "ingest.load")
    tracer.wrap(pipeline, "AugmentationCache", "augment.cache_load")
    tracer.wrap(pipeline, "prepare_corpus", "pipeline.prepare")
    tracer.wrap(pipeline, "_augment_stage", "augment.resolve", after_resolve)
    tracer.wrap(pipeline, "clean_name", "parse.clean")
    tracer.wrap(pipeline, "build_common_word_list", "parse.classify")
    tracer.wrap(pipeline, "classify_name_type", "parse.classify", after_classify)
    tracer.wrap(pipeline, "build_frequent_domain_blocklist", "augment.domain")
    tracer.wrap(pipeline, "build_domain_info", "augment.domain")
    tracer.wrap(pipeline, "compute_idf", "embed.idf")
    tracer.wrap(pipeline, "embed_corpus", "embed.corpus", after_embed)
    tracer.wrap(pipeline, "generate_candidate_pairs", "match.block", after_block)
    tracer.wrap(pipeline, "score_pairs", "match.score")
    tracer.wrap(pipeline, "write_scored_pairs", "match.write")
    tracer.wrap(pipeline, "build_graph", "graph.build", after_build)
    tracer.wrap(pipeline, "refine_communities", "graph.refine", after_refine)
    tracer.wrap(graph, "louvain", "graph.louvain", after_louvain)
    tracer.wrap(graph, "prune_global_bridges", None, after_prune)
    tracer.wrap(graph, "bridgeness_centrality", "graph.bridgeness", after_bridgeness)
    tracer.wrap(pipeline, "assign_canonical_names", "graph.naming")
    tracer.wrap(pipeline, "build_report", "evaluation.report")
    tracer.wrap(tune, "suggest", "tune.suggest")

    factory = pipeline.build_tuning_objective

    def build_objective(*args, **kwargs):
        return tracer.wrap_callable(factory(*args, **kwargs), "tune.objective")

    pipeline.build_tuning_objective = build_objective


MATCH_CALLS = ("generate_candidate_pairs", "score_pairs", "write_scored_pairs")
GRAPH_CALLS = ("build_graph", "refine_communities", "assign_canonical_names")


def install_alloc_peaks(peaks: dict[str, float]) -> None:
    """Record, per layer, the largest rise of traced Python memory above its
    level at entry, over that layer's calls. Needs ``tracemalloc`` running;
    the tracked calls never nest in one another."""
    import harmonizer.pipeline as pipeline

    def tracked(fn: Callable, layer: str) -> Callable:
        def call(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                rise = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                peaks[layer] = max(peaks.get(layer, 0.0), rise)

        return call

    for layer, names in (("match", MATCH_CALLS), ("graph", GRAPH_CALLS)):
        for attr in names:
            setattr(pipeline, attr, tracked(getattr(pipeline, attr), layer))
