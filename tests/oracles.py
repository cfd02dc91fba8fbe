"""Independent brute-force oracles the fast implementations are tested against.

Everything here favors obviousness over speed: direct formula transcription,
explicit path enumeration, O(n^2) pair loops. None of it imports from the
package's internals beyond plain data types.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import networkx as nx


def brute_idf(token_lists, floor=0.01):
    """Direct ln(N/n_i) followed by an affine rescale onto (floor, 1]."""
    n_names = len(token_lists)
    presence = Counter()
    for tokens in token_lists:
        presence.update(set(tokens))
    raw = {t: math.log(n_names / c) for t, c in presence.items()}
    lo, hi = min(raw.values()), max(raw.values())
    if hi == lo:
        return {t: 1.0 for t in raw}
    out = {}
    for t, r in raw.items():
        if r == hi:
            out[t] = 1.0
        elif r == lo:
            out[t] = floor
        else:
            out[t] = floor + (1.0 - floor) * (r - lo) / (hi - lo)
    return out


def brute_bridgeness(graph: nx.Graph) -> dict:
    """Bridgeness by explicit enumeration of every shortest path."""
    acc = {v: 0.0 for v in graph.nodes()}
    closed = {v: set(graph.neighbors(v)) | {v} for v in graph.nodes()}
    nodes = sorted(graph.nodes())
    for s, t in itertools.combinations(nodes, 2):
        try:
            if nx.shortest_path_length(graph, s, t) < 2:
                continue
        except nx.NetworkXNoPath:
            continue
        paths = list(nx.all_shortest_paths(graph, s, t))
        sigma = len(paths)
        through = Counter()
        for path in paths:
            for v in path[1:-1]:
                through[v] += 1
        for v, count in through.items():
            if s not in closed[v] and t not in closed[v]:
                acc[v] += count / sigma
    return acc


def exact_bridgeness(graph: nx.Graph) -> dict:
    """Bridgeness as exact Fractions, by explicit enumeration of every
    shortest path: no rounding, so a value equal to a threshold is equal."""
    acc = {v: Fraction(0) for v in graph.nodes()}
    closed = {v: set(graph.neighbors(v)) | {v} for v in graph.nodes()}
    for s, t in itertools.combinations(sorted(graph.nodes()), 2):
        if not nx.has_path(graph, s, t) or nx.shortest_path_length(graph, s, t) < 2:
            continue
        paths = list(nx.all_shortest_paths(graph, s, t))
        for path in paths:
            for v in path[1:-1]:
                if s not in closed[v] and t not in closed[v]:
                    acc[v] += Fraction(1, len(paths))
    return acc


def brute_pairwise_confusion(predicted: dict, gold: dict):
    """O(n^2) loop over record pairs; returns (tp, fp, fn)."""
    ids = sorted(gold)
    tp = fp = fn = 0
    for a, b in itertools.combinations(ids, 2):
        same_gold = gold[a] == gold[b]
        pa, pb = predicted.get(a, ("m", a)), predicted.get(b, ("m", b))
        same_pred = pa == pb
        if same_pred and same_gold:
            tp += 1
        elif same_pred and not same_gold:
            fp += 1
        elif same_gold and not same_pred:
            fn += 1
    return tp, fp, fn


def brute_f1(tp, fp, fn):
    if tp + fp == 0:
        precision = 1.0 if fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def _graph_key(g: nx.Graph):
    degs = tuple(sorted(d for _, d in g.degree()))
    tri = tuple(sorted(nx.triangles(g).values()))
    return (g.number_of_edges(), degs, tri)


def connected_graphs(max_n: int) -> dict:
    """All connected graphs up to isomorphism, keyed by node count.

    Level-wise construction: every connected graph on n nodes arises from one
    on n-1 nodes by attaching a new vertex to a nonempty subset (delete any
    non-cut vertex to see this). Deduplication buckets by cheap invariants and
    confirms with exact isomorphism, so the counts are exact.
    """
    g1 = nx.Graph()
    g1.add_node(0)
    levels = {1: [g1]}
    for n in range(2, max_n + 1):
        buckets = {}
        out = []
        for parent in levels[n - 1]:
            nodes = list(parent.nodes())
            for r in range(1, len(nodes) + 1):
                for subset in itertools.combinations(nodes, r):
                    g = parent.copy()
                    g.add_node(n - 1)
                    g.add_edges_from((n - 1, u) for u in subset)
                    bucket = buckets.setdefault(_graph_key(g), [])
                    if not any(nx.is_isomorphic(g, h) for h in bucket):
                        bucket.append(g)
                        out.append(g)
        levels[n] = out
    return levels


# Known counts of connected graphs up to isomorphism, n = 1..8.
CONNECTED_GRAPH_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]
