"""Graph filtering: build the similarity graph from scored pairs, partition it
with seeded Louvain, then split chained-together communities by deleting edges
at high-bridgeness nodes and re-partitioning inside each community.

Bridgeness of a node v counts, over unordered pairs (s, t) where neither
endpoint is v or adjacent to v, the fraction of shortest s-t paths through v
on the unweighted skeleton. Joint-venture style names sit between two dense
clusters and light up under exactly this measure.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import networkx as nx

from .embed import NameEmbedding, cosine_similarity
from .errors import ConfigError
from .ingest import AssigneeRecord
from .match import ScoredPair

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FilterParams:
    threshold: float = 3.9
    resolution: float = 1.0
    bridgeness_threshold: float = 1.0
    location_boost: float = 1.0
    seed: int = 0
    refine_passes: int = 1

    def __post_init__(self):
        if self.resolution <= 0:
            raise ConfigError(f"graph.resolution must be > 0, got {self.resolution}")
        if self.location_boost < 0:
            raise ConfigError(f"graph.location_boost must be >= 0, got {self.location_boost}")
        if self.refine_passes < 0:
            raise ConfigError(f"graph.refine_passes must be >= 0, got {self.refine_passes}")


@dataclass
class Partition:
    """record_id -> dense community id, plus optional canonical names."""

    assignments: dict[str, int]
    canonical: dict[int, str] = field(default_factory=dict)

    @property
    def n_communities(self) -> int:
        return len(set(self.assignments.values()))

    def communities(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for record_id in sorted(self.assignments):
            out.setdefault(self.assignments[record_id], []).append(record_id)
        return dict(sorted(out.items()))


def _shared_locations(a: AssigneeRecord, b: AssigneeRecord) -> bool:
    # "||" carries no information and never matches anything, itself included.
    common = a.locations & b.locations
    return any(key != "||" for key in common)


def build_graph(
    pairs: Sequence[ScoredPair],
    records: Mapping[str, AssigneeRecord],
    params: FilterParams,
) -> nx.Graph:
    """Similarity graph: every record is a node; an edge exists iff the pair
    score clears the threshold, and shared non-empty locations add the boost
    on top of the score (membership is decided before the boost)."""
    graph = nx.Graph()
    graph.add_nodes_from(sorted(records))
    for pair in sorted(pairs, key=lambda p: (p.id_a, p.id_b)):
        if pair.score < params.threshold:
            continue
        weight = pair.score
        rec_a, rec_b = records.get(pair.id_a), records.get(pair.id_b)
        if rec_a is not None and rec_b is not None and _shared_locations(rec_a, rec_b):
            weight += params.location_boost
        graph.add_edge(pair.id_a, pair.id_b, weight=weight)
    return graph


def louvain(graph: nx.Graph, resolution: float = 1.0, seed: int = 0) -> Partition:
    """Seeded Louvain partition with dense community ids.

    Communities are numbered by their smallest member so the mapping is stable
    across runs; isolated nodes come out as singletons. Louvain's result
    depends on node and edge order, and a subgraph view iterates a set of its
    nodes (an order that follows the string hash seed), so a graph not in
    sorted node and neighbour order is rebuilt in that order first. A graph
    already in it, as ``build_graph`` makes it, is used as is: rebuilding it
    would give the same order and cost a copy of the largest graph.
    """
    if graph.number_of_nodes() == 0:
        return Partition(assignments={})
    nodes = sorted(graph.nodes)
    if list(graph.adj) != nodes or any(list(nbrs) != sorted(nbrs) for nbrs in graph.adj.values()):
        rebuilt = nx.Graph()
        rebuilt.add_nodes_from(nodes)
        rebuilt.add_weighted_edges_from(
            sorted((min(u, v), max(u, v), w) for u, v, w in graph.edges(data="weight", default=1))
        )
        graph = rebuilt
    communities = nx.community.louvain_communities(
        graph, weight="weight", resolution=resolution, seed=seed
    )
    ordered = sorted((sorted(c) for c in communities), key=lambda c: c[0])
    assignments: dict[str, int] = {}
    for cid, members in enumerate(ordered):
        for node in members:
            assignments[node] = cid
    return Partition(assignments=assignments)


def bridgeness_centrality(graph: nx.Graph) -> dict:
    """Exact bridgeness on the unweighted skeleton.

    Per source, a BFS yields distances and shortest-path counts (the counting
    half of the usual betweenness recipe); pair contributions are then
    accumulated with the closed-neighborhood exclusion applied per node.
    """
    nodes = sorted(graph.nodes)
    bridgeness = {v: 0.0 for v in nodes}
    if len(nodes) < 3:
        return bridgeness
    dist: dict = {}
    sigma: dict = {}
    for source in nodes:
        d = {source: 0}
        s = {source: 1}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in graph[u]:
                if w not in d:
                    d[w] = d[u] + 1
                    s[w] = s[u]
                    queue.append(w)
                elif d[w] == d[u] + 1:
                    s[w] += s[u]
        dist[source] = d
        sigma[source] = s
    neighborhoods = {v: set(graph[v]) | {v} for v in nodes}
    for i, s_node in enumerate(nodes):
        d_s, sig_s = dist[s_node], sigma[s_node]
        for t_node in nodes[i + 1 :]:
            if t_node not in d_s:
                continue
            d_st = d_s[t_node]
            if d_st < 2:
                # Adjacent endpoints admit no interior node at all.
                continue
            d_t, sig_t = dist[t_node], sigma[t_node]
            total = sig_s[t_node]
            for v in d_s:
                if v == s_node or v == t_node:
                    continue
                if d_s[v] + d_t.get(v, -1) != d_st:
                    continue
                hood = neighborhoods[v]
                if s_node in hood or t_node in hood:
                    continue
                bridgeness[v] += sig_s[v] * sig_t[v] / total
    return bridgeness


def prune_global_bridges(graph: nx.Graph, beta: float) -> nx.Graph:
    """Copy of ``graph`` without the edges that touch a node whose bridgeness
    exceeds ``beta``."""
    bridgeness = bridgeness_centrality(graph)
    flagged = {v for v, value in bridgeness.items() if value > beta}
    pruned = graph.copy()
    if flagged:
        pruned.remove_edges_from([(u, v) for u, v in pruned.edges if u in flagged or v in flagged])
    return pruned


def refine_communities(graph: nx.Graph, params: FilterParams) -> Partition:
    """Louvain, then per-community prune-and-repartition.

    Each pass takes every current community, prunes bridge edges inside its
    induced subgraph, and re-runs Louvain there. A community whose subgraph
    loses no edge is confirmed and kept intact: re-partitioning it anyway
    would let Louvain split dense communities that merely look uneven in
    isolation. Communities only ever split, so the result refines the
    first-pass partition. ``refine_passes`` sweeps, one by default.
    """
    partition = louvain(graph, resolution=params.resolution, seed=params.seed)
    for _ in range(params.refine_passes):
        assignments: dict[str, int] = {}
        next_cid = 0
        for members in partition.communities().values():
            parts = [members]
            if len(members) > 2:
                sub = graph.subgraph(members)
                pruned = prune_global_bridges(sub, params.bridgeness_threshold)
                if pruned.number_of_edges() < sub.number_of_edges():
                    sub_partition = louvain(pruned, resolution=params.resolution, seed=params.seed)
                    parts = sub_partition.communities().values()
            for part in parts:
                for node in part:
                    assignments[node] = next_cid
                next_cid += 1
        partition = Partition(assignments=assignments)
    return _with_dense_ids(partition)


def _with_dense_ids(partition: Partition) -> Partition:
    """Renumber communities by smallest member for stable output."""
    groups = sorted((min(m), cid) for cid, m in partition.communities().items())
    remap = {old: new for new, (_, old) in enumerate(groups)}
    return Partition(assignments={rid: remap[cid] for rid, cid in partition.assignments.items()})


def name_community_centroid(
    members: Sequence[str],
    embeddings: Mapping[str, NameEmbedding],
    cleaned_by_id: Mapping[str, str],
    raw_by_id: Mapping[str, str],
) -> str:
    """Raw name of the member with the greatest mean cosine to the others.

    Ties break on the lexicographically smallest cleaned name. Degenerate
    embeddings can neither win nor vote; a community with no usable embedding
    raises ValueError so the caller can fall back to the volume strategy.
    """
    usable = [m for m in sorted(members) if not embeddings[m].degenerate]
    if not usable:
        raise ValueError("all members have degenerate embeddings")
    if len(usable) == 1:
        return raw_by_id[usable[0]]
    best_key = None
    best_member = None
    for candidate in usable:
        total = 0.0
        for other in usable:
            if other != candidate:
                total += cosine_similarity(embeddings[candidate].vector, embeddings[other].vector)
        mean = total / (len(usable) - 1)
        key = (-mean, cleaned_by_id[candidate], candidate)
        if best_key is None or key < best_key:
            best_key = key
            best_member = candidate
    return raw_by_id[best_member]


def name_community_volume(
    members: Sequence[str],
    records: Mapping[str, AssigneeRecord],
    cleaned_by_id: Mapping[str, str],
) -> str:
    """Raw name of the member with the largest patent count (ties: smallest
    cleaned name). All-zero counts degrade to the lexicographic choice."""
    best_key = None
    best_member = None
    for candidate in sorted(members):
        key = (-records[candidate].patent_count, cleaned_by_id[candidate], candidate)
        if best_key is None or key < best_key:
            best_key = key
            best_member = candidate
    return records[best_member].raw_name


def assign_canonical_names(
    partition: Partition,
    records: Mapping[str, AssigneeRecord],
    cleaned_by_id: Mapping[str, str],
    embeddings: Mapping[str, NameEmbedding],
) -> Partition:
    """Fill ``partition.canonical`` for every community: the centroid name,
    or the volume name when no member has a usable embedding."""
    raw_by_id = {rid: records[rid].raw_name for rid in partition.assignments}
    canonical: dict[int, str] = {}
    for cid, members in partition.communities().items():
        try:
            canonical[cid] = name_community_centroid(members, embeddings, cleaned_by_id, raw_by_id)
        except ValueError:
            log.debug("community %d has no usable embedding; falling back to volume", cid)
            canonical[cid] = name_community_volume(members, records, cleaned_by_id)
    return replace(partition, canonical=canonical)
