"""Graph filtering: build the similarity graph from scored pairs, partition it
with seeded Louvain, then split chained-together communities by deleting edges
at high-bridgeness nodes and re-partitioning inside each community.

Bridgeness of a node v counts, over unordered pairs (s, t) where neither
endpoint is v or adjacent to v, the fraction of shortest s-t paths through v
on the unweighted skeleton. Joint-venture style names sit between two dense
clusters and light up under exactly this measure. It is computed in O(n·m)
per community with Brandes' dependency accumulation, and a node is flagged
only when its bridgeness clears the threshold by a relative 1e-9, so a value
equal to the threshold is never flagged whatever the rounding. Pruning skips
the computation where its outcome is known: a threshold below 0 flags every
node, and a community of at most 4 nodes or a clique has no nonzero value.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import networkx as nx
import numpy as np

from .embed import NameEmbedding, pair_cosines
from .errors import ConfigError
from .ingest import AssigneeRecord
from .match import PairTable

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
    table: PairTable,
    scores: np.ndarray,
    records: Mapping[str, AssigneeRecord],
    params: FilterParams,
) -> nx.Graph:
    """Similarity graph: every record is a node; an edge exists iff the pair
    score clears the threshold, and shared non-empty locations add the boost
    on top of the score (membership is decided before the boost). Edges are
    added in table order, which is sorted by (id_a, id_b)."""
    graph = nx.Graph()
    graph.add_nodes_from(sorted(records))
    rows = np.flatnonzero(scores >= params.threshold)
    for i, j, weight in zip(table.a[rows].tolist(), table.b[rows].tolist(), scores[rows].tolist()):
        id_a, id_b = table.ids[i], table.ids[j]
        rec_a, rec_b = records.get(id_a), records.get(id_b)
        if rec_a is not None and rec_b is not None and _shared_locations(rec_a, rec_b):
            weight += params.location_boost
        graph.add_edge(id_a, id_b, weight=weight)
    return graph


def _sorted_graph(nodes, weighted_edges) -> nx.Graph:
    """Graph of ``nodes`` in sorted order and the ``(u, v, weight)`` edges as
    sorted ``(min, max, weight)`` triples. A node's smaller neighbours then
    come first and its larger ones after, each in sorted order: every
    neighbour list is sorted, the order ``louvain`` needs."""
    graph = nx.Graph()
    graph.add_nodes_from(sorted(nodes))
    graph.add_weighted_edges_from(sorted((min(u, v), max(u, v), w) for u, v, w in weighted_edges))
    return graph


def louvain(graph: nx.Graph, resolution: float = 1.0, seed: int = 0) -> Partition:
    """Seeded Louvain partition with dense community ids.

    Communities are numbered by their smallest member so the mapping is stable
    across runs; isolated nodes come out as singletons. Louvain's result
    depends on node and edge order, and a subgraph view iterates a set of its
    nodes (an order that follows the string hash seed), so a graph not in
    sorted node and neighbour order is rebuilt in that order first. A graph
    already in it, as ``build_graph`` and ``prune_global_bridges`` make it, is
    used as is: rebuilding it would give the same order and cost a copy.
    """
    if graph.number_of_nodes() == 0:
        return Partition(assignments={})
    nodes = sorted(graph.nodes)
    if list(graph.adj) != nodes or any(list(nbrs) != sorted(nbrs) for nbrs in graph.adj.values()):
        graph = _sorted_graph(nodes, graph.edges(data="weight", default=1))
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
    """Exact bridgeness on the unweighted skeleton, in O(n·m).

    Brandes' recipe on integer adjacency lists: per source s, a BFS counts
    shortest paths σ exactly, then the BFS order is walked backwards to
    accumulate the dependency δ(v) = Σ σ_v/σ_w · (1 + δ(w)) over the
    successors w of v. Every target counted in δ(w) lies two or more levels
    below v, so none is in N[v]: a node at distance >= 2 from s gains
    σ_v/σ_w · δ(w) from each successor, which is its bridgeness from s with
    nothing to subtract. Each unordered pair is counted from both ends, so
    the sums are halved.
    """
    nodes = sorted(graph.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adjacency = [sorted(index[w] for w in graph[v]) for v in nodes]
    n = len(nodes)
    totals = [0.0] * n
    for source in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[source] = 0
        sigma[source] = 1
        order = [source]
        for u in order:
            below = dist[u] + 1
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = below
                    order.append(w)
                if dist[w] == below:
                    sigma[w] += sigma[u]
        delta = [0.0] * n
        # Nodes within distance 1 of the source gain nothing, and only they
        # would read the dependencies of the nodes at distance 2.
        for v in reversed(order):
            if dist[v] < 2:
                break
            below = dist[v] + 1
            dependency = bridge = 0.0
            for w in adjacency[v]:
                if dist[w] == below:
                    ratio = sigma[v] / sigma[w]
                    dependency += ratio * (1.0 + delta[w])
                    bridge += ratio * delta[w]
            delta[v] = dependency
            totals[v] += bridge
    return {v: total / 2 for v, total in zip(nodes, totals)}


# Bridgeness sums rounded floats, so a node whose exact value equals β can
# come out a few ulps above it; a node is flagged only when it clears β by
# this relative margin.
_BETA_MARGIN = 1e-9


def prune_global_bridges(graph: nx.Graph, beta: float, stats: Optional[dict] = None) -> nx.Graph:
    """``graph`` without the edges that touch a node whose bridgeness exceeds
    ``beta``; a value equal to ``beta`` is never flagged. When no node is
    flagged the result is ``graph`` itself, not a copy, so a caller must not
    mutate it. Otherwise it is a new graph in sorted node and edge order,
    which ``louvain`` uses as it is. ``stats``, when given, has its
    ``flagged_nodes`` and ``pruned_edges`` counts raised.

    Two cases are settled without computing bridgeness. It is never negative,
    so a cutoff below 0 flags every node. And a node interior to a shortest
    s-t path with s and t outside its closed neighbourhood has d(s, t) >= 4,
    so on a graph of at most 4 nodes, or a clique, every node's bridgeness is
    exactly 0 and a cutoff of 0 or more flags none. A β just below 0 (above
    -1e-9) has a cutoff above 0, so it flags no node of bridgeness 0.
    """
    cutoff = beta + _BETA_MARGIN * max(1.0, abs(beta))
    n = graph.number_of_nodes()
    if cutoff < 0:
        flagged = set(graph.nodes)
    elif n <= 4 or 2 * graph.number_of_edges() == n * (n - 1):
        flagged = set()
    else:
        flagged = {v for v, value in bridgeness_centrality(graph).items() if value > cutoff}
    pruned, removed = graph, 0
    if flagged:
        edges = list(graph.edges(data="weight", default=1))
        kept = [(u, v, w) for u, v, w in edges if u not in flagged and v not in flagged]
        pruned, removed = _sorted_graph(graph.nodes, kept), len(edges) - len(kept)
    if stats is not None:
        stats["flagged_nodes"] = stats.get("flagged_nodes", 0) + len(flagged)
        stats["pruned_edges"] = stats.get("pruned_edges", 0) + removed
    return pruned


def refine_communities(graph: nx.Graph, params: FilterParams, stats: Optional[dict] = None) -> Partition:
    """Louvain, then per-community prune-and-repartition.

    Each pass takes every current community, prunes bridge edges inside its
    induced subgraph, and re-runs Louvain there. A community whose subgraph
    loses no edge is confirmed and kept intact: re-partitioning it anyway
    would let Louvain split dense communities that merely look uneven in
    isolation. Communities only ever split, so the result refines the
    first-pass partition. ``refine_passes`` sweeps, one by default.

    ``stats``, when given, receives the flagged bridge nodes and pruned edges
    summed over every pass, how many first-pass communities were split, and
    the final community-size histogram (size -> count).
    """
    counts = stats if stats is not None else {}
    counts.update(flagged_nodes=0, pruned_edges=0)
    first = louvain(graph, resolution=params.resolution, seed=params.seed)
    partition = first
    for _ in range(params.refine_passes):
        assignments: dict[str, int] = {}
        next_cid = 0
        for members in partition.communities().values():
            parts = [members]
            if len(members) > 2:
                before = counts["pruned_edges"]
                pruned = prune_global_bridges(graph.subgraph(members), params.bridgeness_threshold, counts)
                if counts["pruned_edges"] > before:
                    sub_partition = louvain(pruned, resolution=params.resolution, seed=params.seed)
                    parts = sub_partition.communities().values()
            for part in parts:
                for node in part:
                    assignments[node] = next_cid
                next_cid += 1
        partition = Partition(assignments=assignments)
    partition = _with_dense_ids(partition)
    if stats is not None:
        finals: dict[int, set[int]] = {}
        for node, cid in first.assignments.items():
            finals.setdefault(cid, set()).add(partition.assignments[node])
        sizes = Counter(len(members) for members in partition.communities().values())
        stats["communities_split"] = sum(1 for parts in finals.values() if len(parts) > 1)
        stats["community_sizes"] = dict(sorted(sizes.items()))
    return partition


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
    # Each unordered pair once (cosine is symmetric bit for bit); a row's
    # cumulative sum adds in member order, and the diagonal's 0.0 adds nothing.
    k = len(usable)
    upper, lower = np.triu_indices(k, 1)
    cos = np.zeros((k, k))
    cos[upper, lower] = cos[lower, upper] = pair_cosines([embeddings[m].vector for m in usable], upper, lower)
    means = {m: total / (k - 1) for m, total in zip(usable, np.cumsum(cos, axis=1)[:, -1].tolist())}
    return raw_by_id[min(usable, key=lambda m: (-means[m], cleaned_by_id[m], m))]


def name_community_volume(
    members: Sequence[str],
    records: Mapping[str, AssigneeRecord],
    cleaned_by_id: Mapping[str, str],
) -> str:
    """Raw name of the member with the largest patent count (ties: smallest
    cleaned name). All-zero counts degrade to the lexicographic choice."""
    best = min(members, key=lambda m: (-records[m].patent_count, cleaned_by_id[m], m))
    return records[best].raw_name


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
