"""Graph filtering: build the similarity graph from scored pairs, partition it
with seeded Louvain, then split chained-together communities by deleting edges
at high-bridgeness nodes and re-partitioning inside each community. The whole
stage runs on ``Graph``, an index adjacency over the sorted record ids.

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
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .embed import NameEmbedding, pair_cosines
from .errors import ConfigError
from .ingest import AssigneeRecord
from .match import PairTable
from .parse import CleanName

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FilterParams:
    threshold: float = 3.9
    resolution: float = 1.0
    bridgeness_threshold: float = 1.0
    location_boost: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.resolution <= 0:
            raise ConfigError(f"graph.resolution must be > 0, got {self.resolution}")
        if self.location_boost < 0:
            raise ConfigError(f"graph.location_boost must be >= 0, got {self.location_boost}")


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


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph without self-loops, on the indices of its
    sorted ``nodes`` (record ids). ``adj[i]`` maps every neighbour index of
    node ``i`` to the edge's weight, in ascending index order; each edge is
    held by both ends."""

    nodes: tuple
    adj: list[dict[int, float]]

    def number_of_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def subgraph(self, indices: Sequence[int]) -> "Graph":
        """The subgraph induced by ``indices`` (ascending), renumbered from 0
        in that order, so its neighbours stay ascending too."""
        position = {i: k for k, i in enumerate(indices)}
        adj = [{position[j]: w for j, w in self.adj[i].items() if j in position} for i in indices]
        return Graph(tuple(self.nodes[i] for i in indices), adj)


def build_graph(table: PairTable, scores: np.ndarray, params: FilterParams) -> Graph:
    """Similarity graph on the table's ids: every record is a node; an edge
    exists iff the pair score clears the threshold, and a row whose records
    share a location adds the boost on top of the score (membership is
    decided before the boost). Rows are sorted by (id_a, id_b), so adding
    them in table order leaves every neighbour dict ascending."""
    adj: list[dict[int, float]] = [{} for _ in table.ids]
    rows = np.flatnonzero(scores >= params.threshold)
    weights = np.where(table.location[rows], scores[rows] + params.location_boost, scores[rows])
    for u, v, weight in zip(table.a[rows].tolist(), table.b[rows].tolist(), weights.tolist()):
        adj[u][v] = adj[v][u] = weight
    return Graph(table.ids, adj)


# Louvain stops once a level gains no more modularity than this (networkx's
# default threshold).
_LOUVAIN_THRESHOLD = 0.0000001


def louvain(graph: Graph, resolution: float = 1.0, seed: int = 0) -> Partition:
    """Seeded Louvain partition with dense community ids.

    A transcription of networkx 3.6.1's ``louvain_communities`` (its
    ``louvain_partitions``, ``_one_level``, ``_neighbor_weights`` and
    ``_gen_graph``) onto lists of dicts, run on the graph in sorted node and
    neighbour order: every float expression and summation order, the
    neighbour-weight defaultdict (reading the node's own community inserts
    it), the strict ``gain > best_mod``, and one ``random.Random(seed)``
    shared across levels are kept, and ``tests/oracles.py`` holds networkx
    as its oracle. One thing differs: modularity sums each community's
    members in ascending index order, where networkx sums them in set order,
    which for string ids follows the hash seed. The two sums can differ by a
    few ulps, which changes the result only when a level's gain lies within
    ulps of the 1e-7 stop threshold.

    Communities are numbered by their smallest member so the mapping is stable
    across runs; isolated nodes come out as singletons.
    """
    community = _louvain_communities(graph.adj, resolution, random.Random(seed))
    dense: dict[int, int] = {}
    return Partition(assignments={node: dense.setdefault(com, len(dense)) for node, com in zip(graph.nodes, community)})


def _louvain_communities(adj: list[dict], resolution: float, rng: random.Random) -> list[int]:
    """``louvain_partitions``: the community of every node of ``adj`` in its
    last level. ``community`` maps each input node to its node in the
    current level's graph, which stands for the input nodes networkx keeps
    in ``partition``."""
    community = list(range(len(adj)))
    if not any(adj):
        return community
    mod = _modularity(adj, community, resolution)
    m = sum(_degrees(adj)) / 2
    inner, _ = _one_level(adj, m, resolution, rng)
    community = inner
    improvement = True
    while improvement:
        new_mod = _modularity(adj, inner, resolution)
        if new_mod - mod <= _LOUVAIN_THRESHOLD:
            break
        mod = new_mod
        adj = _gen_graph(adj, inner)
        inner, improvement = _one_level(adj, m, resolution, rng)
        community = [inner[c] for c in community]
    return community


def _degrees(adj: list[dict]) -> list:
    """Weighted degrees as networkx's ``DegreeView`` sums them: a self-loop
    counts twice."""
    return [sum(nbrs.values()) + (u in nbrs and nbrs[u]) for u, nbrs in enumerate(adj)]


def _modularity(adj: list[dict], community: list[int], resolution: float) -> float:
    """networkx's ``modularity`` of the partition of ``adj`` given by
    ``community`` (dense ids), its members summed in ascending order: a
    community's inner weight takes each of its edges once, from its smaller
    end, in that end's neighbour order."""
    degree = _degrees(adj)
    deg_sum = sum(degree)
    m = deg_sum / 2
    norm = 1 / deg_sum**2
    members: list[list[int]] = [[] for _ in range(max(community) + 1)]
    for u, com in enumerate(community):
        members[com].append(u)

    def community_contribution(comm):
        c = community[comm[0]]
        L_c = sum(wt for u in comm for v, wt in adj[u].items() if v >= u and community[v] == c)
        degree_sum = sum(degree[u] for u in comm)
        return L_c / m - resolution * degree_sum * degree_sum * norm

    return sum(map(community_contribution, members))


def _one_level(adj: list[dict], m: float, resolution: float, rng: random.Random) -> tuple[list[int], bool]:
    """One level of moves. Returns each node's community, numbered in
    ascending order of the community's index as ``list(filter(len,
    inner_partition))`` numbers them, and whether any node moved."""
    node2com = list(range(len(adj)))
    degrees = _degrees(adj)
    Stot = list(degrees)
    nbrs = [{v: wt for v, wt in nbrs.items() if v != u} for u, nbrs in enumerate(adj)]
    rand_nodes = list(range(len(adj)))
    rng.shuffle(rand_nodes)
    nb_moves = 1
    improvement = False
    while nb_moves > 0:
        nb_moves = 0
        for u in rand_nodes:
            best_mod = 0
            best_com = node2com[u]
            weights2com = _neighbor_weights(nbrs[u], node2com)
            degree = degrees[u]
            Stot[best_com] -= degree
            remove_cost = -weights2com[best_com] / m + resolution * (Stot[best_com] * degree) / (2 * m**2)
            for nbr_com, wt in weights2com.items():
                gain = remove_cost + wt / m - resolution * (Stot[nbr_com] * degree) / (2 * m**2)
                if gain > best_mod:
                    best_mod = gain
                    best_com = nbr_com
            Stot[best_com] += degree
            if best_com != node2com[u]:
                improvement = True
                nb_moves += 1
                node2com[u] = best_com
    dense = {com: i for i, com in enumerate(sorted(set(node2com)))}
    return [dense[com] for com in node2com], improvement


def _neighbor_weights(nbrs: dict[int, float], node2com: list[int]) -> defaultdict:
    weights: defaultdict = defaultdict(float)
    for nbr, wt in nbrs.items():
        weights[node2com[nbr]] += wt
    return weights


def _gen_graph(adj: list[dict], community: list[int]) -> list[dict]:
    """The graph of the communities: each edge, taken once from its smaller
    end in node order, adds its weight to the edge (or self-loop) between its
    ends' communities, which enters each end's dict where it first appears."""
    H: list[dict] = [{} for _ in range(max(community) + 1)]
    for node1, nbrs in enumerate(adj):
        for node2, wt in nbrs.items():
            if node2 < node1:
                continue
            com1 = community[node1]
            com2 = community[node2]
            temp = H[com1].get(com2, 0)
            H[com1][com2] = H[com2][com1] = wt + temp
    return H


def bridgeness_centrality(graph: Graph) -> dict:
    """Exact bridgeness on the unweighted skeleton, in O(n·m).

    Brandes' recipe on the index adjacency: per source s, a BFS counts
    shortest paths σ exactly, then the BFS order is walked backwards to
    accumulate the dependency δ(v) = Σ σ_v/σ_w · (1 + δ(w)) over the
    successors w of v. Every target counted in δ(w) lies two or more levels
    below v, so none is in N[v]: a node at distance >= 2 from s gains
    σ_v/σ_w · δ(w) from each successor, which is its bridgeness from s with
    nothing to subtract. Each unordered pair is counted from both ends, so
    the sums are halved. The result maps each node to its value, in node
    order.
    """
    adjacency = graph.adj
    n = len(adjacency)
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
    return {v: total / 2 for v, total in zip(graph.nodes, totals)}


# Bridgeness sums rounded floats, so a node whose exact value equals β can
# come out a few ulps above it; a node is flagged only when it clears β by
# this relative margin.
_BETA_MARGIN = 1e-9


def prune_global_bridges(graph: Graph, beta: float, stats: Optional[dict] = None) -> Graph:
    """``graph`` without the edges that touch a node whose bridgeness exceeds
    ``beta``; a value equal to ``beta`` is never flagged. When no node is
    flagged the result is ``graph`` itself, not a copy, so a caller must not
    mutate it. ``stats``, when given, has its ``flagged_nodes`` and
    ``pruned_edges`` counts raised.

    Two cases are settled without computing bridgeness. It is never negative,
    so a cutoff below 0 flags every node. And a node interior to a shortest
    s-t path with s and t outside its closed neighbourhood has d(s, t) >= 4,
    so on a graph of at most 4 nodes, or a clique, every node's bridgeness is
    exactly 0 and a cutoff of 0 or more flags none. A β just below 0 (above
    -1e-9) has a cutoff above 0, so it flags no node of bridgeness 0.
    """
    cutoff = beta + _BETA_MARGIN * max(1.0, abs(beta))
    n = len(graph.nodes)
    if cutoff < 0:
        flagged = set(range(n))
    elif n <= 4 or 2 * graph.number_of_edges() == n * (n - 1):
        flagged = set()
    else:
        values = bridgeness_centrality(graph).values()
        flagged = {i for i, value in enumerate(values) if value > cutoff}
    pruned, removed = graph, 0
    if flagged:
        adj = [{j: w for j, w in nbrs.items() if j not in flagged} if i not in flagged else {}
               for i, nbrs in enumerate(graph.adj)]
        pruned = Graph(graph.nodes, adj)
        removed = graph.number_of_edges() - pruned.number_of_edges()
    if stats is not None:
        stats["flagged_nodes"] = stats.get("flagged_nodes", 0) + len(flagged)
        stats["pruned_edges"] = stats.get("pruned_edges", 0) + removed
    return pruned


def refine_communities(graph: Graph, params: FilterParams, stats: Optional[dict] = None) -> Partition:
    """Louvain, then per-community prune-and-repartition.

    One pass takes every first-pass community, prunes bridge edges inside
    its induced subgraph, and re-runs Louvain there. A community whose
    subgraph loses no edge is confirmed and kept intact: re-partitioning it
    anyway would let Louvain split dense communities that merely look uneven
    in isolation. Communities only ever split, so the result refines the
    first-pass partition.

    ``stats``, when given, receives the flagged bridge nodes and pruned
    edges, how many first-pass communities were split, and the final
    community-size histogram (size -> count).
    """
    counts = stats if stats is not None else {}
    counts.update(flagged_nodes=0, pruned_edges=0)
    first = louvain(graph, resolution=params.resolution, seed=params.seed)
    index = {node: i for i, node in enumerate(graph.nodes)}
    assignments: dict[str, int] = {}
    next_cid = 0
    for members in first.communities().values():
        parts = [members]
        if len(members) > 2:
            before = counts["pruned_edges"]
            community = graph.subgraph([index[node] for node in members])
            pruned = prune_global_bridges(community, params.bridgeness_threshold, counts)
            if counts["pruned_edges"] > before:
                sub_partition = louvain(pruned, resolution=params.resolution, seed=params.seed)
                parts = sub_partition.communities().values()
        for part in parts:
            for node in part:
                assignments[node] = next_cid
            next_cid += 1
    partition = _with_dense_ids(Partition(assignments=assignments))
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
    members: Sequence[int],
    records: Sequence[AssigneeRecord],
    names: Sequence[CleanName],
    embeddings: Sequence[NameEmbedding],
) -> str:
    """Raw name of the member with the greatest mean cosine to the others.

    ``members`` are positions in the aligned ``records``, ``names`` and
    ``embeddings``, which are sorted by record id. Ties break on the
    lexicographically smallest cleaned name, then the smallest record id.
    Degenerate embeddings can neither win nor vote; a community with no
    usable embedding raises ValueError so the caller can fall back to the
    volume strategy.
    """
    usable = [m for m in sorted(members) if not embeddings[m].degenerate]
    if not usable:
        raise ValueError("all members have degenerate embeddings")
    if len(usable) == 1:
        return records[usable[0]].raw_name
    # Each unordered pair once (cosine is symmetric bit for bit); a row's
    # cumulative sum adds in member order, and the diagonal's 0.0 adds nothing.
    k = len(usable)
    upper, lower = np.triu_indices(k, 1)
    cos = np.zeros((k, k))
    cos[upper, lower] = cos[lower, upper] = pair_cosines([embeddings[m].vector for m in usable], upper, lower)
    means = {m: total / (k - 1) for m, total in zip(usable, np.cumsum(cos, axis=1)[:, -1].tolist())}
    return records[min(usable, key=lambda m: (-means[m], names[m].cleaned, m))].raw_name


def name_community_volume(
    members: Sequence[int],
    records: Sequence[AssigneeRecord],
    names: Sequence[CleanName],
) -> str:
    """Raw name of the member with the largest patent count (ties: smallest
    cleaned name, then smallest record id). All-zero counts degrade to the
    lexicographic choice. ``members`` are positions, as for the centroid."""
    best = min(members, key=lambda m: (-records[m].patent_count, names[m].cleaned, m))
    return records[best].raw_name


def assign_canonical_names(
    partition: Partition,
    records: Sequence[AssigneeRecord],
    names: Sequence[CleanName],
    embeddings: Sequence[NameEmbedding],
) -> Partition:
    """Fill ``partition.canonical`` for every community: the centroid name,
    or the volume name when no member has a usable embedding. ``records``,
    ``names`` and ``embeddings`` are aligned and sorted by record id, and
    every id ``partition`` assigns is among them."""
    position = {r.record_id: i for i, r in enumerate(records)}
    canonical: dict[int, str] = {}
    for cid, members in partition.communities().items():
        rows = [position[m] for m in members]
        try:
            canonical[cid] = name_community_centroid(rows, records, names, embeddings)
        except ValueError:
            log.debug("community %d has no usable embedding; falling back to volume", cid)
            canonical[cid] = name_community_volume(rows, records, names)
    return replace(partition, canonical=canonical)
