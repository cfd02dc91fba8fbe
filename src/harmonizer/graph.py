"""Graph filtering: build the similarity graph from scored pairs, partition it
with seeded Louvain, then split chained-together communities by deleting edges
at high-bridgeness nodes and re-partitioning inside each community. The whole
stage runs on ``Graph``, an index adjacency over the sorted record ids.

Bridgeness of a node v counts, over unordered pairs (s, t) where neither
endpoint is v or adjacent to v, the fraction of shortest s-t paths through v
on the unweighted skeleton. Joint-venture style names sit between two dense
clusters and light up under exactly this measure. It is computed per
community with Brandes' dependency accumulation, run level by level for a
block of sources at once, gathering along the adjacency; the levels are
exact, the path counts exact below 2^53, and the float sums run in another
order than one source at a time, which moves a value by a few ulps at most.
A node is flagged only when its bridgeness clears the threshold by a
relative 1e-9, so a value equal to the threshold is never flagged whatever
the rounding. Pruning skips the computation where its outcome is known: a
threshold below 0 flags every node, and a community of at most 4 nodes or a
clique has no nonzero value.

Louvain skips only work whose outcome is fixed: a node with no neighbour but
itself can neither move nor be joined, so a level's moves never visit it,
and modularity leaves out nodes without edges, whose terms are exactly 0.
"""

from __future__ import annotations

import itertools
import logging
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .embed import pair_cosines
from .errors import ConfigError
from .ingest import AssigneeRecord
from .match import Corpus, PairTable

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
    """``community[i]`` is the community of ``nodes[i]``, the graph's record
    ids in ascending order; ids are dense and numbered by smallest member.
    Optional canonical names per community. Not mutated once made."""

    nodes: tuple
    community: list[int]
    canonical: dict[int, str] = field(default_factory=dict)

    @cached_property
    def assignments(self) -> dict[str, int]:
        """record_id -> community id."""
        return dict(zip(self.nodes, self.community))

    @property
    def n_communities(self) -> int:
        return len(set(self.community))

    def members(self) -> list[list[int]]:
        """The ascending positions of each community's members, indexed by
        community id."""
        out: list[list[int]] = [[] for _ in range(self.n_communities)]
        for position, cid in enumerate(self.community):
            out[cid].append(position)
        return out

    def communities(self) -> dict[int, list[str]]:
        """community id -> its members' record ids, ascending."""
        return {cid: [self.nodes[i] for i in rows] for cid, rows in enumerate(self.members())}

    def check_records(self, records: Sequence[AssigneeRecord]) -> None:
        """ValueError unless ``records`` hold ``nodes``' ids in their order."""
        if [record.record_id for record in records] != list(self.nodes):
            raise ValueError("partition and records hold different record ids at the same position")


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
    insertion order of the neighbour weights per community (reading the
    node's own community inserts it), the strict ``gain > best_mod``, and
    one ``random.Random(seed)`` shared across levels are kept, and
    ``tests/oracles.py`` holds networkx as its oracle. One thing differs:
    modularity sums each community's members in ascending index order, where
    networkx sums them in set order, which for string ids follows the hash
    seed. The two sums can differ by a few ulps, which changes the result
    only when a level's gain lies within ulps of the 1e-7 stop threshold.

    Work whose outcome is fixed is skipped, which changes no result. A node
    with no neighbour but itself (an isolated record, or a community that
    settled in an earlier level and is now a node with only its self-loop)
    sees no community but its own, at a gain of exactly 0, so it never moves
    and none can join it: the moves skip it after the shuffle, which still
    draws the whole node list. Modularity leaves out nodes without edges,
    whose terms are exactly 0.

    Communities are numbered by their smallest member so the mapping is stable
    across runs; isolated nodes come out as singletons.
    """
    community = _louvain_communities(graph.adj, resolution, random.Random(seed))
    return Partition(graph.nodes, _first_seen(community))


def _first_seen(labels: Sequence[int]) -> list[int]:
    """``labels`` renumbered densely in order of first appearance: over
    positions in ascending record id order, that numbers communities by
    smallest member."""
    dense: dict[int, int] = {}
    return [dense.setdefault(label, len(dense)) for label in labels]


def _louvain_communities(adj: list[dict], resolution: float, rng: random.Random) -> list[int]:
    """``louvain_partitions``: the community of every node of ``adj`` in its
    last level. ``community`` maps each input node to its node in the
    current level's graph, which stands for the input nodes networkx keeps
    in ``partition``. Each level's degrees are computed once, for both its
    moves and its modularity."""
    community = list(range(len(adj)))
    if not any(adj):
        return community
    degrees = _degrees(adj)
    m = sum(degrees) / 2
    mod = _modularity(adj, degrees, community, resolution)
    inner, _ = _one_level(adj, degrees, m, resolution, rng)
    community = inner
    improvement = True
    while improvement:
        new_mod = _modularity(adj, degrees, inner, resolution)
        if new_mod - mod <= _LOUVAIN_THRESHOLD:
            break
        mod = new_mod
        adj = _gen_graph(adj, inner)
        degrees = _degrees(adj)
        inner, improvement = _one_level(adj, degrees, m, resolution, rng)
        community = [inner[c] for c in community]
    return community


def _degrees(adj: list[dict]) -> list:
    """Weighted degrees as networkx's ``DegreeView`` sums them: a self-loop
    counts twice."""
    return [sum(nbrs.values()) + (u in nbrs and nbrs[u]) for u, nbrs in enumerate(adj)]


def _modularity(adj: list[dict], degree: list, community: list[int], resolution: float) -> float:
    """networkx's ``modularity`` of the partition of ``adj`` given by
    ``community`` (dense ids), its members summed in ascending order: a
    community's inner weight takes each of its edges once, from its smaller
    end, in that end's neighbour order. ``degree`` is ``_degrees(adj)``.

    Nodes without edges are left out. Such a node adds the integer 0 to its
    community's inner weight and degree sum, and a community of nothing but
    such nodes contributes exactly 0.0, so leaving them out changes no sum
    by a single bit (bar the sign of a zero)."""
    deg_sum = sum(degree)
    m = deg_sum / 2
    norm = 1 / deg_sum**2
    members: list[list[int]] = [[] for _ in range(max(community) + 1)]
    for u, com in enumerate(community):
        if adj[u]:
            members[com].append(u)

    def community_contribution(comm):
        c = community[comm[0]]
        L_c = sum(wt for u in comm for v, wt in adj[u].items() if v >= u and community[v] == c)
        degree_sum = sum(degree[u] for u in comm)
        return L_c / m - resolution * degree_sum * degree_sum * norm

    return sum(map(community_contribution, filter(None, members)))


def _one_level(
    adj: list[dict], degrees: list, m: float, resolution: float, rng: random.Random
) -> tuple[list[int], bool]:
    """One level of moves. Returns each node's community, numbered in
    ascending order of the community's index as ``list(filter(len,
    inner_partition))`` numbers them, and whether any node moved.

    The whole node list is shuffled, as networkx shuffles it, so the random
    stream is the same; then only nodes with a neighbour other than
    themselves are visited. Any other node sees no community but its own,
    whose gain is exactly 0, so it never moves and leaves ``Stot`` as it
    found it (``d - d + d`` is ``d``), and as no node is its neighbour, none
    can join it."""
    node2com = list(range(len(adj)))
    Stot = list(degrees)
    nbrs = [{v: wt for v, wt in nbrs.items() if v != u} if u in nbrs else nbrs for u, nbrs in enumerate(adj)]
    rand_nodes = list(range(len(adj)))
    rng.shuffle(rand_nodes)
    rand_nodes = [u for u in rand_nodes if nbrs[u]]
    two_m_sq = 2 * m**2
    nb_moves = 1
    improvement = False
    while nb_moves > 0:
        nb_moves = 0
        for u in rand_nodes:
            best_mod = 0
            best_com = node2com[u]
            # networkx's defaultdict(float) of neighbour weights per
            # community; reading the node's own community inserts it last
            # when no neighbour shares it, which fixes the tie order.
            weights2com: dict[int, float] = {}
            for v, wt in nbrs[u].items():
                com = node2com[v]
                weights2com[com] = weights2com.get(com, 0.0) + wt
            degree = degrees[u]
            Stot[best_com] -= degree
            own = weights2com.setdefault(best_com, 0.0)
            remove_cost = -own / m + resolution * (Stot[best_com] * degree) / two_m_sq
            for nbr_com, wt in weights2com.items():
                gain = remove_cost + wt / m - resolution * (Stot[nbr_com] * degree) / two_m_sq
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


# The entries of one source block, sources times max(n, 2m), are kept near
# this bound, so its arrays of σ and δ and its stored edges stay small.
_BLOCK_ENTRIES = 2**16


def bridgeness_centrality(graph: Graph) -> dict:
    """Exact bridgeness on the unweighted skeleton, by blocks of sources.

    Brandes' recipe, level-synchronously over a block of sources. An entry
    k·n + v stands for node v seen from the block's k-th source. The forward
    pass expands the current frontier's entries along the adjacency, keeps
    the edges into entries not yet reached, sums their σ into the next level
    with one ``np.bincount`` and stores each level's edges. The backward pass
    walks those stored edges up, where two ``np.bincount`` calls give the
    dependency δ(v) = Σ σ_v/σ_w · (1 + δ(w)) over the successors w of v, and
    the bridge term Σ σ_v/σ_w · δ(w). Every target counted in δ(w) lies two
    or more levels below v, so none is in N[v]: a node at distance >= 2 from
    s gains the bridge term, which is its bridgeness from s with nothing to
    subtract. Each unordered pair is counted from both ends, so the sums are
    halved. The result maps each node to its value, in node order.

    Work is O(n·m) over all sources. σ is a float64 count, exact below 2^53
    and within about 1e-16 relative above it; each source's δ is summed in
    the order a scalar Brandes sums it, but the totals add up level by level,
    so values can differ from it by a few ulps, far inside the margin
    ``prune_global_bridges`` flags with.
    """
    n = len(graph.adj)
    degree = np.fromiter(map(len, graph.adj), dtype=np.int64, count=n)
    neighbours = np.fromiter(itertools.chain.from_iterable(graph.adj), dtype=np.int64, count=int(degree.sum()))
    csr = (degree, np.cumsum(degree) - degree, neighbours)
    block = max(1, _BLOCK_ENTRIES // max(1, n, len(neighbours)))
    totals = np.zeros(n)
    for start in range(0, n, block):
        totals += _bridgeness_from(csr, np.arange(start, min(n, start + block)))
    return dict(zip(graph.nodes, (totals / 2).tolist()))


def _bridgeness_from(csr: tuple, sources: np.ndarray) -> np.ndarray:
    """Each node's bridgeness summed over the ordered pairs whose source is
    in ``sources``; ``csr`` holds each node's degree, the offset of its
    first neighbour, and the neighbours in node order."""
    degree, first, neighbours = csr
    n = len(degree)
    size = len(sources) * n
    frontier = np.arange(0, size, n) + sources
    sigma = np.zeros(size)
    sigma[frontier] = 1.0
    # levels[d] holds the edges from the entries at distance d to those at d + 1.
    levels = []
    while True:
        nodes = frontier % n
        counts = degree[nodes]
        ends = np.cumsum(counts)
        parent = np.repeat(frontier, counts)
        offsets = np.repeat(first[nodes] - ends + counts, counts) + np.arange(ends[-1])
        child = parent - np.repeat(nodes, counts) + neighbours[offsets]
        unseen = sigma[child] == 0.0
        parent, child = parent[unseen], child[unseen]
        if not len(child):
            break
        reached = np.bincount(child, sigma[parent], minlength=size)
        frontier = np.flatnonzero(reached)
        sigma[frontier] = reached[frontier]
        levels.append((parent, child))
    totals = np.zeros(n)
    delta = np.zeros(size)
    # Nodes within distance 1 of the source gain nothing, and only they
    # would read the dependencies of the nodes at distance 2. Only the
    # entries on a level are read, by the level above.
    for parent, child in reversed(levels[2:]):
        ratio = sigma[parent] / sigma[child]
        totals += np.bincount(parent % n, ratio * delta[child], minlength=n)
        delta = np.bincount(parent, ratio * (1.0 + delta[child]), minlength=size)
    return totals


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
    in isolation. Louvain can group nodes that no edge joins, so every
    community is then split into its connected components in ``graph``.
    Communities only ever split, so the result refines the first-pass
    partition.

    ``stats``, when given, receives the flagged bridge nodes and pruned
    edges, how many first-pass communities were split, and the final
    community-size histogram (size -> count).
    """
    counts = stats if stats is not None else {}
    counts.update(flagged_nodes=0, pruned_edges=0)
    first = louvain(graph, resolution=params.resolution, seed=params.seed)
    # A split community's parts take fresh labels above the first-pass ids,
    # and the components make them dense again.
    community = list(first.community)
    fresh = first.n_communities
    for members in first.members():
        if len(members) > 2:
            before = counts["pruned_edges"]
            pruned = prune_global_bridges(graph.subgraph(members), params.bridgeness_threshold, counts)
            if counts["pruned_edges"] > before:
                parts = louvain(pruned, resolution=params.resolution, seed=params.seed)
                for position, part in zip(members, parts.community):
                    community[position] = fresh + part
                fresh += parts.n_communities
    partition = Partition(graph.nodes, _components(graph.adj, community))
    # Each final community lies in one first-pass community.
    finals = Counter(dict(zip(partition.community, first.community)).values())
    sizes = Counter(Counter(partition.community).values())
    counts.update(communities_split=sum(n > 1 for n in finals.values()), community_sizes=dict(sorted(sizes.items())))
    return partition


def _components(adj: list[dict], labels: Sequence[int]) -> list[int]:
    """The connected components of the subgraph each label induces in
    ``adj``, numbered by smallest member."""
    # A flagged bridge node is a singleton that keeps its edges in ``adj``,
    # so singletons are not searched.
    size = Counter(labels)
    component = [-1] * len(adj)
    n_components = 0
    for start, label in enumerate(labels):
        if component[start] < 0:
            component[start] = n_components
            stack = [start] if size[label] > 1 else []
            while stack:
                for v in adj[stack.pop()]:
                    if component[v] < 0 and labels[v] == label:
                        component[v] = n_components
                        stack.append(v)
            n_components += 1
    return component


def assign_canonical_names(partition: Partition, corpus: Corpus) -> Partition:
    """Fill ``partition.canonical`` for every community with the raw name of
    the member of greatest mean cosine to the others (ties: smallest cleaned
    name, then record id); degenerate vectors neither win nor vote. A
    community without a usable vector takes its member with the most
    patents (same ties). ``partition.nodes`` are ``corpus.ids`` (ValueError
    otherwise). Each unordered pair of usable members is scored once (cosine
    is symmetric bit for bit); one ``np.bincount`` adds each member's
    cosines in member order: as the pairs' second member, then as the first."""
    partition.check_records(corpus.records)
    records, names, vectors = corpus.records, corpus.names, corpus.vectors
    groups = partition.members()
    usable = [[m for m in rows if not vectors.degenerate[m]] for rows in groups]
    chained = itertools.chain.from_iterable(p for rows in usable for p in itertools.combinations(rows, 2))
    a, b = np.fromiter(chained, dtype=np.int64).reshape(-1, 2).T
    cos = pair_cosines(vectors, a, b)
    totals = np.bincount(np.concatenate([b, a]), np.concatenate([cos, cos]), minlength=len(records)).tolist()
    canonical: dict[int, str] = {}
    for cid, rows in enumerate(usable):
        if rows:
            k = max(1, len(rows) - 1)
            best = min(rows, key=lambda m: (-totals[m] / k, names[m].cleaned, m))
        else:
            log.debug("community %d has no usable vector; naming it by patent count", cid)
            best = min(groups[cid], key=lambda m: (-records[m].patent_count, names[m].cleaned, m))
        canonical[cid] = records[best].raw_name
    return replace(partition, canonical=canonical)
