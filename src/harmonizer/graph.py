"""Graph filtering: build the similarity graph from scored pairs, partition it
with seeded Louvain, then split chained-together communities by deleting edges
at high-bridgeness nodes and re-partitioning inside each community. The whole
stage runs on ``Graph``, one CSR structure over record positions; only
``match.Corpus`` holds the record ids.

Bridgeness of a node v counts, over unordered pairs (s, t) where neither
endpoint is v or adjacent to v, the fraction of shortest s-t paths through v
on the unweighted skeleton. Joint-venture style names sit between two dense
clusters and light up under exactly this measure. It is computed exactly per
community, with Brandes' dependency accumulation over blocks of sources, and
a node is flagged only when it clears the threshold by a relative 1e-9.

Louvain transcribes networkx's step for step and holds each level as a
``Graph`` too, its rows in the order networkx's dicts list them.
"""

from __future__ import annotations

import itertools
import logging
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from operator import add
from typing import Iterator, Optional, Sequence

import numpy as np

from .embed import pair_cosines
from .errors import ConfigError
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
    """``community[i]`` is the community of record position i; ids are dense
    and numbered by smallest member. Optional canonical names per community.
    Not mutated once made."""

    community: list[int]
    canonical: dict[int, str] = field(default_factory=dict)

    @cached_property
    def assignments(self) -> dict[int, int]:
        """record position -> community id."""
        return dict(enumerate(self.community))

    @cached_property
    def n_communities(self) -> int:
        return len(set(self.community))

    def communities(self) -> dict[int, list[int]]:
        """community id -> its members' positions, ascending, in id order."""
        out: dict[int, list[int]] = {cid: [] for cid in range(self.n_communities)}
        for position, cid in enumerate(self.community):
            out[cid].append(position)
        return out


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph in CSR form on the nodes 0 .. n-1: row i,
    entries ``offsets[i]`` to ``offsets[i + 1]`` of ``neighbours`` and
    ``weights``, lists each neighbour of node i once with the edge's weight,
    and every edge is held by both ends. The graphs the filter stage builds
    have the record positions as nodes, no self-loops and ascending rows.
    Louvain's level graphs have one node per community, hold each self-loop
    once and list each row in order of first appearance."""

    offsets: np.ndarray
    neighbours: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_entries(cls, n: int, rows: np.ndarray, neighbours: np.ndarray, weights: np.ndarray) -> "Graph":
        """The graph on n nodes of these entries, given in row order."""
        counts = np.bincount(rows, minlength=n)
        return cls(np.concatenate([[0], np.cumsum(counts)]), neighbours, weights)

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def rows(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(self.n), np.diff(self.offsets))

    def number_of_edges(self) -> int:
        return len(self.neighbours) // 2

    def subgraphs(self, groups: Sequence[Sequence[int]]) -> Iterator["Graph"]:
        """The subgraph each of the disjoint, ascending ``groups`` of node
        indices induces, renumbered from 0 in that order, so its rows ascend
        too; one stable sort of the entries inside groups makes each a slice."""
        n = self.n
        members = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.int64)
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        group, local = np.full(n, -1), np.zeros(n, dtype=np.int64)
        group[members] = np.repeat(np.arange(len(groups)), sizes)
        local[members] = np.arange(len(members)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        inside = np.flatnonzero((group[self.rows] == group[self.neighbours]) & (group[self.rows] >= 0))
        inside = inside[np.argsort(group[self.rows[inside]], kind="stable")]
        bounds = np.concatenate([[0], np.cumsum(np.bincount(self.rows[inside], minlength=n)[members])])
        neighbours, weights, start = local[self.neighbours[inside]], self.weights[inside], 0
        for indices in groups:
            offsets = bounds[start:start + len(indices) + 1]
            start += len(indices)
            lo, hi = offsets[0], offsets[-1]
            yield Graph(offsets - lo, neighbours[lo:hi], weights[lo:hi])


def build_graph(table: PairTable, scores: np.ndarray, params: FilterParams) -> Graph:
    """Similarity graph on the table's record positions: every record is a
    node; an edge exists iff the pair score clears the threshold, and a row
    whose records share a location adds the boost on top of the score
    (membership is decided before the boost). Each edge enters the rows of
    both its ends: row b lists its neighbours a < b in table order, then row
    a its b > a, so a stable sort by row leaves every row ascending."""
    rows = np.flatnonzero(scores >= params.threshold)
    weights = np.where(table.location[rows], scores[rows] + params.location_boost, scores[rows])
    ends, others = np.concatenate([table.b[rows], table.a[rows]]), np.concatenate([table.a[rows], table.b[rows]])
    order = np.argsort(ends, kind="stable")
    return Graph.from_entries(len(table.ids), ends[order], others[order], np.concatenate([weights, weights])[order])


# Louvain stops once a level gains no more modularity than this (networkx's
# default threshold).
_LOUVAIN_THRESHOLD = 0.0000001


def louvain(graph: Graph, resolution: float = 1.0, seed: int = 0) -> Partition:
    """Seeded Louvain partition with dense community ids.

    A transcription of networkx 3.6.1's ``louvain_communities`` (its
    ``louvain_partitions``, ``_one_level``, ``_neighbor_weights`` and
    ``_gen_graph``) onto CSR levels, run on the graph in sorted node and
    neighbour order: every float expression and summation order (``reduce``
    adds left to right, as ``sum`` did before Python 3.12), the
    insertion order of the neighbour weights per community (reading the
    node's own community inserts it), each level graph's rows in the order
    networkx's dicts insert them, the strict ``gain > best_mod``, and one
    ``random.Random(seed)`` shared across levels are kept, and
    ``tests/oracles.py`` holds networkx as its oracle. One thing differs:
    modularity sums each community's members in ascending index order, where
    networkx sums them in set order, which for string ids follows the hash
    seed. The two sums can differ by a few ulps, which changes the result
    only when a level's gain lies within ulps of the 1e-7 stop threshold.

    Communities are numbered by their smallest member so the mapping is stable
    across runs; isolated nodes come out as singletons.
    """
    rng = random.Random(seed)
    # ``community`` maps each input node to its node in the current level,
    # which stands for the input nodes networkx keeps in ``partition``.
    level, community = graph, list(range(graph.n))
    if len(graph.neighbours):
        degrees = _degrees(level)
        m = reduce(add, degrees, 0.0) / 2
        mod = _modularity(level, degrees, community, resolution)
        community = inner = _one_level(level, degrees, m, resolution, rng)[0]
        improvement = True
        while improvement:
            new_mod = _modularity(level, degrees, inner, resolution)
            if new_mod - mod <= _LOUVAIN_THRESHOLD:
                break
            mod = new_mod
            level = _gen_graph(level, inner)
            degrees = _degrees(level)
            inner, improvement = _one_level(level, degrees, m, resolution, rng)
            community = [inner[c] for c in community]
    return Partition(_first_seen(community))


def _first_seen(labels: Sequence[int]) -> list[int]:
    """``labels`` renumbered densely in order of first appearance: over
    record positions, that numbers communities by smallest member."""
    dense: dict[int, int] = {}
    return [dense.setdefault(label, len(dense)) for label in labels]


def _degrees(level: Graph) -> list[float]:
    """Weighted degrees as networkx's ``DegreeView`` sums them: each row in
    entry order, then its self-loop once more."""
    n = level.n
    loops = np.where(level.neighbours == level.rows, level.weights, 0.0)
    return (np.bincount(level.rows, level.weights, minlength=n) + np.bincount(level.rows, loops, minlength=n)).tolist()


def _modularity(level: Graph, degree: list, community: list[int], resolution: float) -> float:
    """networkx's ``modularity`` of the partition of ``level`` given by
    ``community`` (dense ids), its members summed in ascending order: a
    community's inner weight takes each of its edges once, from its smaller
    end, in entry order, and the communities' terms are added in id order.
    ``degree`` is ``_degrees(level)``. An id no node holds, or a community
    of nodes without edges, adds a term of exactly 0.0, which changes no sum
    (bar the sign of a zero)."""
    deg_sum = reduce(add, degree, 0.0)
    m = deg_sum / 2
    norm = 1 / deg_sum**2
    labels = np.asarray(community)
    inner = (level.neighbours >= level.rows) & (labels[level.neighbours] == labels[level.rows])
    L_c = np.bincount(labels[level.rows[inner]], level.weights[inner], minlength=len(degree))
    degree_sum = np.bincount(labels, degree, minlength=len(degree))
    return reduce(add, (L_c / m - resolution * degree_sum * degree_sum * norm).tolist(), 0.0)


def _one_level(
    level: Graph, degrees: list, m: float, resolution: float, rng: random.Random
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
    n = len(degrees)
    other = level.neighbours != level.rows
    bounds = np.concatenate([[0], np.cumsum(np.bincount(level.rows[other], minlength=n))]).tolist()
    nbrs, wts = level.neighbours[other].tolist(), level.weights[other].tolist()
    node2com = list(range(n))
    Stot = list(degrees)
    rand_nodes = list(range(n))
    rng.shuffle(rand_nodes)
    rand_nodes = [u for u in rand_nodes if bounds[u] < bounds[u + 1]]
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
            for v, wt in zip(nbrs[bounds[u]:bounds[u + 1]], wts[bounds[u]:bounds[u + 1]]):
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


def _gen_graph(level: Graph, community: list[int]) -> Graph:
    """The graph of the communities. Each edge, taken once from its smaller
    end in entry order, adds its weight to the edge (or self-loop) between
    its ends' communities: a stable sort groups the edges by community pair
    and ``np.bincount`` sums each group in entry order. As networkx's dicts
    do, a pair's first edge e, from c1 to c2, enters c2 into row c1 at time
    2e, then c1 into row c2 at 2e + 1, and each row lists its neighbours by
    that time."""
    k = max(community) + 1
    labels = np.asarray(community)
    upper = level.neighbours >= level.rows
    c1, c2 = labels[level.rows[upper]], labels[level.neighbours[upper]]
    pair = np.minimum(c1, c2) * k + np.maximum(c1, c2)
    order = np.argsort(pair, kind="stable")
    starts = np.diff(pair[order], prepend=-1) != 0
    totals = np.bincount(np.cumsum(starts) - 1, level.weights[upper][order])
    first = order[starts]
    c1, c2, two = c1[first], c2[first], c1[first] != c2[first]
    rows, cols = np.concatenate([c1, c2[two]]), np.concatenate([c2, c1[two]])
    arranged = np.lexsort((np.concatenate([2 * first, 2 * first[two] + 1]), rows))
    return Graph.from_entries(k, rows[arranged], cols[arranged], np.concatenate([totals, totals[two]])[arranged])


# The entries of one source block, sources times max(n, 2m), are kept near
# this bound, so its arrays of σ and δ and its stored edges stay small.
_BLOCK_ENTRIES = 2**16


def bridgeness_centrality(graph: Graph) -> np.ndarray:
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
    halved. The result holds each node's value, in node order.

    Work is O(n·m) over all sources. σ is a float64 count, exact below 2^53
    and within about 1e-16 relative above it; each source's δ is summed in
    the order a scalar Brandes sums it, but the totals add up level by level,
    so values can differ from it by a few ulps, far inside the margin
    ``prune_global_bridges`` flags with.
    """
    n = graph.n
    block = max(1, _BLOCK_ENTRIES // max(1, n, len(graph.neighbours)))
    totals = np.zeros(n)
    for start in range(0, n, block):
        totals += _bridgeness_from(graph, np.arange(start, min(n, start + block)))
    return totals / 2


def _bridgeness_from(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """Each node's bridgeness summed over the ordered pairs whose source is
    in ``sources``."""
    n = graph.n
    size = len(sources) * n
    frontier = np.arange(0, size, n) + sources
    sigma = np.zeros(size)
    sigma[frontier] = 1.0
    # levels[d] holds the edges from the entries at distance d to those at d + 1.
    levels = []
    while True:
        nodes = frontier % n
        counts = graph.offsets[nodes + 1] - graph.offsets[nodes]
        entries = np.repeat(graph.offsets[nodes] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        parent = np.repeat(frontier, counts)
        child = parent - np.repeat(nodes, counts) + graph.neighbours[entries]
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


def _cutoff(beta: float) -> float:
    """The value a node's bridgeness must exceed to be flagged at ``beta``."""
    return beta + _BETA_MARGIN * max(1.0, abs(beta))


def prune_global_bridges(graph: Graph, beta: float, stats: Optional[dict] = None) -> Graph:
    """``graph`` without the edges that touch a node whose bridgeness exceeds
    ``beta``; a value equal to ``beta`` is never flagged. When no node is
    flagged the result is ``graph`` itself, not a copy, so a caller must not
    mutate it. ``stats``, when given, has its ``flagged_nodes`` and
    ``pruned_edges`` counts raised. Bridgeness is always computed: the cases
    that need none are settled by ``refine_communities`` before it cuts a
    subgraph."""
    n = graph.n
    flagged = bridgeness_centrality(graph) > _cutoff(beta)
    pruned = graph
    if flagged.any():
        keep = ~(flagged[graph.rows] | flagged[graph.neighbours])
        pruned = Graph.from_entries(n, graph.rows[keep], graph.neighbours[keep], graph.weights[keep])
    if stats is not None:
        stats["flagged_nodes"] = stats.get("flagged_nodes", 0) + int(flagged.sum())
        stats["pruned_edges"] = stats.get("pruned_edges", 0) + graph.number_of_edges() - pruned.number_of_edges()
    return pruned


def refine_communities(graph: Graph, params: FilterParams, stats: Optional[dict] = None) -> Partition:
    """Louvain, then per-community prune-and-repartition.

    Every first-pass community of more than 2 nodes has the bridge edges
    inside its induced subgraph pruned, and is re-partitioned by Louvain
    there if it lost an edge. A community that loses no edge is confirmed
    and kept intact: re-partitioning it anyway would let Louvain split dense
    communities that merely look uneven in isolation. Louvain can group
    nodes that no edge joins, so every community is then split into its
    connected components in ``graph``. Communities only ever split, so the
    result refines the first-pass partition.

    Two rules settle whole communities in one pass, from each community's
    size and inner edge count, before any subgraph is cut. Bridgeness is
    never negative, so a cutoff below 0 flags every member: each becomes its
    own part, and all inner edges are pruned. A node interior to a shortest
    s-t path with s and t outside its closed neighbourhood has d(s, t) >= 4,
    so in a community of at most 4 nodes, or a clique, every bridgeness is
    exactly 0 and a cutoff of 0 or more keeps it as it is. A β just below 0
    (above -1e-9) has a cutoff above 0, so it falls under the second rule.
    Only the other communities get a subgraph and ``prune_global_bridges``,
    in community-id order.

    ``stats``, when given, receives the flagged bridge nodes and pruned
    edges, how many first-pass communities were split, and the final
    community-size histogram (size -> count).
    """
    counts = stats if stats is not None else {}
    counts.update(flagged_nodes=0, pruned_edges=0)
    first = louvain(graph, resolution=params.resolution, seed=params.seed)
    labels = np.asarray(first.community, dtype=np.int64)
    k = first.n_communities
    sizes = np.bincount(labels, minlength=k)
    inner = labels[graph.rows] == labels[graph.neighbours]
    # Each inner edge is held by both its ends.
    entries = np.bincount(labels[graph.rows[inner]], minlength=k)
    # Parts take fresh labels above the first-pass ids, and the components
    # make them dense again.
    community = labels.copy()
    if _cutoff(params.bridgeness_threshold) < 0:
        # Every member of a community of more than 2 nodes is flagged.
        large = sizes > 2
        counts["flagged_nodes"] += int(sizes[large].sum())
        counts["pruned_edges"] += int(entries[large].sum()) // 2
        alone = np.flatnonzero(large[labels])
        community[alone] = k + alone
    else:
        # Only a community of more than 4 nodes that is no clique can hold
        # a node of nonzero bridgeness.
        unsettled = np.flatnonzero((sizes > 4) & (entries != sizes * (sizes - 1))).tolist()
        if unsettled:
            members_of = first.communities()
            groups = [members_of[cid] for cid in unsettled]
            fresh = k
            for members, subgraph in zip(groups, graph.subgraphs(groups)):
                before = counts["pruned_edges"]
                pruned = prune_global_bridges(subgraph, params.bridgeness_threshold, counts)
                if counts["pruned_edges"] > before:
                    parts = louvain(pruned, resolution=params.resolution, seed=params.seed)
                    community[members] = fresh + np.asarray(parts.community)
                    fresh += parts.n_communities
    partition = Partition(_components(graph, community))
    if stats is not None:
        # Each final community lies in one first-pass community.
        finals = Counter(dict(zip(partition.community, first.community)).values())
        histogram = Counter(Counter(partition.community).values())
        stats.update(communities_split=sum(n > 1 for n in finals.values()), community_sizes=dict(sorted(histogram.items())))
    return partition


def _components(graph: Graph, labels: Sequence[int]) -> list[int]:
    """The connected components of the subgraph each label induces in
    ``graph``, numbered by smallest member. Every node points at a smaller
    one of its component, or at itself; each round hooks each tree's root to
    the smallest root next to the tree, then points every node at its root,
    so a tree merges within two rounds and O(log n) rounds suffice."""
    labels = np.asarray(labels)
    inside = labels[graph.rows] == labels[graph.neighbours]
    ends, others = graph.rows[inside], graph.neighbours[inside]
    smallest = np.arange(len(labels))
    while True:
        lowered = smallest.copy()
        np.minimum.at(lowered, smallest[ends], smallest[others])
        while not np.array_equal(lowered[lowered], lowered):
            lowered = lowered[lowered]
        if np.array_equal(lowered, smallest):
            return _first_seen(smallest.tolist())
        smallest = lowered


def assign_canonical_names(partition: Partition, corpus: Corpus) -> Partition:
    """Fill ``partition.canonical`` for every community with the raw name of
    the member of greatest mean cosine to the others (ties: smallest cleaned
    name, then record id); degenerate vectors neither win nor vote. A
    community without a usable vector takes its member with the most
    patents (same ties). A partition of another record count is a
    ValueError. Each unordered pair of usable members is scored once, by
    ``pair_cosines``; one ``np.bincount`` adds each member's cosines
    from 0.0 in (vector row, position) order, as the pairs' second member,
    then as the first, so members who share a row tie exactly on any BLAS."""
    records, names, vectors = corpus.records, corpus.names, corpus.vectors
    if len(partition.community) != len(records):
        raise ValueError("partition and corpus differ in record count")
    groups = list(partition.communities().values())
    row, degenerate = vectors.rows.tolist(), vectors.degenerate.tolist()
    usable = [sorted((m for m in rows if not degenerate[m]), key=row.__getitem__) for rows in groups]
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
