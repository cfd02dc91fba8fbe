"""Similarity graph, Louvain wrapper, bridgeness, pruning, canonical naming."""

import itertools
import math
import random
from collections import Counter
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonizer import graph as graph_module
from harmonizer.embed import HashingBackend, NameVectors, embed_corpus
from harmonizer.errors import ConfigError
from harmonizer.graph import (
    FilterParams,
    Graph,
    Partition,
    assign_canonical_names,
    bridgeness_centrality,
    build_graph,
    louvain,
    prune_global_bridges,
    refine_communities,
)
from harmonizer.ingest import AssigneeRecord
from harmonizer.match import Corpus, score_pairs
from harmonizer.parse import CleanName, clean_name

from conftest import corpus_idf
from nxgraphs import from_networkx, positions, to_networkx
from oracles import (
    brandes_bridgeness,
    brute_bridgeness,
    connected_graphs,
    cosine_similarity,
    dict_degrees,
    dict_gen_graph,
    dict_modularity,
    exact_bridgeness,
    from_adjacency,
    name_community_centroid,
    name_community_volume,
    reference_louvain,
    reference_refine,
)


def scored(records, *pairs):
    """The PairTable ``score_pairs`` fills over the records, as type-1
    names, with one row per (a, b, score), and that score column."""
    ids = [r.record_id for r in records]
    names = [clean_name(r.raw_name) for r in records]
    rows = sorted((ids.index(min(a, b)), ids.index(max(a, b)), score) for a, b, score in pairs)
    embeddings = embed_corpus(names, HashingBackend(), corpus_idf(names))
    type1 = np.ones(len(names), dtype=bool)
    no_domain, no_page = np.full(len(names), -1), [frozenset()] * len(names)
    candidates = np.array([row[:2] for row in rows])
    table = score_pairs(Corpus(records, names, type1, no_domain, no_page, embeddings, candidates))
    return table, np.array([row[2] for row in rows])


def records_for(ids, locations=None):
    """A record for each id, sorted by id, with the location keys
    ``locations`` gives it."""
    locations = locations or {}
    return [AssigneeRecord(rid, f"NAME {rid.upper()}", 1, frozenset(locations.get(rid, ()))) for rid in sorted(ids)]


class TestFilterParams:
    def test_defaults(self):
        p = FilterParams()
        assert (p.threshold, p.resolution, p.bridgeness_threshold, p.location_boost) == (3.9, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution": 0.0},
            {"location_boost": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FilterParams(**kwargs)


class TestBuildGraph:
    def test_threshold_is_inclusive(self):
        records = records_for(["a", "b", "c"])
        table, scores = scored(records, ("a", "b", 3.9), ("b", "c", 3.8999999))
        graph = to_networkx(build_graph(table, scores, FilterParams()), table.ids)
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("b", "c")

    def test_every_record_is_a_node(self):
        records = records_for(["a", "b", "loner"])
        table, scores = scored(records, ("a", "b", 4.5))
        graph = build_graph(table, scores, FilterParams())
        assert graph.n == len(table.ids) == 3 and set(table.ids) == {"a", "b", "loner"}

    def test_boost_applies_after_threshold(self):
        # Shared location must NOT rescue a sub-threshold pair...
        records = records_for(["a", "b"], {"a": {"york||uk"}, "b": {"york||uk"}})
        table, scores = scored(records, ("a", "b", 3.5))
        graph = to_networkx(build_graph(table, scores, FilterParams(location_boost=1.0)), table.ids)
        assert not graph.has_edge("a", "b")

    def test_boost_added_to_weight(self):
        # ...but it strengthens an edge that already cleared it.
        records = records_for(["a", "b"], {"a": {"york||uk"}, "b": {"york||uk"}})
        table, scores = scored(records, ("a", "b", 4.0))
        graph = to_networkx(build_graph(table, scores, FilterParams(location_boost=1.0)), table.ids)
        assert graph["a"]["b"]["weight"] == 5.0

    def test_no_shared_location_no_boost(self):
        records = records_for(["a", "b"], {"a": {"york||uk"}, "b": {"leeds||uk"}})
        table, scores = scored(records, ("a", "b", 4.0))
        graph = to_networkx(build_graph(table, scores, FilterParams()), table.ids)
        assert graph["a"]["b"]["weight"] == 4.0


class TestLouvain:
    def test_empty_graph(self):
        assert louvain(from_networkx(nx.Graph())).assignments == {}

    def test_isolated_nodes_are_singletons(self):
        g = nx.Graph()
        g.add_nodes_from(["a", "b", "c"])
        part = louvain(from_networkx(g))
        assert len(set(part.assignments.values())) == 3

    def test_two_cliques(self):
        g = nx.Graph()
        left = [f"l{i}" for i in range(4)]
        right = [f"r{i}" for i in range(4)]
        for group in (left, right):
            g.add_edges_from((a, b) for i, a in enumerate(group) for b in group[i + 1:])
        part, at = louvain(from_networkx(g)), positions(g)
        assert len({part.assignments[at[n]] for n in left}) == 1
        assert len({part.assignments[at[n]] for n in right}) == 1
        assert part.assignments[at["l0"]] != part.assignments[at["r0"]]

    def test_dense_ids_ordered_by_smallest_member(self):
        g = nx.Graph()
        g.add_edge("z1", "z2")
        g.add_edge("a1", "a2")
        part, at = louvain(from_networkx(g)), positions(g)
        assert part.assignments[at["a1"]] == 0
        assert part.assignments[at["z1"]] == 1

    def test_deterministic_across_calls(self):
        rng = random.Random(5)
        g = nx.gnp_random_graph(40, 0.15, seed=9)
        g = nx.relabel_nodes(g, {i: f"n{i:02d}" for i in g.nodes})
        for u, v in g.edges:
            g[u][v]["weight"] = rng.uniform(0.5, 2.0)
        parts = [louvain(from_networkx(g), resolution=1.0, seed=3).assignments for _ in range(3)]
        assert parts[0] == parts[1] == parts[2]

    def test_insertion_order_does_not_matter(self):
        # A graph built in any node and edge order comes out the same.
        for seed in range(10):
            rng = random.Random(seed)
            base = nx.gnp_random_graph(30, 0.2, seed=seed)
            edges = [(f"n{u:02d}", f"n{v:02d}", rng.uniform(0.5, 2.0)) for u, v in base.edges]
            nodes = [f"n{i:02d}" for i in base.nodes]
            forward = nx.Graph()
            forward.add_nodes_from(nodes)
            forward.add_weighted_edges_from(edges)
            backward = nx.Graph()
            backward.add_nodes_from(reversed(nodes))
            backward.add_weighted_edges_from((v, u, w) for u, v, w in reversed(edges))
            forward, backward = from_networkx(forward), from_networkx(backward)
            assert louvain(forward, seed=seed).assignments == louvain(backward, seed=seed).assignments, seed

    def test_resolution_monotone_in_community_count(self):
        g = nx.gnp_random_graph(40, 0.2, seed=2)
        g = from_networkx(nx.relabel_nodes(g, {i: f"n{i:02d}" for i in g.nodes}))
        low = louvain(g, resolution=0.05, seed=0).n_communities
        high = louvain(g, resolution=2.5, seed=0).n_communities
        assert low <= high


class TestBridgeness:
    def test_five_path_center(self):
        # Path 0-1-2-3-4: only the middle node has both endpoints of any
        # admissible pair outside its closed neighborhood.
        g = nx.path_graph(5)
        b = bridgeness_centrality(from_networkx(g))
        assert b.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_two_cliques_bridge_node(self):
        # Two 3-cliques joined through one cut vertex: every cross pair (3x3)
        # routes through it, all outside its neighborhood... the cut vertex is
        # adjacent to everyone, so pairs must sit at distance >= 2 from it.
        g = nx.Graph()
        g.add_edges_from([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (2, 6), (6, 3)])
        b = bridgeness_centrality(from_networkx(g))
        oracle = brute_bridgeness(g)
        for node in g.nodes:
            assert math.isclose(b[node], oracle[node], abs_tol=1e-9)

    def test_star_center_zero(self):
        # The hub is adjacent to every leaf, so no pair escapes its
        # neighborhood: bridgeness 0 despite maximal betweenness.
        b = bridgeness_centrality(from_networkx(nx.star_graph(5)))
        assert b[0] == 0.0

    def test_cycle_six(self):
        g = nx.cycle_graph(6)
        b = bridgeness_centrality(from_networkx(g))
        oracle = brute_bridgeness(g)
        for node in g.nodes:
            assert math.isclose(b[node], oracle[node], abs_tol=1e-9)

    def test_disconnected_components(self):
        g = nx.Graph()
        g.add_edges_from([(0, 1), (1, 2), (2, 3)])  # path
        g.add_edges_from([(10, 11), (11, 12), (12, 13)])  # separate path
        b = bridgeness_centrality(from_networkx(g))
        oracle = brute_bridgeness(g)
        for node, position in positions(g).items():
            assert math.isclose(b[position], oracle[node], abs_tol=1e-9)

    def test_tiny_graphs(self):
        assert bridgeness_centrality(from_networkx(nx.Graph())).tolist() == []
        g = nx.Graph()
        g.add_edge(0, 1)
        assert bridgeness_centrality(from_networkx(g)).tolist() == [0.0, 0.0]

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(12):
            g = nx.gnp_random_graph(10, 0.3, seed=seed)
            b = bridgeness_centrality(from_networkx(g))
            oracle = brute_bridgeness(g)
            for node in g.nodes:
                assert math.isclose(b[node], oracle[node], abs_tol=1e-9), (seed, node)

    def test_ignores_weights(self):
        g = nx.path_graph(5)
        for u, v in g.edges:
            g[u][v]["weight"] = 100.0
        assert bridgeness_centrality(from_networkx(g))[2] == 1.0

    @pytest.mark.parametrize("kind", ["gnp", "watts_strogatz"])
    def test_matches_oracle_on_larger_graphs(self, kind):
        # Connected Watts-Strogatz graphs keep many equal-length paths.
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(20, 40)
            if kind == "gnp":
                g = nx.gnp_random_graph(n, rng.uniform(0.08, 0.3), seed=seed)
            else:
                g = nx.connected_watts_strogatz_graph(n, rng.choice([4, 6]), rng.uniform(0.0, 0.3), seed=seed)
            b = bridgeness_centrality(from_networkx(g))
            oracle = brute_bridgeness(g)
            for node in g.nodes:
                assert math.isclose(b[node], oracle[node], abs_tol=1e-9), (seed, node)


def _diamond_chain(k):
    """k three-way diamonds in a row: hubs h00 ... h{k} joined through three
    middle nodes each, so hub h{k} is reached from h00 by 3^k shortest
    paths."""
    g = nx.Graph()
    for i in range(k):
        for leg in range(3):
            g.add_edges_from([(f"h{i:02d}", f"m{i:02d}{leg}"), (f"m{i:02d}{leg}", f"h{i + 1:02d}")])
    return g


def _matches_brandes(graph):
    """The kernel's values and the scalar Brandes' on ``graph``, as lists by
    position, after checking that they agree within 1e-12 relative, node for
    node."""
    values = bridgeness_centrality(graph).tolist()
    expected = brandes_bridgeness(graph)
    assert len(values) == len(expected) == graph.n
    for node, value in enumerate(expected):
        assert math.isclose(values[node], value, rel_tol=1e-12, abs_tol=0.0), (node, values[node], value)
    return values, expected


def _with_isolated_nodes():
    """A connected Watts-Strogatz graph with isolated nodes between its
    nodes in id order. Refinement prunes such a subgraph when a Louvain
    community holds a member whose neighbours all lie outside it."""
    g = nx.connected_watts_strogatz_graph(40, 4, 0.2, seed=3)
    g = nx.relabel_nodes(g, {i: f"n{2 * i:03d}" for i in g})
    g.add_nodes_from(f"n{2 * i + 1:03d}" for i in range(0, 40, 7))
    return from_networkx(g), positions(g)


def test_bridgeness_with_isolated_nodes_matches_brandes():
    graph, at = _with_isolated_nodes()
    values, _ = _matches_brandes(graph)
    assert values[at["n001"]] == 0.0 and max(values) > 0.0


@pytest.mark.parametrize("block", [1, 7])
def test_bridgeness_over_several_source_blocks_matches_brandes(block, monkeypatch):
    """Blocks of one source, and blocks of 7 over 46 nodes, whose last block
    holds 4."""
    graph, _ = _with_isolated_nodes()
    entries = max(graph.n, 2 * graph.number_of_edges())
    monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", block * entries)
    _matches_brandes(graph)


_LARGE_BRIDGENESS_CASES = {
    **{
        f"watts_strogatz_{n}": (lambda n=n, k=k, p=p: nx.connected_watts_strogatz_graph(n, k, p, seed=n))
        for n, k, p in [(150, 6, 0.3), (230, 4, 0.1), (310, 6, 0.05), (400, 4, 0.2), (800, 6, 0.1)]
    },
    "diamond_chain_40": lambda: _diamond_chain(40),
}


@pytest.mark.parametrize("name", sorted(_LARGE_BRIDGENESS_CASES))
def test_bridgeness_matches_brandes_on_large_graphs(name):
    """Within 1e-12 relative of the scalar, integer-σ Brandes on graphs too
    large for path enumeration, with the same flags at β equal to each
    node's value. The diamond chain counts 3^40 > 2^53 shortest paths end
    to end, so its σ are no longer exact floats."""
    graph = from_networkx(_LARGE_BRIDGENESS_CASES[name]())
    values, expected = _matches_brandes(graph)
    flags = {}
    for beta in sorted(set(expected)):
        cutoff = beta + graph_module._BETA_MARGIN * max(1.0, beta)
        flags[beta] = {node for node, value in enumerate(expected) if value > cutoff}
        assert {node for node, value in enumerate(values) if value > cutoff} == flags[beta], beta
    # Pruning flags the same nodes at one of those β.
    beta = sorted(flags)[len(flags) // 2]
    stats = {}
    prune_global_bridges(graph, beta, stats)
    assert stats["flagged_nodes"] == len(flags[beta])


class TestPruning:
    def test_five_path_beta_half(self):
        # Only the center exceeds 0.5; dropping its edges leaves the two ends.
        pruned = to_networkx(prune_global_bridges(from_networkx(nx.path_graph(5)), beta=0.5))
        assert sorted(pruned.edges) == [(0, 1), (3, 4)]
        assert set(pruned.nodes) == set(range(5))

    def test_beta_one_keeps_five_path(self):
        # B(center) == 1.0 is not > 1.0: nothing flagged, and the input
        # itself comes back rather than a copy.
        g = from_networkx(nx.path_graph(5))
        pruned = prune_global_bridges(g, beta=1.0)
        assert pruned is g
        assert sorted(to_networkx(pruned).edges) == sorted(nx.path_graph(5).edges)

    def test_input_not_mutated(self):
        g = from_networkx(nx.path_graph(5))
        prune_global_bridges(g, beta=0.5)
        assert g.number_of_edges() == 4

    def test_stats_count_flagged_nodes_and_pruned_edges(self):
        stats = {}
        prune_global_bridges(from_networkx(nx.path_graph(5)), beta=0.5, stats=stats)
        assert stats == {"flagged_nodes": 1, "pruned_edges": 2}

    @pytest.mark.parametrize("n", [5, 6])
    def test_clique_at_beta_zero_flags_nothing(self, n):
        # Every pair of a clique is adjacent, so every bridgeness is 0.
        g = from_networkx(nx.complete_graph(n))
        stats = {}
        assert prune_global_bridges(g, beta=0.0, stats=stats) is g
        assert stats == {"flagged_nodes": 0, "pruned_edges": 0}
        assert set(brute_bridgeness(nx.complete_graph(n)).values()) == {0.0}

    @pytest.mark.parametrize("beta", [-2.0, -0.5])
    def test_negative_cutoff_flags_every_node(self, beta):
        # Bridgeness is never negative, so every node clears a cutoff below 0.
        stats = {}
        pruned = prune_global_bridges(from_networkx(nx.path_graph(5)), beta=beta, stats=stats)
        assert pruned.n == 5 and pruned.number_of_edges() == 0
        assert stats == {"flagged_nodes": 5, "pruned_edges": 4}

    def test_pruned_graph_is_built_in_sorted_order(self):
        # The pruned graph keeps the nodes, every row stays in ascending
        # index order, as Louvain's transcription needs, and weights carry
        # over.
        rng = random.Random(3)
        edges = [(u, v) for u, v in itertools.combinations(range(12), 2) if rng.random() < 0.3]
        rng.shuffle(edges)
        g = nx.Graph()
        g.add_nodes_from(f"n{i:02d}" for i in rng.sample(range(12), 12))
        g.add_edges_from((f"n{v:02d}", f"n{u:02d}", {"weight": float(u + v)}) for u, v in edges)
        graph = from_networkx(g)
        pruned = prune_global_bridges(graph, beta=0.5)
        assert pruned is not graph and 0 < pruned.number_of_edges() < graph.number_of_edges()
        assert pruned.n == graph.n == 12
        rows = np.split(pruned.neighbours, pruned.offsets[1:-1])
        assert len(rows) == 12 and all(list(row) == sorted(row) for row in rows)
        named = to_networkx(pruned, sorted(g.nodes))
        assert all(g[u][v]["weight"] == w for u, v, w in named.edges(data="weight"))


def _boundary_family(kind):
    if kind == "connected_le_7":
        levels = connected_graphs(7)
        return [g for n in range(1, 8) for g in levels[n]]
    graphs = []
    for seed in range(400 if kind == "gnp" else 100):
        rng = random.Random(seed)
        n = rng.randint(17, 30)
        if kind == "gnp":
            graphs.append(nx.gnp_random_graph(n, rng.uniform(0.1, 0.5), seed=seed))
        else:
            graphs.append(nx.connected_watts_strogatz_graph(n, rng.choice([4, 6]), rng.uniform(0.0, 0.5), seed=seed))
    return graphs


@pytest.mark.parametrize("kind", ["connected_le_7", "gnp", "watts_strogatz"])
def test_flags_match_exact_bridgeness_at_the_boundary(kind):
    """A node is flagged iff its exact bridgeness exceeds β, for β on the
    half-integers in [-2, 20]. Rounded sums put some nodes whose exact value
    is β a few ulps above it. Only the β values some node's exact value
    equals, plus the default 1.0, are run: every other β lies further from
    each exact value than rounding can move it. β of -2 and -0.5 flag every
    node; -1e-10 lies within the margin below 0 and flags only what 0 does."""
    for index, g in enumerate(_boundary_family(kind)):
        exact = exact_bridgeness(g)
        ties = {float(x) for x in exact.values() if (2 * x).denominator == 1 and -2 <= x <= 20}
        for beta in sorted(ties | {1.0, -2.0, -0.5, -1e-10}):
            stats = {}
            pruned = to_networkx(prune_global_bridges(from_networkx(g), beta, stats))
            flagged = {v for v in g if exact[v] > (0 if beta == -1e-10 else beta)}
            kept = {frozenset(e) for e in g.edges if not flagged & set(e)}
            assert stats["flagged_nodes"] == len(flagged), (kind, index, beta)
            assert {frozenset(e) for e in pruned.edges} == kept, (kind, index, beta)


class TestRefine:
    def _joint_venture_motif(self):
        """Two 5-cliques plus a connector matching two members of each; the
        connector is the only node with bridgeness above 1. Returns the graph,
        the position of each node and the two cliques."""
        g = nx.Graph()
        left = [f"a{i}" for i in range(5)]
        right = [f"b{i}" for i in range(5)]
        for group in (left, right):
            g.add_edges_from((u, v, {"weight": 4.5}) for i, u in enumerate(group) for v in group[i + 1:])
        for end in ("a0", "a1", "b0", "b1"):
            g.add_edge("jv", end, weight=4.0)
        return from_networkx(g), positions(g), left, right

    def _two_cliques_with_bridge(self):
        g = nx.Graph()
        left = [f"a{i}" for i in range(5)]
        right = [f"b{i}" for i in range(5)]
        for group in (left, right):
            g.add_edges_from((u, v, {"weight": 4.5}) for i, u in enumerate(group) for v in group[i + 1:])
        g.add_edge("a0", "b0", weight=4.0)
        return from_networkx(g), left, right

    def test_splits_joint_venture_community(self):
        g, at, left, right = self._joint_venture_motif()
        # At this resolution the first pass merges all 11 nodes; pruning the
        # connector's edges is what separates the cliques.
        assert louvain(g, resolution=0.1, seed=0).n_communities == 1
        part = refine_communities(g, FilterParams(resolution=0.1, bridgeness_threshold=1.0))
        left_ids = {part.assignments[at[n]] for n in left}
        right_ids = {part.assignments[at[n]] for n in right}
        assert len(left_ids) == 1 and len(right_ids) == 1
        assert left_ids != right_ids
        assert part.assignments[at["jv"]] not in left_ids | right_ids

    def test_no_pruning_keeps_partition(self):
        # Every node here has bridgeness 0, so the merged community must
        # survive refinement even though Louvain would split it in isolation.
        g, _, _ = self._two_cliques_with_bridge()
        plain = louvain(g, resolution=0.05, seed=0)
        assert plain.n_communities == 1
        part = refine_communities(g, FilterParams(resolution=0.05, bridgeness_threshold=1.0))
        assert part.assignments == plain.assignments

    def test_small_communities_kept_intact(self):
        g = nx.Graph()
        g.add_edge("a", "b", weight=4.0)
        part, at = refine_communities(from_networkx(g), FilterParams()), positions(g)
        assert part.assignments[at["a"]] == part.assignments[at["b"]]

    def test_stats_report_pruning_and_splits(self):
        g, _, _, _ = self._joint_venture_motif()
        stats = {}
        part = refine_communities(g, FilterParams(resolution=0.1, bridgeness_threshold=1.0), stats)
        assert stats["flagged_nodes"] > 0 and stats["pruned_edges"] > 0
        assert stats["communities_split"] == 1
        assert sum(size * count for size, count in stats["community_sizes"].items()) == 11
        assert sum(stats["community_sizes"].values()) == part.n_communities

    def test_deterministic(self):
        g, _, _, _ = self._joint_venture_motif()
        p1 = refine_communities(g, FilterParams(resolution=0.1))
        p2 = refine_communities(g, FilterParams(resolution=0.1))
        assert p1.assignments == p2.assignments

    def test_dense_ids(self):
        g, at, _, _ = self._joint_venture_motif()
        part = refine_communities(g, FilterParams(resolution=0.1))
        ids = sorted(set(part.assignments.values()))
        assert ids == list(range(len(ids)))
        # Numbered by smallest member: the community of "a0" comes first.
        assert part.assignments[at["a0"]] == 0


@st.composite
def weighted_graphs(draw):
    """G(n, p) graphs with edge weights in the range pair scores take."""
    n = draw(st.integers(min_value=3, max_value=24))
    density = draw(st.floats(min_value=0.1, max_value=0.5))
    # A seeded real generator: hypothesis-chosen draws lean towards 0, which
    # makes nearly complete graphs in which nothing is ever pruned.
    rng = draw(st.randoms(use_true_random=True))
    g = nx.Graph()
    g.add_nodes_from(f"n{i:02d}" for i in range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                g.add_edge(f"n{u:02d}", f"n{v:02d}", weight=rng.uniform(0.5, 6.0))
    return g


@settings(max_examples=500, deadline=None)
@given(
    graph=weighted_graphs(),
    log_resolution=st.floats(min_value=-3.0, max_value=math.log10(2.0)),
    beta=st.floats(min_value=-2.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_refined_communities_are_connected(graph, log_resolution, beta, seed):
    """Every multi-member community induces a connected subgraph, and the
    split count and size histogram agree with the first-pass and final
    partitions. Resolution is log-uniform over [0.001, 2]: low values make
    the large communities in which pruning splits something."""
    params = FilterParams(resolution=10**log_resolution, bridgeness_threshold=beta, seed=seed)
    stats: dict = {}
    partition = refine_communities(from_networkx(graph), params, stats)
    ids = sorted(graph.nodes)
    assert {ids[position] for position in partition.assignments} == set(graph.nodes)
    groups = partition.communities()
    for members in groups.values():
        if len(members) > 1:
            assert nx.is_connected(graph.subgraph(ids[m] for m in members)), members
    first = louvain(from_networkx(graph), resolution=params.resolution, seed=seed).communities()
    split = sum(1 for members in first.values() if len({partition.assignments[m] for m in members}) > 1)
    assert stats["communities_split"] == split
    sizes = Counter(len(members) for members in groups.values())
    assert list(stats["community_sizes"].items()) == sorted(sizes.items())


# A star on n05 with two isolated nodes, n01 and n02. At resolution 1.5 and
# seed 2 the first Louvain pass (networkx's too) puts the leaves n03 and n04
# in one community although no edge joins them.
DISCONNECTED_FIRST_PASS = [("n00", "n05", 3.793), ("n03", "n05", 1.09), ("n04", "n05", 1.344)]


def test_disconnected_louvain_community_is_split():
    g = nx.Graph()
    g.add_nodes_from(f"n{i:02d}" for i in range(6))
    g.add_weighted_edges_from(DISCONNECTED_FIRST_PASS)
    params = FilterParams(resolution=1.5, bridgeness_threshold=0.0, seed=2)
    first = louvain(from_networkx(g), params.resolution, params.seed)
    assert first.assignments == reference_louvain(from_networkx(g), params.resolution, params.seed)
    at = positions(g)
    assert [at["n03"], at["n04"]] in first.communities().values()
    stats: dict = {}
    partition = refine_communities(from_networkx(g), params, stats)
    expected = [["n00", "n05"], ["n01"], ["n02"], ["n03"], ["n04"]]
    assert list(partition.communities().values()) == [[at[v] for v in members] for members in expected]
    assert stats["communities_split"] == 1 and stats["community_sizes"] == {1: 4, 2: 1}


@st.composite
def near_cliques(draw):
    """One to three cliques of 3-8 nodes, each missing up to two edges and
    carrying up to two pendant nodes, and tied to the previous one by one to
    three edges: communities that are cliques, and dense ones whose pendant
    pairs lie 4 hops apart and give some member nonzero bridgeness."""
    rng = draw(st.randoms(use_true_random=True))
    g = nx.Graph()
    previous: list = []
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        members = [f"c{k}{i}" for i in range(rng.randint(3, 8))]
        pairs = list(itertools.combinations(members, 2))
        for u, v in rng.sample(pairs, len(pairs) - rng.randint(0, 2)):
            g.add_edge(u, v, weight=rng.uniform(0.5, 6.0))
        for i in range(rng.randint(0, 2)):
            g.add_edge(f"p{k}{i}", rng.choice(members), weight=rng.uniform(0.5, 6.0))
        for _ in range(rng.randint(1, 3) if previous else 0):
            g.add_edge(rng.choice(previous), rng.choice(members), weight=rng.uniform(0.5, 6.0))
        previous = members
    return g


@settings(max_examples=200, deadline=None)
@given(graph=weighted_graphs(), data=st.data())
def test_subgraphs_match_networkx(graph, data):
    """Each of some disjoint groups of nodes induces the subgraph networkx
    induces, nodes in group order, rows ascending and weights carried over."""
    nodes = sorted(graph.nodes)
    # Label 4 leaves a node out of every group.
    labels = data.draw(st.lists(st.integers(0, 4), min_size=len(nodes), max_size=len(nodes)))
    groups = [[i for i, label in enumerate(labels) if label == g] for g in range(4)]
    groups = [group for group in groups if group]
    subgraphs = list(from_networkx(graph).subgraphs(groups))
    assert len(subgraphs) == len(groups)
    for group, sub in zip(groups, subgraphs):
        assert sub.n == len(group)
        rows = np.split(sub.neighbours, sub.offsets[1:-1])
        assert len(rows) == len(group) and all(list(row) == sorted(row) for row in rows)
        named = to_networkx(sub, [nodes[i] for i in group])
        expected = graph.subgraph(named.nodes)
        assert sorted(map(sorted, named.edges)) == sorted(map(sorted, expected.edges))
        assert all(expected[u][v]["weight"] == w for u, v, w in named.edges(data="weight"))


@st.composite
def small_communities(draw):
    """One to five groups of 3-5 nodes, each a random connected graph (a
    spanning tree plus random edges) with heavy weights, tied by up to two
    light edges: first-pass communities of 3-5 nodes, cliques and not, some
    of 5 nodes with a member of nonzero bridgeness."""
    rng = draw(st.randoms(use_true_random=True))
    g = nx.Graph()
    nodes: list = []
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        members = [f"s{k}{i}" for i in range(rng.randint(3, 5))]
        for i in range(1, len(members)):
            g.add_edge(members[i], rng.choice(members[:i]), weight=rng.uniform(4.0, 6.0))
        for u, v in itertools.combinations(members, 2):
            if not g.has_edge(u, v) and rng.random() < 0.4:
                g.add_edge(u, v, weight=rng.uniform(4.0, 6.0))
        nodes += members
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(nodes, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, weight=rng.uniform(0.5, 1.0))
    return g


@settings(max_examples=400, deadline=None)
@given(
    graph=st.one_of(weighted_graphs(), near_cliques(), small_communities(), st.just(nx.Graph())),
    log_resolution=st.floats(min_value=-3.0, max_value=math.log10(2.0)),
    beta=st.one_of(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-1e-9, max_value=0.0, exclude_min=True, exclude_max=True),
        st.floats(min_value=0.0, max_value=2.0),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_refinement_matches_the_reference(graph, log_resolution, beta, seed):
    """Refinement gives the same partition and the same filter stats whether
    it settles communities in bulk or takes each one through
    ``reference_prune``, which always computes bridgeness, and a networkx
    subgraph. β covers cutoffs below 0, β in (-1e-9, 0), whose cutoff lies
    above 0, and β >= 0."""
    graph = from_networkx(graph)
    params = FilterParams(resolution=10**log_resolution, bridgeness_threshold=beta, seed=seed)
    stats: dict = {}
    partition = refine_communities(graph, params, stats)
    expected_stats: dict = {}
    assert partition.community == reference_refine(graph, params, expected_stats)
    assert stats == expected_stats


def test_dense_community_with_a_tail_is_pruned():
    """An 8-clique with a 3-node tail is dense (31 of 55 pairs joined) but
    its far tail node lies 4 hops from the clique, so the tail's first node
    has nonzero bridgeness: no bulk rule may settle it at β = 0."""
    g = _disjoint_cliques([8])
    g.add_edges_from([("c07", "t0"), ("t0", "t1"), ("t1", "t2")], weight=5.0)
    graph = from_networkx(g)
    params = FilterParams(resolution=0.01, bridgeness_threshold=0.0)
    assert louvain(graph, params.resolution).n_communities == 1
    stats: dict = {}
    partition = refine_communities(graph, params, stats)
    expected_stats: dict = {}
    assert partition.community == reference_refine(graph, params, expected_stats)
    assert stats == expected_stats and stats["flagged_nodes"] > 0


def _disjoint_cliques(sizes):
    """Cliques of the given sizes, each tied to the next by one light edge."""
    g = nx.Graph()
    previous = None
    for k, size in enumerate(sizes):
        members = [f"c{k}{i}" for i in range(size)]
        g.add_edges_from(itertools.combinations(members, 2), weight=5.0)
        if previous:
            g.add_edge(previous, members[0], weight=0.5)
        previous = members[-1]
    return g


@pytest.mark.parametrize(
    "g, beta",
    [
        (nx.path_graph(9), -0.5),
        (_disjoint_cliques([5, 6]), -2.0),
        (_disjoint_cliques([3, 5, 6, 8]), 0.0),
        (_disjoint_cliques([5, 7]), -1e-10),
        (_disjoint_cliques([6, 6, 6]), 1.0),
    ],
)
def test_settled_communities_make_no_subgraph_calls(g, beta):
    """At a cutoff below 0, or when every first-pass community is a clique,
    refinement makes one Louvain call, the first pass, and no
    ``prune_global_bridges`` call, and still matches the reference."""
    graph = from_networkx(g)
    params = FilterParams(bridgeness_threshold=beta)
    if beta >= -1e-9:
        for members in louvain(graph).communities().values():
            assert nx.density(to_networkx(graph).subgraph(members)) == 1.0 or len(members) == 1
    louvain_spy = mock.patch.object(graph_module, "louvain", wraps=graph_module.louvain)
    prune_spy = mock.patch.object(graph_module, "prune_global_bridges", wraps=graph_module.prune_global_bridges)
    stats: dict = {}
    with louvain_spy as louvain_calls, prune_spy as prune_calls:
        partition = refine_communities(graph, params, stats)
    assert louvain_calls.call_count == 1 and prune_calls.call_count == 0
    expected_stats: dict = {}
    assert partition.community == reference_refine(graph, params, expected_stats)
    assert stats == expected_stats


@st.composite
def louvain_graphs(draw):
    """Weighted G(n, p), planted-partition and Watts-Strogatz graphs of up to
    60 nodes with record-like string ids; G(n, p) draws empty, edgeless and
    disconnected graphs and isolated nodes too. Weights are random, or all
    1.0, whose exact ties exercise the strict ``gain > best_mod``."""
    rng = draw(st.randoms(use_true_random=True))
    kind = draw(st.sampled_from(["gnp", "planted", "watts_strogatz"]))
    unit = draw(st.booleans())
    seed = rng.randrange(2**32)
    if kind == "gnp":
        g = nx.gnp_random_graph(rng.randint(0, 60), rng.uniform(0.0, 0.3), seed=seed)
    elif kind == "planted":
        blocks, size = rng.randint(1, 6), rng.randint(1, 12)
        g = nx.planted_partition_graph(blocks, size, rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.1), seed=seed)
    else:
        g = nx.watts_strogatz_graph(rng.randint(5, 60), rng.choice([2, 4]), rng.uniform(0.0, 0.5), seed=seed)
    for u, v in g.edges:
        g[u][v]["weight"] = 1.0 if unit or rng.random() < 0.2 else rng.uniform(0.5, 6.0)
    return nx.relabel_nodes(g, {i: f"r{i:03d}" for i in g.nodes})


@settings(max_examples=500, deadline=None)
@given(
    graph=louvain_graphs(),
    log_resolution=st.floats(min_value=-3.0, max_value=math.log10(2.0)),
    seed=st.integers(min_value=0, max_value=5),
)
def test_louvain_matches_networkx(graph, log_resolution, seed):
    """The transcription gives networkx's partition, resolution log-uniform
    over [0.001, 2]."""
    graph = from_networkx(graph)
    resolution = 10**log_resolution
    assert louvain(graph, resolution, seed).assignments == reference_louvain(graph, resolution, seed)


def _louvain_cases():
    rng = random.Random(7)
    isolated = nx.gnp_random_graph(30, 0.15, seed=4)
    isolated.add_nodes_from(range(30, 36))
    disconnected = nx.disjoint_union_all([nx.complete_graph(5), nx.cycle_graph(7), nx.path_graph(4)])
    # Isolated nodes among components that settle in the first level
    # (cliques, a triangle, an edge) and sit out later levels as nodes with
    # only a self-loop, while a ring of cliques keeps aggregating; shuffled
    # ids interleave them all.
    settled = nx.disjoint_union_all(
        [nx.empty_graph(40), nx.complete_graph(5), nx.complete_graph(4), nx.cycle_graph(3), nx.path_graph(2),
         nx.ring_of_cliques(10, 4)]
    )
    ids = list(range(len(settled)))
    random.Random(8).shuffle(ids)
    cases = {
        "empty": nx.Graph(),
        "edgeless": nx.empty_graph(6),
        "isolated_nodes": isolated,
        "disconnected": disconnected,
        "ring_of_cliques": nx.ring_of_cliques(12, 4),
        "watts_strogatz": nx.connected_watts_strogatz_graph(60, 4, 0.1, seed=1),
        "isolated_and_settled": nx.relabel_nodes(settled, dict(enumerate(ids))),
    }
    for g in cases.values():
        for u, v in g.edges:
            g[u][v]["weight"] = rng.uniform(0.5, 6.0)
    return cases


@pytest.mark.parametrize("name", sorted(_louvain_cases()))
@pytest.mark.parametrize("resolution", [0.05, 1.0])
def test_louvain_matches_networkx_on_edge_cases(name, resolution):
    """Empty, edgeless and disconnected graphs, isolated nodes, and graphs
    that networkx aggregates over two or more levels, at seeds 0-5."""
    g = _louvain_cases()[name]
    graph = from_networkx(g)
    for seed in range(6):
        assert louvain(graph, resolution, seed).assignments == reference_louvain(graph, resolution, seed), seed
    if name in ("isolated_and_settled", "ring_of_cliques", "watts_strogatz") and resolution == 0.05:
        levels = [len(list(nx.community.louvain_partitions(to_networkx(graph), resolution=resolution, seed=seed)))
                  for seed in range(6)]
        assert min(levels) >= 2, levels


@st.composite
def level_graphs(draw):
    """Weighted graphs of the shape Louvain's levels take from the second
    on: self-loops, isolated nodes, and rows in any order, as first
    appearance lists them; with a partition into dense community ids."""
    rng = draw(st.randoms(use_true_random=True))
    n = rng.randint(1, 20)
    density = rng.uniform(0.0, 0.6)
    edges = [(u, v) for u in range(n) for v in range(u, n) if rng.random() < (0.5 if u == v else density)]
    rng.shuffle(edges)
    adj: list[dict] = [{} for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = rng.choice([1.0, 2.0, rng.uniform(0.5, 60.0)])
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    dense: dict = {}
    return adj, [dense.setdefault(label, len(dense)) for label in labels]


@settings(max_examples=400, deadline=None)
@given(case=level_graphs(), resolution=st.floats(min_value=0.001, max_value=2.0))
def test_level_steps_match_the_dict_oracles(case, resolution):
    """Degrees and modularity are bit for bit those summed over neighbour
    dicts, and the community graph has the same weights with each row's
    neighbours in the same order."""
    adj, community = case
    level = from_adjacency(adj)
    degrees = graph_module._degrees(level)
    assert [float(d).hex() for d in degrees] == [float(d).hex() for d in dict_degrees(adj)]
    if any(adj):
        got = graph_module._modularity(level, degrees, community, resolution)
        assert got.hex() == dict_modularity(adj, dict_degrees(adj), community, resolution).hex()
    merged = graph_module._gen_graph(level, community)
    rows = zip(np.split(merged.neighbours, merged.offsets[1:-1]), np.split(merged.weights, merged.offsets[1:-1]))
    assert [list(zip(nbrs.tolist(), weights.tolist())) for nbrs, weights in rows] == [
        list(nbrs.items()) for nbrs in dict_gen_graph(adj, community)
    ]


# At resolution 0.5 and seed 0, Louvain's second level meets two moves of
# equal gain, and the order in which the level graph lists a node's
# neighbours picks one. Found by a search over random graphs of 4-24 nodes
# with weights 1, 2 and 3.
NEIGHBOUR_ORDER_CASE = [
    ("n00", "n04", 2.0), ("n00", "n07", 1.0), ("n01", "n04", 1.0),
    ("n01", "n05", 1.0), ("n02", "n07", 1.0), ("n03", "n04", 1.0),
]


def test_level_graph_rows_in_order_of_first_appearance(monkeypatch):
    g = nx.Graph()
    g.add_nodes_from(f"n{i:02d}" for i in range(8))
    g.add_weighted_edges_from(NEIGHBOUR_ORDER_CASE)
    graph, at = from_networkx(g), positions(g)
    expected = [[at[v] for v in c] for c in (["n00", "n02", "n03", "n04", "n07"], ["n01", "n05"], ["n06"])]
    assert list(louvain(graph, 0.5, 0).communities().values()) == expected
    assert louvain(graph, 0.5, 0).assignments == reference_louvain(graph, 0.5, 0)
    # Listing each row by neighbour id instead gives another partition.
    gen_graph = graph_module._gen_graph

    def rows_by_id(level, community):
        merged = gen_graph(level, community)
        order = np.lexsort((merged.neighbours, merged.rows))
        return Graph(merged.offsets, merged.neighbours[order], merged.weights[order])

    monkeypatch.setattr(graph_module, "_gen_graph", rows_by_id)
    assert list(louvain(graph, 0.5, 0).communities().values()) != expected


def naming_corpus(cleaned, vectors=(), patents=(), rows=None):
    """The corpus of the members m00, m01, ...: member i has the cleaned
    name ``cleaned[i]``, its upper case as raw name, ``patents[i]`` patents
    (0 when none are given) and the vector ``vectors[rows[i]]`` (row i when
    no rows are given; all zero when no vectors are given), degenerate when
    it is all zero."""
    ids = [f"m{i:02d}" for i in range(len(cleaned))]
    patents = patents or [0] * len(cleaned)
    records = [AssigneeRecord(rid, c.upper(), p) for rid, c, p in zip(ids, cleaned, patents)]
    names = [CleanName(c, tuple(c.split())) for c in cleaned]
    block = np.array(vectors, dtype=float) if len(vectors) else np.zeros((len(ids), 2))
    vectors = NameVectors(block, np.arange(len(ids)) if rows is None else rows)
    no_domain, no_page = np.full(len(ids), -1), [frozenset()] * len(ids)
    return Corpus(records, names, np.ones(len(ids), dtype=bool), no_domain, no_page, vectors, np.zeros((0, 2)))


def canonical_names(community, corpus):
    """``assign_canonical_names`` over the partition of the corpus's members
    into ``community`` (dense ids by position)."""
    return assign_canonical_names(Partition(list(community)), corpus).canonical


class TestNaming:
    def test_centroid_picks_most_central(self):
        corpus = naming_corpus(["acme", "acme corp", "zeta"], [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        # b is closest to both a and c on average.
        assert canonical_names([0, 0, 0], corpus) == {0: "ACME CORP"}

    def test_centroid_tie_breaks_on_cleaned(self):
        corpus = naming_corpus(["zeta", "acme"], [[1.0, 0.0], [1.0, 0.0]])
        assert canonical_names([0, 0], corpus) == {0: "ACME"}

    def test_centroid_singleton(self):
        assert canonical_names([0], naming_corpus(["acme"], [[1.0, 0.0]])) == {0: "ACME"}

    def test_centroid_ignores_degenerate_voters(self):
        corpus = naming_corpus(["acme", "bbb", "ccme"], [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert canonical_names([0, 0, 0], corpus) == {0: "ACME"}

    def test_centroid_all_degenerate_raises(self):
        # The per-community oracle raises; naming falls back to the volume
        # name, here the only member's.
        corpus = naming_corpus(["acme"], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            name_community_centroid([0], corpus.records, corpus.names, list(corpus.vectors.values()), [0])
        assert canonical_names([0], corpus) == {0: "ACME"}

    def test_centroid_matches_scalar_definition(self):
        """Same winner as summing cosine_similarity from 0.0 over the other
        members in (row, position) order, on random communities with
        duplicated vectors, members sharing a row (exact ties, so the
        cleaned name decides) and degenerate members."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            size = int(rng.integers(2, 14))
            vectors = rng.normal(size=(size, 6))
            for i in rng.choice(size, size // 2):
                vectors[i] = vectors[rng.integers(size)]
            vectors[rng.random(size) < 0.1] = 0.0
            rows = np.where(rng.random(size) < 0.4, rng.integers(size, size=size), np.arange(size))
            cleaned = [str(rng.integers(3)) + f"m{i:02d}" for i in range(size)]
            corpus = naming_corpus(cleaned, vectors.tolist(), rows=rows)
            usable = sorted((m for m in range(size) if vectors[rows[m]].any()), key=lambda m: (rows[m], m))
            if not usable:
                continue

            def mean(m):
                total = 0.0
                for o in usable:
                    if o != m:
                        total += cosine_similarity(vectors[min(rows[m], rows[o])], vectors[max(rows[m], rows[o])])
                return total / max(1, len(usable) - 1)

            expected = min(usable, key=lambda m: (-mean(m), cleaned[m], m))
            assert canonical_names([0] * size, corpus) == {0: corpus.records[expected].raw_name}

    def test_matches_per_community_oracle_on_random_partitions(self):
        """Every community of random partitions of 1-40 members gets the
        per-community oracle's name (its volume name when the oracle finds
        no usable vector), with duplicated vectors (cosine ties), members
        sharing a vector row, equal cleaned names and degenerate members."""
        rng = np.random.default_rng(17)
        cases = Counter()
        for _ in range(60):
            size = int(rng.integers(1, 41))
            vectors = rng.normal(size=(size, 5))
            for i in rng.choice(size, size // 3):
                vectors[i] = vectors[rng.integers(size)]
            vectors[rng.random(size) < 0.15] = 0.0
            cleaned = [f"n{rng.integers(4)}" for _ in range(size)]
            rows = np.where(rng.random(size) < 0.3, rng.integers(size, size=size), np.arange(size))
            patents = [int(p) for p in rng.integers(0, 5, size)]
            corpus = naming_corpus(cleaned, vectors.tolist(), patents, rows)
            labels = rng.integers(0, max(1, size // 4), size).tolist()
            # Dense ids numbered by smallest member.
            community = [list(dict.fromkeys(labels)).index(c) for c in labels]
            got = canonical_names(community, corpus)
            embeddings = list(corpus.vectors.values())
            for cid in range(max(community) + 1):
                members = [m for m, c in enumerate(community) if c == cid]
                try:
                    want = name_community_centroid(members, corpus.records, corpus.names, embeddings, rows)
                    cases["centroid"] += 1
                except ValueError:
                    want = name_community_volume(members, corpus.records, corpus.names)
                    cases["volume"] += 1
                assert got[cid] == want, (cid, members)
        assert min(cases.values()) > 0, cases

    # Without vectors every member is degenerate, so these communities are
    # named by patent count.
    def test_volume_picks_biggest_portfolio(self):
        corpus = naming_corpus(["acme", "acme inc"], patents=[10, 50])
        assert canonical_names([0, 0], corpus) == {0: "ACME INC"}

    def test_volume_tie_breaks_on_cleaned(self):
        corpus = naming_corpus(["zeta", "acme"], patents=[5, 5])
        assert canonical_names([0, 0], corpus) == {0: "ACME"}

    def test_assign_centroid_with_volume_fallback(self):
        part = Partition([0, 0, 1])
        corpus = naming_corpus(
            ["acme", "acme inc", "loner"], [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], patents=[1, 9, 2]
        )
        # Community 0 has no usable embeddings -> volume fallback inside centroid mode.
        named = assign_canonical_names(part, corpus)
        assert named.canonical[0] == "ACME INC"
        assert named.canonical[1] == "LONER"

    def test_assign_rejects_partition_of_another_record_count(self):
        corpus = naming_corpus(["acme", "acme inc", "loner"], patents=[1, 9, 2])
        for community in ([0, 0], [0, 0, 0, 1]):
            with pytest.raises(ValueError, match="differ in record count"):
                assign_canonical_names(Partition(community), corpus)


class TestPartition:
    def test_communities_sorted(self):
        part = Partition([0, 1, 1])
        assert part.communities() == {0: [0], 1: [1, 2]}
        assert part.n_communities == 2
