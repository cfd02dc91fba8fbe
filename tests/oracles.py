"""Independent brute-force oracles the fast implementations are tested against.

Everything here favors obviousness over speed: direct formula transcription,
explicit path enumeration, O(n^2) pair loops. None of it imports from the
package's internals beyond plain data types, except two. ``reference_prune``
reuses ``bridgeness_centrality``, which the path-counting oracles here and
the scalar ``brandes_bridgeness`` check, to check the cases refinement
settles without it; ``reference_refine`` runs refinement one community at a
time with it and the package's ``louvain``. ``reference_louvain`` is
networkx's own Louvain, of which the package's is a transcription; ``dict_degrees``, ``dict_modularity`` and
``dict_gen_graph`` are that transcription's level steps over lists of
neighbour dicts, one edge at a time. ``reference_prepare`` reuses the package's
per-record functions, to check that ``prepare_corpus`` computing each
distinct value once changes nothing; it embeds each name with the scalar,
dense ``embed_name`` here. ``evaluate_conditions`` and
``reference_candidate_pairs`` read each record's web evidence as a
``PageInfo``, its domain string and page tokens, not as the package's
domain-code column. ``reference_candidate_pairs`` reuses the package's kind
choice; it builds its own key sets and builds the pairs from them one
Python int at a time. ``longest_first_tail_match`` tries every suffix
length of a designator dictionary, where the package tries only those of
the entries ending in the last token.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import unicodedata
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

import networkx as nx
import numpy as np

from harmonizer.augment import extract_domain, preprocess_url_text
from harmonizer.embed import NameEmbedding, NameVectors, compute_idf
from harmonizer.errors import InputError
from harmonizer.graph import _BETA_MARGIN, Graph, bridgeness_centrality, louvain
from harmonizer.match import Corpus, Params, blocking_key_kinds, generate_candidate_pairs
from harmonizer.parse import (
    CleanName,
    LegalDesignatorDictionary,
    NameClass,
    build_common_word_list,
    classify_name_type,
    clean_name,
)

from nxgraphs import from_networkx, to_networkx


class PageInfo(NamedTuple):
    """One record's web evidence: its domain (None when it has none or it is
    blocklisted) and its page token set."""

    domain: Optional[str]
    url_tokens: frozenset[str]


_EMPTY_INFO = PageInfo(domain=None, url_tokens=frozenset())


class ScalarHashing:
    """The hashing scheme one token at a time, as a dense vector: each
    character 3-gram of ``^token$`` adds its sign to its bucket, and the sum
    is scaled to unit norm; a token whose grams all cancel is parked with 1.0
    in one bucket instead."""

    def __init__(self, dim: int = 256):
        self.dim = dim

    def gram_feature(self, gram: str) -> tuple[int, float]:
        """The gram's bucket and sign, from one digest at a time."""
        digest = hashlib.blake2b(f"0:{gram}".encode("utf-8"), digest_size=9).digest()
        return int.from_bytes(digest[:8], "big") % self.dim, 1.0 if digest[8] & 1 else -1.0

    def token_vector(self, token: str) -> np.ndarray:
        if not token:
            raise InputError("cannot embed an empty token")
        marked = f"^{token}$"
        grams = [marked] if len(marked) <= 3 else [marked[i : i + 3] for i in range(len(marked) - 2)]
        vec = np.zeros(self.dim, dtype=np.float64)
        for gram in grams:
            bucket, sign = self.gram_feature(gram)
            vec[bucket] += sign
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            digest = hashlib.blake2b(f"0!{token}".encode("utf-8"), digest_size=8).digest()
            vec[int.from_bytes(digest, "big") % self.dim] = 1.0
            return vec
        return vec / norm


def longest_first_tail_match(designators: LegalDesignatorDictionary, tokens) -> int:
    """Length of the longest designator suffix of ``tokens``, trying every
    length from the longest entry's down to 1."""
    longest = max((len(entry) for entry in designators.entries), default=0)
    for length in range(min(longest, len(tokens)), 0, -1):
        if tuple(tokens[-length:]) in designators.entries:
            return length
    return 0


def embed_name(tokens, backend, idf: Mapping[str, float]) -> NameEmbedding:
    """idf-weighted mean of ``backend.token_vector`` over ``tokens``, one
    dense vector at a time; degenerate when the mean has norm zero, and the
    zero vector for no tokens."""
    if not tokens:
        return NameEmbedding(vector=np.zeros(backend.dim), degenerate=True)
    total = np.zeros(backend.dim, dtype=np.float64)
    weight_sum = 0.0
    for token in tokens:
        w = idf[token]
        total += w * backend.token_vector(token)
        weight_sum += w
    vector = total / weight_sum
    return NameEmbedding(vector=vector, degenerate=ordered_norm(vector) == 0.0)


def ordered_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The products a[k] * b[k] added from 0.0, left to right over k."""
    return functools.reduce(operator.add, (x * y for x, y in zip(a.tolist(), b.tolist())), 0.0)


def ordered_norm(v: np.ndarray) -> float:
    return math.sqrt(ordered_dot(v, v))


def sparse_vectors(block, rows) -> NameVectors:
    """The ``NameVectors`` of a dense block (one row per vector row) and
    each record's row: every non-zero entry, bucket by bucket."""
    block = np.asarray(block, dtype=np.float64)
    n_rows, dim = block.shape
    row, bucket = np.nonzero(block)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n_rows))])
    return NameVectors(indptr, bucket, block[row, bucket], rows, dim)


def name_community_centroid(members, records, names, embeddings, rows) -> str:
    """Raw name of the member with the greatest mean cosine to the other
    members, one community at a time: ties go to the smallest cleaned name,
    then the smallest position; degenerate embeddings neither win nor vote,
    and ValueError when no member has a usable one. ``members`` are
    positions in the aligned ``records``, ``names``, ``embeddings`` and
    ``rows`` (each position's vector row). Each member's cosines are summed
    from 0.0 over the others in (row, position) order."""
    usable = sorted((m for m in members if not embeddings[m].degenerate), key=lambda m: (rows[m], m))
    if not usable:
        raise ValueError("all members have degenerate embeddings")
    if len(usable) == 1:
        return records[usable[0]].raw_name
    means = {}
    for m in usable:
        total = 0.0
        for o in usable:
            if o != m:
                total += cosine_similarity(embeddings[m].vector, embeddings[o].vector)
        means[m] = total / (len(usable) - 1)
    return records[min(usable, key=lambda m: (-means[m], names[m].cleaned, m))].raw_name


def name_community_volume(members, records, names) -> str:
    """Raw name of the member with the largest patent count; ties go to the
    smallest cleaned name, then the smallest position."""
    return records[min(members, key=lambda m: (-records[m].patent_count, names[m].cleaned, m))].raw_name


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine in [-1, 1]; exactly 1.0 for equal vectors. The dot and both
    norms add left to right over the buckets, from 0.0."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_a = ordered_norm(a)
    norm_b = ordered_norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    if np.array_equal(a, b):
        return 1.0
    value = ordered_dot(a, b) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


@dataclass(frozen=True)
class ConditionVector:
    """Evaluated conditions for one candidate pair. Token-based fields are
    None for type-2 pairs, where they are undefined rather than zero."""

    kind: NameClass
    token_common: Optional[int]
    first_token_common: Optional[int]
    url_text_common: Optional[int]
    domain_common: int
    cos: float
    cos_degenerate: bool = False

    def __post_init__(self):
        binaries = [self.token_common, self.first_token_common, self.url_text_common]
        if self.kind is NameClass.TYPE1:
            if any(b is None for b in binaries):
                raise ValueError("type-1 conditions need all three token-based fields")
            if self.first_token_common > self.token_common:
                raise ValueError("first_token_common cannot exceed token_common")
        else:
            if any(b is not None for b in binaries):
                raise ValueError("type-2 conditions must leave token-based fields unset")
        for b in binaries + [self.domain_common]:
            if b is not None and b not in (0, 1):
                raise ValueError(f"binary condition out of range: {b}")
        if not -1.0 <= self.cos <= 1.0:
            raise ValueError(f"cos out of range: {self.cos}")


def evaluate_conditions(
    a: CleanName,
    b: CleanName,
    type1_a: bool,
    type1_b: bool,
    info_a: Optional[PageInfo],
    info_b: Optional[PageInfo],
    emb_a: NameEmbedding,
    emb_b: NameEmbedding,
) -> ConditionVector:
    """Evaluate the condition vector for one same-class pair; ``type1_a``
    and ``type1_b`` are the two names' classes."""
    if type1_a != type1_b:
        raise ValueError(f"cannot pair {a.cleaned!r} (type-1: {type1_a}) with {b.cleaned!r} (type-1: {type1_b})")
    info_a = info_a or _EMPTY_INFO
    info_b = info_b or _EMPTY_INFO
    domain_common = int(info_a.domain is not None and info_a.domain == info_b.domain)
    if emb_a.degenerate or emb_b.degenerate:
        cos, cos_degenerate = 0.0, True
    else:
        cos, cos_degenerate = cosine_similarity(emb_a.vector, emb_b.vector), False
    if not type1_a:
        return ConditionVector(NameClass.TYPE2, None, None, None, domain_common, cos, cos_degenerate)
    tokens_a, tokens_b = set(a.tokens), set(b.tokens)
    token_common = int(bool(tokens_a & tokens_b))
    first_token_common = int(token_common == 1 and a.tokens[0] == b.tokens[0])
    # Both names must share a word with their own page text before the
    # cross-name intersection counts for anything.
    own_a = bool(tokens_a & info_a.url_tokens)
    own_b = bool(tokens_b & info_b.url_tokens)
    url_text_common = int(own_a and own_b and bool(info_a.url_tokens & info_b.url_tokens))
    return ConditionVector(
        NameClass.TYPE1, token_common, first_token_common, url_text_common, domain_common, cos, cos_degenerate
    )


def matching_score(conditions: ConditionVector, params: Params) -> float:
    """Scalar product of the condition vector with the class-appropriate weights of ``params``."""
    base = params.w_domain * conditions.domain_common + params.w_cos * conditions.cos
    if conditions.kind is NameClass.TYPE2:
        return base
    return (
        base
        + params.w_token * conditions.token_common
        + params.w_first_token * conditions.first_token_common
        + params.w_url_text * conditions.url_text_common
    )


def brute_force_candidates(type1) -> np.ndarray:
    """Every same-class unordered pair, the set blocking must cover, as
    ``generate_candidate_pairs`` gives pairs: ascending rows of positions
    i < j in ``type1``, the names' classes."""
    pairs = [(i, j) for i, j in itertools.combinations(range(len(type1)), 2) if type1[i] == type1[j]]
    return np.array(pairs, dtype=np.int32).reshape(-1, 2)


def reference_candidate_pairs(names, type1, infos, bound, stats=None) -> np.ndarray:
    """``generate_candidate_pairs`` as an inverted index over ``infos``, one
    ``PageInfo`` per name: each kind's key sets, a dict of position lists
    per kind, the package's kind choice priced by those lists' pair counts,
    and a set of ``i * n + j`` keys over every chosen list's pairs.
    ``stats`` receives the same ``keys``, ``largest_block`` and
    ``pair_keys``."""
    index: dict[str, dict[str, list[int]]] = {
        kind: {} for kind in ("first_token", "token", "domain", "url", "url_any", "type2_domain")
    }
    for i, (name, is_type1, info) in enumerate(zip(names, type1, infos)):
        domains = [] if info.domain is None else [info.domain]
        held = {"type2_domain": domains}
        if is_type1:
            own = bool(set(name.tokens) & info.url_tokens)
            held = {
                "first_token": name.tokens[:1],
                "token": set(name.tokens),
                "domain": domains,
                "url": info.url_tokens if own else (),
                "url_any": info.url_tokens,
            }
        for kind, keys in held.items():
            for key in keys:
                index[kind].setdefault(key, []).append(i)
    pair_counts = {
        kind: sum(len(positions) * (len(positions) - 1) // 2 for positions in lists.values())
        for kind, lists in index.items()
    }
    kinds = blocking_key_kinds(bound, pair_counts.__getitem__)
    n = len(names)
    keys: set[int] = set()
    largest = 0
    for kind in kinds:
        for positions in index[kind].values():
            largest = max(largest, len(positions))
            keys.update(i * n + j for i, j in itertools.combinations(positions, 2))
    if stats is not None:
        stats.update(keys=list(kinds), largest_block=largest, pair_keys={kind: pair_counts[kind] for kind in kinds})
    pairs = np.fromiter(keys, dtype=np.int64, count=len(keys))
    pairs.sort()
    return np.stack(np.divmod(pairs, n), axis=1).astype(np.int32)


def reference_fold_text(raw: str) -> str:
    """NFKD-fold, drop combining marks, lowercase, for every input alike."""
    decomposed = unicodedata.normalize("NFKD", raw)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch)).lower()


def reference_prepare(config, records, cache) -> Corpus:
    """``prepare_corpus`` offline, one record at a time: each record cleans
    its own name, counts its own tokens, extracts its own URL's domain (for
    the blocklist, then again for its domain code, numbered in record
    order), tokenizes its own page text and embeds its name one dense token
    vector at a time. Its ``vectors`` are a list of ``NameEmbedding``."""
    records = sorted(records, key=lambda r: r.record_id)
    results = [cache.get(record.raw_name) for record in records]
    designators = LegalDesignatorDictionary.from_file(config["parse"]["designators"])
    names = [
        clean_name(r.raw_name, res.corrected_name if res else None, designators)
        for r, res in zip(records, results)
    ]
    presence = Counter()
    for name in names:
        presence.update(set(name.tokens))
    common = build_common_word_list(presence, config["parse"]["common_words_n"])
    type1 = np.array([classify_name_type(name.tokens, common) is NameClass.TYPE1 for name in names])

    def domain(result):
        if result is None or not result.first_url:
            return None
        try:
            return extract_domain(result.first_url)
        except InputError:
            return None

    counts = Counter(d for d in map(domain, results) if d is not None)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    blocklist = {d for d, _ in ranked[: config["augment"]["blocklist_k"]]}
    codes: dict[str, int] = {}
    domain_codes, url_tokens = [], []
    for result in results:
        d = domain(result)
        domain_codes.append(-1 if d is None or d in blocklist else codes.setdefault(d, len(codes)))
        url_tokens.append(preprocess_url_text(result.first_text if result is not None else None, common))
    domain_codes = np.array(domain_codes, dtype=np.int64)
    idf = compute_idf(presence, len(names))
    vectors = [embed_name(name.tokens, ScalarHashing(), idf) for name in names]
    candidates = generate_candidate_pairs(names, type1, domain_codes, url_tokens, config.params_at({}), {})
    return Corpus(records, names, type1, domain_codes, url_tokens, vectors, candidates)


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


def brandes_bridgeness(graph: Graph) -> list[float]:
    """Bridgeness by Brandes' dependency accumulation, one source at a time
    in pure Python, with σ as exact integers: the reference for graphs too
    large for the path-enumerating oracles above.

    Per source s, a BFS counts shortest paths σ, then the BFS order is
    walked backwards to accumulate the dependency δ(v) = Σ σ_v/σ_w · (1 +
    δ(w)) over the successors w of v. Every target counted in δ(w) lies two
    or more levels below v, so none is in N[v]: a node at distance >= 2
    from s gains σ_v/σ_w · δ(w) from each successor, which is its
    bridgeness from s with nothing to subtract. Each unordered pair is
    counted from both ends, so the sums are halved. The values are by
    position."""
    n = graph.n
    offsets, neighbours = graph.offsets.tolist(), graph.neighbours.tolist()
    adjacency = [neighbours[offsets[u]:offsets[u + 1]] for u in range(n)]
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
    return [total / 2 for total in totals]


def reference_prune(graph: Graph, beta: float, stats: Optional[dict] = None) -> Graph:
    """``prune_global_bridges`` with no shortcut: computes every node's
    bridgeness (``bridgeness_centrality``, itself checked against the two
    oracles above), then removes the flagged edges from a networkx copy."""
    bridgeness = bridgeness_centrality(graph)
    cutoff = beta + _BETA_MARGIN * max(1.0, abs(beta))
    flagged = {v for v, value in enumerate(bridgeness.tolist()) if value > cutoff}
    pruned = to_networkx(graph)
    before = pruned.number_of_edges()
    pruned.remove_edges_from([(u, v) for u, v in pruned.edges if u in flagged or v in flagged])
    if stats is not None:
        stats["flagged_nodes"] = stats.get("flagged_nodes", 0) + len(flagged)
        stats["pruned_edges"] = stats.get("pruned_edges", 0) + before - pruned.number_of_edges()
    return from_networkx(pruned)


def reference_refine(graph: Graph, params: Params, stats: Optional[dict] = None) -> list[int]:
    """``refine_communities`` as one loop over the first-pass communities of
    more than 2 nodes, in id order, with no rule that settles a community
    in bulk: each one's induced subgraph (networkx's) is pruned by
    ``reference_prune``, which always computes bridgeness, and re-partitioned
    by the package's ``louvain`` when it lost an edge. Every community then
    splits into its connected components in ``graph`` (networkx's), numbered
    by smallest member. Returns each node's community and fills ``stats`` as
    ``refine_communities`` does."""
    counts = stats if stats is not None else {}
    counts.update(flagged_nodes=0, pruned_edges=0)
    first = louvain(graph, resolution=params.resolution, seed=params.seed).community
    g = to_networkx(graph)
    labels: list = list(first)
    for cid in range(len(set(first))):
        members = [v for v in range(graph.n) if first[v] == cid]
        if len(members) <= 2:
            continue
        before = counts["pruned_edges"]
        pruned = reference_prune(from_networkx(g.subgraph(members)), params.bridgeness, counts)
        if counts["pruned_edges"] > before:
            parts = louvain(pruned, resolution=params.resolution, seed=params.seed).community
            for v, part in zip(members, parts):
                labels[v] = (cid, part)
    smallest = {}
    for label in set(labels):
        for component in nx.connected_components(g.subgraph(v for v in range(graph.n) if labels[v] == label)):
            smallest.update(dict.fromkeys(component, min(component)))
    dense: dict[int, int] = {}
    community = [dense.setdefault(smallest[v], len(dense)) for v in range(graph.n)]
    if stats is not None:
        finals = {cid: {community[v] for v in range(graph.n) if first[v] == cid} for cid in set(first)}
        stats["communities_split"] = sum(len(parts) > 1 for parts in finals.values())
        stats["community_sizes"] = dict(sorted(Counter(Counter(community).values()).items()))
    return community


def reference_louvain(graph: Graph, resolution: float = 1.0, seed: int = 0) -> dict:
    """networkx's ``louvain_communities`` on ``graph`` rebuilt in networkx in
    sorted node and neighbour order, as position -> community id, communities
    numbered by their smallest member."""
    communities = nx.community.louvain_communities(
        to_networkx(graph), weight="weight", resolution=resolution, seed=seed
    )
    ordered = sorted((sorted(c) for c in communities), key=lambda c: c[0])
    return {node: cid for cid, members in enumerate(ordered) for node in members}


def from_adjacency(adj: list[dict]) -> Graph:
    """The ``Graph`` on nodes ``range(len(adj))`` whose row u lists ``adj[u]``
    in its dict order, self-loops included, as Louvain's level graphs hold
    them."""
    entries = [(u, v, w) for u, nbrs in enumerate(adj) for v, w in nbrs.items()]
    rows, neighbours, weights = np.array(entries, dtype=float).reshape(-1, 3).T
    return Graph.from_entries(len(adj), rows.astype(np.int64), neighbours.astype(np.int64), weights)


def dict_degrees(adj: list[dict]) -> list:
    """Weighted degrees as networkx's ``DegreeView`` sums them, over lists of
    neighbour dicts: a self-loop counts twice."""
    return [sum(nbrs.values()) + (u in nbrs and nbrs[u]) for u, nbrs in enumerate(adj)]


def dict_modularity(adj: list[dict], degree: list, community: list[int], resolution: float) -> float:
    """networkx's ``modularity`` of the partition of ``adj`` given by
    ``community`` (dense ids), one community at a time, its members summed
    in ascending order: a community's inner weight takes each of its edges
    once, from its smaller end, in that end's neighbour order. ``degree`` is
    ``dict_degrees(adj)``; nodes without edges are left out, as their terms
    are exactly 0."""
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


def dict_gen_graph(adj: list[dict], community: list[int]) -> list[dict]:
    """networkx's ``_gen_graph`` over lists of neighbour dicts: each edge,
    taken once from its smaller end in node order, adds its weight to the
    edge (or self-loop) between its ends' communities, which enters each
    end's dict where it first appears."""
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


def brute_bcubed(predicted: dict, gold: dict):
    """B-cubed by counting, for each gold record in ``gold``'s order, the
    members of its predicted cluster that share its entity; a record
    ``predicted`` lacks is a cluster of its own. Returns (precision, recall,
    f1)."""
    cluster = {rid: predicted[rid] if rid in predicted else object() for rid in gold}
    members: dict = {}
    for rid, cid in cluster.items():
        members.setdefault(cid, []).append(rid)
    entity_size = Counter(gold.values())
    precision_sum = 0.0
    recall_sum = 0.0
    for rid, cid in cluster.items():
        overlap = sum(1 for other in members[cid] if gold[other] == gold[rid])
        precision_sum += overlap / len(members[cid])
        recall_sum += overlap / entity_size[gold[rid]]
    precision = precision_sum / len(gold)
    recall = recall_sum / len(gold)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


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


def _colour_cells(adj: list[int]) -> list[list[int]]:
    """Colour refinement of the graph whose node ``v`` has the neighbour
    bitmask ``adj[v]``: start from degrees, then recolour every node by its
    colour and the sorted colours of its neighbours until no class splits.
    The cells come in colour order, which no relabelling changes."""
    n = len(adj)
    colour = [bin(mask).count("1") for mask in adj]
    while True:
        signature = [(colour[v], tuple(sorted(colour[u] for u in range(n) if adj[v] >> u & 1))) for v in range(n)]
        rank = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        refined = [rank[sig] for sig in signature]
        if len(rank) == len(set(colour)):
            break
        colour = refined
    cells: list[list[int]] = [[] for _ in rank]
    for v, c in enumerate(refined):
        cells[c].append(v)
    return cells


def _canonical_code(adj: list[int]) -> tuple:
    """The largest upper-triangle adjacency code over the orders that list
    the colour cells one after another, each cell's nodes in any order. The
    code holds one column per position k: the adjacency of the node at k to
    the nodes at 0..k-1, read as a binary number. Isomorphic graphs have the
    same cells up to relabelling, so they get the same code, and the code
    spells out the graph, so only they do. The orders are grown one position
    at a time, keeping those whose code so far is the largest."""
    code = []
    partial = [((), 0)]  # placed nodes, and their bitmask
    for cell in _colour_cells(adj):
        for _ in cell:
            best, grown = -1, []
            for placed, mask in partial:
                for v in cell:
                    if mask >> v & 1:
                        continue
                    column = 0
                    for u in placed:
                        column = column << 1 | (adj[v] >> u & 1)
                    if column >= best:
                        if column > best:
                            best, grown = column, []
                        grown.append((placed + (v,), mask | 1 << v))
            partial = grown
            code.append(best)
    return tuple(code)


def connected_graphs(max_n: int) -> dict:
    """All connected graphs up to isomorphism, keyed by node count.

    Level-wise construction: every connected graph on n nodes arises from one
    on n-1 nodes by attaching a new vertex to a nonempty subset (delete any
    non-cut vertex to see this). A candidate is kept when its canonical code
    is new, so the counts are exact. Graphs are neighbour bitmasks while
    they are enumerated; each kept one becomes a networkx graph whose nodes
    and edges are added in the order the construction attached them.
    """
    levels = {1: [[0]]}
    for n in range(2, max_n + 1):
        seen = set()
        out = []
        subsets = [
            sum(1 << u for u in chosen) for r in range(1, n) for chosen in itertools.combinations(range(n - 1), r)
        ]
        for parent in levels[n - 1]:
            for subset in subsets:
                g = [mask | (subset >> u & 1) << (n - 1) for u, mask in enumerate(parent)] + [subset]
                code = _canonical_code(g)
                if code not in seen:
                    seen.add(code)
                    out.append(g)
        levels[n] = out
    graphs = {}
    for n, level in levels.items():
        graphs[n] = []
        for adj in level:
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from((v, u) for v in range(n) for u in range(v) if adj[v] >> u & 1)
            graphs[n].append(g)
    return graphs


# Known counts of connected graphs up to isomorphism, n = 1..8.
CONNECTED_GRAPH_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]
