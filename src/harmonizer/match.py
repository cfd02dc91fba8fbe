"""Pairwise matching: inverted-index candidate generation, condition vectors,
the weighted matching score, and the columnar pair table of scored pairs.

Type-1 names score over five conditions (token, first-token, url-text, domain,
cosine); type-2 names, made entirely of common words, score over domain and
cosine only. The two classes are never paired with each other. With unit
weights the score lives in [-1, 5] for type-1 and [-1, 2] for type-2.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property, reduce
from operator import add
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence

import numpy as np

from .embed import NameVectors, pair_cosines
from .errors import InputError
from .ingest import AssigneeRecord
from .parse import CleanName

PAIRS_HEADER = ["id_a", "id_b", "token", "first", "urltext", "domain", "cos", "score"]


@dataclass(frozen=True)
class WeightVector:
    token: float = 1.0
    first_token: float = 1.0
    url_text: float = 1.0
    domain: float = 1.0
    cos: float = 1.0

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not math.isfinite(value) or value < 0:
                raise InputError(f"weight {name} must be finite and >= 0, got {value}")

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class PairTable:
    """Candidate pairs as columns, one row per pair, sorted by (id_a, id_b).

    ``a`` and ``b`` index ``ids``, those of the scored ``Corpus``. ``token``
    is 1 when the two names share a token, ``first`` when they also share
    their first token, ``url`` when each name shares a word with its own
    page text and the two pages share a word, and ``domain`` when both hold
    the same domain code in ``Corpus.domain`` and it is not -1; type-2 rows
    hold 0 in the three token-based columns. ``location`` is 1 when the two
    records share a location key; it adds the graph's location boost and is
    not a matching condition. ``cos`` is the
    embedding cosine, 0 when either embedding is degenerate. ``score_pairs``
    fills int32 indices and uint8 conditions; the scalar
    ``evaluate_conditions`` in ``tests/oracles.py`` is its pair-by-pair
    oracle.
    """

    ids: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray
    type1: np.ndarray
    token: np.ndarray
    first: np.ndarray
    url: np.ndarray
    domain: np.ndarray
    location: np.ndarray
    cos: np.ndarray

    def __post_init__(self):
        n = len(self)
        columns = (self.b, self.type1, self.token, self.first, self.url, self.domain, self.location, self.cos)
        if any(len(col) != n for col in columns):
            raise ValueError("pair table columns differ in length")
        key = self.a.astype(np.int64) * len(self.ids) + self.b
        binary = [(col == 0) | (col == 1) for col in (self.token, self.first, self.url, self.domain, self.location)]
        checks = (
            ((self.a >= 0) & (self.a < self.b) & (self.b < len(self.ids)), "pair ids must satisfy id_a < id_b"),
            (np.logical_and.reduce(binary), "binary condition out of range"),
            (self.first <= self.token, "first_token_common cannot exceed token_common"),
            (self.type1 | ((self.token == 0) & (self.url == 0)), "type-2 rows must leave token-based fields unset"),
            ((self.cos >= -1.0) & (self.cos <= 1.0), "cos out of range"),
            (np.r_[True, key[1:] >= key[:-1]], "rows must be sorted by (id_a, id_b)"),
        )
        for ok, reason in checks:
            if not ok.all():
                raise ValueError(f"row {int(np.argmin(ok))}: {reason}")

    def __len__(self) -> int:
        return len(self.a)

    @cached_property
    def _conditions(self) -> tuple[np.ndarray, ...]:
        # float64 once per table: numpy 1.x would scale a uint8 column in float16.
        return tuple(c.astype(np.float64) for c in (self.token, self.first, self.url, self.domain))

    def scores(self, weights: WeightVector) -> np.ndarray:
        """The weighted sum of every row's conditions, over domain and cos
        only for type-2 rows. Terms are added in one fixed order, which a
        matmul would not keep, so each score is bit for bit the scalar
        ``matching_score`` in ``tests/oracles.py``."""
        token, first, url, domain = self._conditions
        base = weights.domain * domain + weights.cos * self.cos
        full = base + weights.token * token + weights.first_token * first + weights.url_text * url
        return np.where(self.type1, full, base)


@dataclass(frozen=True)
class ScoreBound:
    """Weights and edge threshold: blocking only has to keep the pairs whose
    score can still reach ``threshold`` under ``weights``."""

    weights: WeightVector
    threshold: float


# Type-1 key kinds a bound may choose from, each with the conditions whose
# firing guarantees the pair shares a key of that kind. first_token implies
# token, so a shared token key also covers it. "url" indexes only records
# whose name shares a word with their own page text, which url_text_common
# needs on both sides.
_KIND_COVERS: dict[str, frozenset[str]] = {
    "first_token": frozenset({"first_token"}),
    "token": frozenset({"token", "first_token"}),
    "domain": frozenset({"domain"}),
    "url": frozenset({"url_text"}),
}
# The index for a bound that cos alone can reach: every token, every url
# token and every domain. It keeps every pair that fires a binary condition,
# but not a pair whose cosine alone reaches the threshold and that shares no
# key: mostly type-2 names without a domain.
FULL_INDEX = ("token", "url_any", "domain", "type2_domain")
# Keeps float rounding in the score on the safe side of the bound.
_BOUND_SLACK = 1e-9
# Pair keys made per step while the candidate buffer fills.
_CHUNK_PAIRS = 1 << 16


def _blocking_keys(
    names: Sequence[CleanName], type1: np.ndarray, domain: np.ndarray, url_tokens: Sequence[frozenset[str]]
) -> dict[str, dict]:
    """Key kind -> {position: key set} over the names in ``names``, positions
    ascending, for every kind either index may use; ``type1``, ``domain``
    (codes, -1 for none) and ``url_tokens`` are aligned with ``names``
    (records with the same page share one url key set). Type-2 names carry
    domain keys only, under their own kind."""
    held: dict[str, dict] = {k: {} for k in ("first_token", "token", "domain", "url", "url_any", "type2_domain")}
    for i, (name, is_type1, code, page) in enumerate(zip(names, type1, domain.tolist(), url_tokens, strict=True)):
        codes = () if code < 0 else (code,)
        if not is_type1:
            held["type2_domain"][i] = codes
            continue
        tokens = frozenset(name.tokens)
        held["first_token"][i] = name.tokens[:1]
        held["token"][i] = tokens
        held["domain"][i] = codes
        held["url_any"][i] = page
        if not tokens.isdisjoint(page):
            held["url"][i] = page
    return held


def _pairs_cost(held: Iterable[Collection]) -> int:
    """Sum of C(|bucket|, 2) over ``held``, one key set per record; each distinct set counts once, times its holders."""
    key_sets = Counter(held)
    counts = Counter(itertools.chain.from_iterable(key_sets))
    for keys, holders in key_sets.items():
        if holders > 1:
            for key in keys:
                counts[key] += holders - 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def blocking_key_kinds(bound: ScoreBound, cost: Callable[[str], int]) -> tuple[str, ...]:
    """Key kinds to index so that every pair able to score >= the bound's
    threshold shares at least one key.

    The score is a weighted sum of binary conditions plus ``w_cos * cos`` with
    cos <= 1, so a set of fired conditions can reach the threshold only if its
    weights sum to at least ``threshold - w_cos``. A choice of type-1 kinds is
    valid when it covers a condition of every such set; among valid choices
    the one with the least estimated work (``cost``: pairs of a kind) wins.
    Type-2 names can fire the domain condition only. When cos alone can
    reach the threshold, the full index is returned and ``cost`` is not
    called; otherwise it is called once per kind.
    """
    w = bound.weights.as_dict()
    needed = bound.threshold - _BOUND_SLACK - w["cos"]
    if needed <= 0:
        return FULL_INDEX
    costs = {kind: cost(kind) for kind in _KIND_COVERS}
    conditions = ("token", "first_token", "url_text", "domain")
    # Added left to right from 0.0: from Python 3.12, sum() compensates.
    reaching = [
        set(fired)
        for r in range(1, len(conditions) + 1)
        for fired in itertools.combinations(conditions, r)
        if ("first_token" not in fired or "token" in fired) and reduce(add, (w[c] for c in fired), 0.0) >= needed
    ]
    best: Optional[tuple[int, tuple[str, ...]]] = None
    for r in range(len(_KIND_COVERS) + 1):
        for kinds in itertools.combinations(_KIND_COVERS, r):
            covered = set().union(*(_KIND_COVERS[k] for k in kinds))
            if all(fired & covered for fired in reaching):
                total = sum(costs[k] for k in kinds)
                if best is None or total < best[0]:
                    best = (total, kinds)
    kinds = best[1]
    if w["domain"] >= needed:
        kinds += ("type2_domain",)
    return kinds


def _key_buckets(held: Mapping[int, Collection]) -> tuple[np.ndarray, np.ndarray]:
    """The positions of ``held`` (position -> key set) grouped by key: each
    key's holders in ascending order, keys in order of first holder, and the
    size of each key's bucket."""
    codes: dict = {}
    positions: list[int] = []
    keys: list[int] = []
    for i, key_set in held.items():
        for key in key_set:
            positions.append(i)
            keys.append(codes.setdefault(key, len(codes)))
    code = np.array(keys, dtype=np.int64)
    # A stable sort keeps each bucket's positions ascending, as held lists them.
    order = np.argsort(code, kind="stable")
    return np.array(positions, dtype=np.int64)[order], np.bincount(code, minlength=len(codes))


def generate_candidate_pairs(
    names: Sequence[CleanName],
    type1: np.ndarray,
    domain: np.ndarray,
    url_tokens: Sequence[frozenset[str]],
    bound: ScoreBound,
    stats: Optional[dict] = None,
) -> np.ndarray:
    """Blocked candidate pairs: same ``type1`` flag and at least one shared index key.
    ``type1``, ``domain`` and ``url_tokens`` are the ``Corpus`` columns of
    ``names``; the domain kinds are keyed on the domain codes.

    Only the key kinds that ``blocking_key_kinds`` picks are indexed. When
    cos alone cannot reach the bound's threshold, every pair able to reach
    it shares a key of those kinds. When cos alone can, the full index is
    used: it holds every name token, domain and url token of type-1 names,
    and the domains of type-2 names (the only condition they can fire), so
    every pair able to fire a binary condition shares a key. A same-class
    pair that fires none is not a candidate even if its cosine reaches the
    threshold; finding those needs an exact cosine join. When a choice is
    made, each kind the bound can choose is priced from key counts alone,
    once per distinct key set.

    The pair keys ``i * n + j`` of every chosen kind's buckets go into one
    int64 buffer, sized by their count before any is made and filled
    ``_CHUNK_PAIRS`` at a time; the buffer is sorted in place and its
    repeats dropped, so memory is about 8 bytes per pair key.
    ``stats``, when given, receives the kinds used (``keys``), the size of
    the largest block (``largest_block``) and each kind's pair keys before
    deduplication (``pair_keys``). Output is an int32 ``(n, 2)`` array
    holding each unordered pair once as positions ``i < j`` in ``names``,
    rows ascending.
    """
    held = _blocking_keys(names, type1, domain, url_tokens)
    kinds = blocking_key_kinds(bound, lambda kind: _pairs_cost(held[kind].values()))
    buckets = [_key_buckets(held[kind]) for kind in kinds]
    empty = np.zeros(0, dtype=np.int64)
    positions = np.concatenate([empty, *(p for p, _ in buckets)])
    sizes = np.concatenate([empty, *(s for _, s in buckets)])
    # Entry k of positions pairs with the entries after it in its bucket:
    # counts[k] pairs, which end at pair key done[k] of the buffer.
    counts = np.repeat(np.cumsum(sizes), sizes) - 1 - np.arange(len(positions))
    done = np.cumsum(counts)
    # Pair (i, j) is kept as the key i * n + j, which sorts as (i, j) does.
    n = len(names)
    keys = np.empty(int(counts.sum()), dtype=np.int64)
    # Each step fills the pairs of whole entries, at most _CHUNK_PAIRS keys
    # unless one entry alone has more.
    start = filled = 0
    while filled < len(keys):
        stop = max(int(np.searchsorted(done, filled + _CHUNK_PAIRS, side="right")), start + 1)
        c = counts[start:stop]
        end = int(done[stop - 1])
        partner = np.repeat(np.arange(start + 1, stop + 1) - (np.cumsum(c) - c), c)
        partner += np.arange(end - filled)
        np.take(positions, partner, out=keys[filled:end])
        keys[filled:end] += np.repeat(positions[start:stop] * n, c)
        start, filled = stop, end
    if stats is not None:
        stats["keys"] = list(kinds)
        stats["largest_block"] = int(sizes.max(initial=0))
        stats["pair_keys"] = {kind: int((s * (s - 1) // 2).sum()) for kind, (_, s) in zip(kinds, buckets)}
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    pairs = np.empty((len(keys), 2), dtype=np.int32)
    np.floor_divide(keys, n, out=pairs[:, 0], casting="unsafe")
    np.remainder(keys, n, out=pairs[:, 1], casting="unsafe")
    return pairs


@dataclass(frozen=True, eq=False)
class Corpus:
    """The prepared corpus every stage after blocking reads, in one record
    order: entry i of ``records``, ``names``, ``type1``, ``domain`` and
    ``url_tokens`` and record i of ``vectors`` belong to ``ids[i]``, and the
    ids ascend strictly. ``type1`` is a bool array, true where the name is
    type-1. ``domain`` and ``url_tokens`` are the two columns of
    ``build_domain_info``: int64 domain codes, -1 for none, and page token
    sets. ``candidates`` holds ascending rows of positions ``i < j``, as
    ``generate_candidate_pairs`` returns. Construction raises ValueError
    when the columns differ in length or the ids do not ascend."""

    records: Sequence[AssigneeRecord]
    names: Sequence[CleanName]
    type1: np.ndarray
    domain: np.ndarray
    url_tokens: Sequence[frozenset[str]]
    vectors: NameVectors
    candidates: np.ndarray

    def __post_init__(self):
        columns = (self.records, self.names, self.type1, self.domain, self.url_tokens, self.vectors)
        if len({len(col) for col in columns}) > 1:
            raise ValueError("records, names, type1, domain, url_tokens and vectors differ in length")
        if any(x >= y for x, y in zip(self.ids, self.ids[1:])):
            raise ValueError("record ids must be strictly ascending")

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.record_id for r in self.records)


def score_pairs(corpus: Corpus) -> PairTable:
    """Evaluate the conditions of every candidate pair of ``corpus`` into a
    PairTable whose ``ids`` are the corpus's and whose ``a`` and ``b`` are
    its candidates. Per-record data (token set, first token, own-page flag,
    locations) is gathered once; per pair only set intersections remain,
    the domain condition is one array expression over the domain codes, and
    ``pair_cosines`` computes each distinct pair of vector rows once."""
    names, type1, domain, url_tokens = corpus.names, corpus.type1, corpus.domain, corpus.url_tokens
    a, b = np.asarray(corpus.candidates, dtype=np.int32).reshape(-1, 2).T
    mixed = np.flatnonzero(type1[a] != type1[b])
    if len(mixed):
        ids = corpus.ids
        raise ValueError(f"cannot pair {ids[a[mixed[0]]]!r} with {ids[b[mixed[0]]]!r}: different name classes")
    tokens = [frozenset(n.tokens) for n in names]
    own = np.array([bool(t & page) for t, page in zip(tokens, url_tokens)], dtype=bool)

    def intersect(sets: Sequence[frozenset], rows: np.ndarray) -> list[bool]:
        return [not sets[i].isdisjoint(sets[j]) for i, j in zip(a[rows].tolist(), b[rows].tolist())]

    token, url = np.zeros((2, len(a)), dtype=np.uint8)
    rows = np.flatnonzero(type1[a])
    token[rows] = intersect(tokens, rows)
    rows = np.flatnonzero(type1[a] & own[a] & own[b])
    url[rows] = intersect(url_tokens, rows)
    firsts: dict[tuple[str, ...], int] = {}
    first_code = np.array([firsts.setdefault(n.tokens[:1], len(firsts)) for n in names], dtype=np.int64)
    first = token & (first_code[a] == first_code[b])
    same_domain = ((domain[a] >= 0) & (domain[a] == domain[b])).astype(np.uint8)
    location = np.array(intersect([r.locations for r in corpus.records], np.arange(len(a))), dtype=np.uint8)
    cos = np.zeros(len(a))
    live = np.flatnonzero(~(corpus.vectors.degenerate[a] | corpus.vectors.degenerate[b]))
    cos[live] = pair_cosines(corpus.vectors, a[live], b[live])
    return PairTable(corpus.ids, a, b, type1[a], token, first, url, same_domain, location, cos)


def write_scored_pairs(table: PairTable, scores: np.ndarray, path: str | Path, threshold: float = -math.inf) -> None:
    """Write the rows whose score is >= ``threshold``, in table order."""
    rows = np.flatnonzero(scores >= threshold)
    # token, first and url by the binary code type1 token first url; empty for type 2.
    binaries = ["\t\t"] * 8 + [f"{t}\t{f}\t{u}" for t in (0, 1) for f in (0, 1) for u in (0, 1)]
    code = table.type1[rows] * 8 + table.token[rows] * 4 + table.first[rows] * 2 + table.url[rows]
    columns = (table.a[rows], table.b[rows], code, table.domain[rows], table.cos[rows], scores[rows])
    ids = table.ids
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("\t".join(PAIRS_HEADER) + "\n")
        # 1,024 rows per write: one string for the whole table would grow with it.
        for start in range(0, len(rows), 1024):
            chunk = zip(*(col[start : start + 1024].tolist() for col in columns))
            lines = [f"{ids[i]}\t{ids[j]}\t{binaries[c]}\t{domain}\t{cos:.12g}\t{score:.12g}\n"
                     for i, j, c, domain, cos, score in chunk]
            fh.write("".join(lines))
