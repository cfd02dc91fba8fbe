"""Token vectors and name embeddings.

Token vectors come from deterministic character-3-gram feature hashing, so
the pipeline needs no model files. Name embeddings are idf-weighted means of
token vectors, held as sparse rows.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .parse import CleanName


class HashingBackend:
    """Signed feature hashing over character 3-grams of ``^token$``:
    deterministic in (token, dim) across processes and platforms, no state,
    no vocabulary, never OOV. A token's vector is its grams' signs summed per
    bucket and scaled to unit norm, or 1.0 in one parked bucket when they all
    cancel."""

    def __init__(self, dim: int = 256):
        self.dim = dim

    def grams(self, token: str) -> list[str]:
        marked = f"^{token}$"
        return [marked[i : i + 3] for i in range(len(marked) - 2)]

    # The "0:" and "0!" prefixes are part of the pinned hash scheme.
    def hash_grams(self, grams: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Each gram's bucket (int64) and sign (float64 +-1.0), read from its
        9-byte digest: the first eight bytes, big-endian, modulo ``dim``, and
        the low bit of the ninth. The digests are stacked and read in one
        numpy pass."""
        digests = b"".join([hashlib.blake2b(f"0:{gram}".encode("utf-8"), digest_size=9).digest() for gram in grams])
        stacked = np.frombuffer(digests, dtype=np.dtype([("bucket", ">u8"), ("sign", "u1")]))
        return (stacked["bucket"] % self.dim).astype(np.int64), np.where(stacked["sign"] & 1, 1.0, -1.0)

    def parked_bucket(self, token: str) -> int:
        digest = hashlib.blake2b(f"0!{token}".encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.dim


# The idf weight of a token present in every name.
IDF_FLOOR = 0.01


def compute_idf(counts: Mapping[str, int], n_names: int) -> dict[str, float]:
    """Each token's idf weight, from ``counts`` (how many of ``n_names``
    names hold it): idf_i = ln(N / n_i), min-max rescaled over the observed
    range to (IDF_FLOOR, 1]. A token present in every name gets the floor;
    the rarest gets exactly 1. Corpora with a single distinct raw idf map
    every token to 1.
    """
    if not counts:
        return {}
    raw = {t: math.log(n_names / c) for t, c in counts.items()}
    lo = min(raw.values())
    hi = max(raw.values())
    if hi == lo:
        return {t: 1.0 for t in raw}
    span = hi - lo
    # Pin the endpoints so the rarest token is exactly 1 and the most
    # common exactly the floor, independent of rounding.
    return {
        t: 1.0 if r == hi else IDF_FLOOR if r == lo else IDF_FLOOR + (1.0 - IDF_FLOOR) * (r - lo) / span
        for t, r in raw.items()
    }


@dataclass(eq=False)
class NameEmbedding:
    vector: np.ndarray
    degenerate: bool


class NameVectors(Mapping[int, NameEmbedding]):
    """Name vectors as sparse rows over ``dim`` buckets, in CSR form: row r
    holds the entries ``data[indptr[r]:indptr[r + 1]]`` at the ascending
    ``buckets`` of the same slice, and no entry is 0.0, so two rows hold
    equal vectors exactly when their slices are equal. The record at
    position i holds row ``rows[i]``, and records with the same token list
    share one row. Each row's norm is the square root of its entries'
    squares added from 0.0 in bucket order. A record whose row has norm zero
    has no cosine and is flagged ``degenerate``. As a mapping, record
    position -> that record's ``NameEmbedding``, its row as a dense vector."""

    def __init__(self, indptr: np.ndarray, buckets: np.ndarray, data: np.ndarray, rows: Sequence[int], dim: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.buckets = np.asarray(buckets, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.dim = dim
        n_rows = len(self.indptr) - 1
        entry_row = np.repeat(np.arange(n_rows), np.diff(self.indptr))
        self.norms = np.sqrt(np.bincount(entry_row, self.data * self.data, minlength=n_rows))
        self.degenerate = (self.norms == 0.0)[self.rows]

    def __getitem__(self, position: int) -> NameEmbedding:
        row = self.rows[position]
        entries = slice(self.indptr[row], self.indptr[row + 1])
        vector = np.zeros(self.dim)
        vector[self.buckets[entries]] = self.data[entries]
        return NameEmbedding(vector, bool(self.degenerate[position]))

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.rows)))

    def __len__(self) -> int:
        return len(self.rows)


def group_keys(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of ``key``, a non-negative integer array, in
    ascending order; the position in ``key`` of each one's first entry; and
    for each entry of ``key``, the index of its value among the distinct
    ones. One stable sort and a diff do it, in less memory than
    ``np.unique``."""
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    new = np.diff(ranked, prepend=-1) != 0
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], order[new], inverse


def _sum_by_key(key: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value of ``key``, ascending, and the sum of its
    ``weights`` added from 0.0 in input order by ``np.bincount``."""
    key, _, inverse = group_keys(key)
    return key, np.bincount(inverse, weights)


def _token_entries(distinct: Sequence[str], backend: HashingBackend) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-zero entries of the unit vectors of the tokens ``distinct``,
    as (token position, bucket, value) ordered by token then bucket."""
    token_grams = [backend.grams(token) for token in distinct]
    all_grams = list(itertools.chain.from_iterable(token_grams))
    gram_index = {g: k for k, g in enumerate(dict.fromkeys(all_grams))}
    gram = np.fromiter(map(gram_index.__getitem__, all_grams), dtype=np.int64, count=len(all_grams))
    gram_bucket, gram_sign = backend.hash_grams(list(gram_index))
    # Each distinct token's (bucket, count) groups, ordered by token then bucket.
    key = np.repeat(np.arange(len(distinct)) * backend.dim, [len(grams) for grams in token_grams])
    key, counts = _sum_by_key(key + gram_bucket[gram], gram_sign[gram])
    token, bucket = np.divmod(key, backend.dim)
    # Small integer counts: every summation order is exact.
    norm = np.sqrt(np.bincount(token, counts * counts, minlength=len(distinct)))
    # A zero count adds nothing to a row. A token whose counts are all zero
    # is parked instead: 1.0 in one bucket, in its place among the tokens.
    kept = counts != 0.0
    token, bucket, values = token[kept], bucket[kept], counts[kept] / norm[token[kept]]
    parked = np.flatnonzero(norm == 0.0)
    at = np.searchsorted(token, parked)
    token = np.insert(token, at, parked)
    bucket = np.insert(bucket, at, [backend.parked_bucket(distinct[t]) for t in parked.tolist()])
    values = np.insert(values, at, 1.0)
    return token, bucket, values


def _entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the entries of ``rows``, each row's CSR slice of
    ``indptr`` in turn, and the index in ``rows`` each one belongs to."""
    length = indptr[rows + 1] - indptr[rows]
    owner = np.repeat(np.arange(len(rows)), length)
    return np.arange(len(owner)) + np.repeat(indptr[rows] - (np.cumsum(length) - length), length), owner


def embed_corpus(names: Sequence[CleanName], backend: HashingBackend, idf: Mapping[str, float]) -> NameVectors:
    """Each name's mean of its token vectors, weighted by ``idf``, which
    holds every token of ``names``: one sparse row per distinct token list in
    first-seen order of ``names``. The distinct grams of the distinct tokens
    are hashed in one ``backend.hash_grams`` call. One
    stable sort of (token, bucket) keys groups each token's grams by bucket
    and ``np.bincount`` sums their signs. One more stable sort groups each
    row's weighted token entries by (row, bucket), and ``np.bincount`` adds
    each group in token order, as a dense sum over the tokens does, so each
    row is bit for bit ``embed_name`` in ``tests/oracles.py``; entries that
    come to 0.0 are dropped. An empty token list, and cancelling tokens (the
    hashed ``b`` and ``p`` are exact negatives), leave an empty, degenerate
    row."""
    row_of: dict[tuple[str, ...], int] = {}
    rows = [row_of.setdefault(name.tokens, len(row_of)) for name in names]
    distinct = list(dict.fromkeys(itertools.chain.from_iterable(row_of)))
    token_index = {token: k for k, token in enumerate(distinct)}
    token, bucket, values = _token_entries(distinct, backend)
    n_rows = len(row_of)
    row = np.repeat(np.arange(n_rows), [len(tokens) for tokens in row_of])
    occurrence = np.fromiter(map(token_index.__getitem__, itertools.chain.from_iterable(row_of)), np.int64, len(row))
    weight = np.array([idf[t] for t in distinct], dtype=np.float64)[occurrence]
    size = np.bincount(token, minlength=len(distinct))
    entry, owner = _entries(np.concatenate([[0], np.cumsum(size)]), occurrence)
    # Each (row, bucket) group adds its token entries in token order.
    key, sums = _sum_by_key(row[owner] * backend.dim + bucket[entry], weight[owner] * values[entry])
    entry_row, entry_bucket = np.divmod(key, backend.dim)
    data = sums / np.bincount(row, weight, minlength=n_rows)[entry_row]
    kept = data != 0.0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(entry_row[kept], minlength=n_rows))])
    return NameVectors(indptr, entry_bucket[kept], data[kept], rows, backend.dim)


# Distinct row pairs per batch in ``pair_cosines``: the batch's gathered
# entries are its only temporaries.
_CHUNK_PAIRS = 1024


def pair_cosines(vectors: NameVectors, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine in [-1, 1] of the vectors of the records at positions ``a[k]``
    and ``b[k]``, none of them degenerate, bit for bit the scalar
    ``cosine_similarity`` in ``tests/oracles.py``. Each distinct unordered
    pair of rows is computed once, by ``_cosines`` in batches of
    ``_CHUNK_PAIRS``, and copied to every pair holding it; two records on
    one row get exactly 1.0."""
    rows, norms = vectors.rows, vectors.norms
    key, _, inverse = group_keys(np.minimum(rows[a], rows[b]) * len(norms) + np.maximum(rows[a], rows[b]))
    i, j = np.divmod(key, len(norms))
    cos = np.ones(len(i))
    differ = np.flatnonzero(i != j)
    for start in range(0, len(differ), _CHUNK_PAIRS):
        batch = differ[start : start + _CHUNK_PAIRS]
        cos[batch] = _cosines(vectors, i[batch], j[batch])
    return cos[inverse]


def _cosines(vectors: NameVectors, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The cosines of rows ``x[k]`` and ``y[k]``, for a nondecreasing ``x``.
    Each dot adds, from 0.0 in bucket order, every entry of row y[k] times
    row x[k]'s entry at the same bucket, found among the (x row, bucket)
    keys of the batch's distinct x rows; so it is symmetric, and the same on
    every machine. Rows with equal entries get exactly 1.0."""
    indptr, buckets, data = vectors.indptr, vectors.buckets, vectors.data
    first = np.diff(x, prepend=-1) != 0
    slot, distinct = np.cumsum(first) - 1, x[first]
    # The distinct x rows' entries and their (slot, bucket) keys, ascending.
    own, owner = _entries(indptr, distinct)
    keys = owner * vectors.dim + buckets[own]
    length = indptr[y + 1] - indptr[y]
    entry, pair = _entries(indptr, y)
    wanted = slot[pair] * vectors.dim + buckets[entry]
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    found = keys[at] == wanted
    pair, mine, theirs = pair[found], data[entry[found]], data[own[at[found]]]
    dots = np.bincount(pair, mine * theirs, minlength=len(x))
    same = (np.bincount(pair, mine == theirs, minlength=len(x)) == length) & (length == indptr[x + 1] - indptr[x])
    # fmin/fmax clamp NaN to 1.0, as the scalar max/min do.
    cos = np.fmax(-1.0, np.fmin(1.0, dots / (vectors.norms[x] * vectors.norms[y])))
    return np.where(same, 1.0, cos)
