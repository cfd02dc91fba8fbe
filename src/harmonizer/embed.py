"""Token vectors and name embeddings.

Token vectors come from deterministic character-3-gram feature hashing, so
the pipeline needs no model files. Name embeddings are idf-weighted means of
token vectors, held as the rows of one block.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .parse import CleanName

MIN_HASH_DIM = 32


class HashingBackend:
    """Signed feature hashing over character 3-grams of ``^token$``:
    deterministic in (token, dim) across processes and platforms, no state,
    no vocabulary, never OOV. A token's vector is its grams' signs summed per
    bucket and scaled to unit norm, or 1.0 in one parked bucket when they all
    cancel."""

    def __init__(self, dim: int = 256):
        if dim < MIN_HASH_DIM:
            raise ConfigError(f"hashing dim must be >= {MIN_HASH_DIM}, got {dim}")
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
    degenerate: bool = False


class NameVectors(Mapping[int, NameEmbedding]):
    """Name vectors as the rows of one float64 block (rows x dim): the
    record at position i holds row ``rows[i]``, and records with the same
    token list share one row. Each row's norm is computed once. A record
    whose row has norm zero has no cosine and is flagged ``degenerate``. As
    a mapping, record position -> that record's ``NameEmbedding``."""

    def __init__(self, block: np.ndarray, rows: Sequence[int]):
        self.block = block
        self.rows = np.asarray(rows, dtype=np.int64)
        # What np.linalg.norm computes for a 1-D float array, sqrt(row.dot(row)),
        # bit for bit: a stack of (1 x dim) @ (dim x 1) products.
        self.norms = np.sqrt(np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0])
        self.degenerate = (self.norms == 0.0)[self.rows]

    def __getitem__(self, position: int) -> NameEmbedding:
        return NameEmbedding(self.block[self.rows[position]], bool(self.degenerate[position]))

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.rows)))

    def __len__(self) -> int:
        return len(self.rows)


def embed_corpus(names: Sequence[CleanName], backend: HashingBackend, idf: Mapping[str, float]) -> NameVectors:
    """Each name's mean of its token vectors, weighted by ``idf``, which
    holds every token of ``names``: one block row per distinct token list in
    first-seen order of ``names``. The distinct grams of the distinct tokens
    are hashed in one ``backend.hash_grams`` call. One
    stable sort of (token, bucket) keys groups each token's grams by bucket
    and ``np.bincount`` sums their signs; one more ``np.bincount`` then adds
    each row's weighted token entries in token order, as a dense sum over the
    tokens does, so each row is bit for bit ``embed_name`` in
    ``tests/oracles.py``. Cancelling tokens (the hashed ``b`` and ``p`` are
    exact negatives) leave a zero, degenerate row."""
    row_of: dict[tuple[str, ...], int] = {}
    rows = [row_of.setdefault(name.tokens, len(row_of)) for name in names]
    if () in row_of:
        raise InputError(f"cannot embed the empty token list of the name at position {rows.index(row_of[()])}")
    distinct = list(dict.fromkeys(itertools.chain.from_iterable(row_of)))
    token_index = {token: k for k, token in enumerate(distinct)}
    token_grams = [backend.grams(token) for token in distinct]
    all_grams = list(itertools.chain.from_iterable(token_grams))
    gram_index = {g: k for k, g in enumerate(dict.fromkeys(all_grams))}
    gram = np.fromiter(map(gram_index.__getitem__, all_grams), dtype=np.int64, count=len(all_grams))
    gram_bucket, gram_sign = backend.hash_grams(list(gram_index))
    # Each distinct token's (bucket, count) groups, ordered by token then bucket.
    key = np.repeat(np.arange(len(distinct)) * backend.dim, [len(grams) for grams in token_grams])
    key += gram_bucket[gram]
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.diff(key, prepend=-1) != 0
    counts = np.bincount(np.cumsum(new) - 1, gram_sign[gram[order]])
    token, bucket = np.divmod(key[new], backend.dim)
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
    n_rows = len(row_of)
    row = np.repeat(np.arange(n_rows), [len(tokens) for tokens in row_of])
    occurrence = np.fromiter(map(token_index.__getitem__, itertools.chain.from_iterable(row_of)), np.int64, len(row))
    weight = np.array([idf[t] for t in distinct], dtype=np.float64)[occurrence]
    # Each distinct token's entries start at first[token].
    size = np.bincount(token, minlength=len(distinct))
    first = np.cumsum(size) - size
    length = size[occurrence]
    # Entry k of an occurrence is entry first[token] + k of its token.
    entry = np.arange(int(length.sum())) + np.repeat(first[occurrence] - (np.cumsum(length) - length), length)
    bins = np.repeat(row * backend.dim, length) + bucket[entry]
    added = np.repeat(weight, length) * values[entry]
    block = np.bincount(bins, added, minlength=n_rows * backend.dim).reshape(n_rows, backend.dim)
    block /= np.bincount(row, weight, minlength=n_rows)[:, None]
    return NameVectors(block, rows)


def pair_cosines(vectors: NameVectors, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine in [-1, 1] of the vectors of the records at positions ``a[k]``
    and ``b[k]``, bit for bit the scalar
    ``cosine_similarity`` in ``tests/oracles.py``. Each distinct unordered
    pair of block rows is computed once, smaller row first, and copied to
    every pair holding it. Rows whose norms agree to 1e-12 are compared
    element by element, and equal vectors get exactly 1.0; every other row
    pair costs one ``np.dot``: a batched product would sum in another order.
    Some BLAS kernels (OpenBLAS's Prescott) round a row's dot and norm by its
    memory alignment, so ``np.dot`` need not be symmetric, nor equal rows'
    norms equal."""
    rows, norms, block = vectors.rows, vectors.norms, vectors.block
    if vectors.degenerate[a].any() or vectors.degenerate[b].any():
        raise ValueError("cosine undefined for zero-norm vector")
    # One stable sort over the unordered row-pair keys groups equal pairs.
    key = np.minimum(rows[a], rows[b]) * len(block) + np.maximum(rows[a], rows[b])
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.diff(key, prepend=-1) != 0
    i, j = np.divmod(key[new], len(block))
    same = np.isclose(norms[i], norms[j], rtol=1e-12, atol=0.0)
    same[same] = [x == y or np.array_equal(block[x], block[y]) for x, y in zip(i[same].tolist(), j[same].tolist())]
    differ = np.flatnonzero(~same)
    ri, rj = i[differ], j[differ]
    dots = np.array([block[x].dot(block[y]) for x, y in zip(ri.tolist(), rj.tolist())], dtype=np.float64)
    cos = np.ones(len(i))
    # fmin/fmax clamp NaN to 1.0, as the scalar max/min do.
    cos[differ] = np.fmax(-1.0, np.fmin(1.0, dots / (norms[ri] * norms[rj])))
    out = np.empty(len(a))
    out[order] = cos[np.cumsum(new) - 1]
    return out
