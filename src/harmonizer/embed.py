"""Token vectors and name embeddings.

Token vectors come from deterministic character-3-gram feature hashing, so
the pipeline needs no model files. Name embeddings are idf-weighted means of
token vectors, held as the rows of one block.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
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
    def hash_gram(self, gram: str) -> tuple[int, float]:
        """The gram's bucket and sign."""
        digest = hashlib.blake2b(f"0:{gram}".encode("utf-8"), digest_size=9).digest()
        return int.from_bytes(digest[:8], "big") % self.dim, 1.0 if digest[8] & 1 else -1.0

    def parked_bucket(self, token: str) -> int:
        digest = hashlib.blake2b(f"0!{token}".encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.dim


# The idf weight of a token present in every name.
IDF_FLOOR = 0.01


@dataclass(frozen=True)
class IdfTable:
    """Rescaled idf weights in (IDF_FLOOR, 1]; unseen tokens count as maximally rare."""

    weights: Mapping[str, float]

    def __getitem__(self, token: str) -> float:
        return self.weights.get(token, 1.0)


def compute_idf(names: Sequence[CleanName]) -> IdfTable:
    """idf_i = ln(N / n_i), min-max rescaled over the observed range to
    (IDF_FLOOR, 1]. A token present in every name gets the floor; the rarest
    gets exactly 1. Corpora with a single distinct raw idf map every token
    to 1.
    """
    n_names = len(names)
    if n_names == 0:
        return IdfTable(weights={})
    counts: dict[str, int] = {}
    for name in names:
        for token in set(name.tokens):
            counts[token] = counts.get(token, 0) + 1
    raw = {t: math.log(n_names / c) for t, c in counts.items()}
    lo = min(raw.values())
    hi = max(raw.values())
    if hi == lo:
        weights = {t: 1.0 for t in raw}
    else:
        span = hi - lo
        # Pin the endpoints so the rarest token is exactly 1 and the most
        # common exactly the floor, independent of rounding.
        weights = {
            t: 1.0 if r == hi else IDF_FLOOR if r == lo else IDF_FLOOR + (1.0 - IDF_FLOOR) * (r - lo) / span
            for t, r in raw.items()
        }
    return IdfTable(weights=weights)


@dataclass(eq=False)
class NameEmbedding:
    vector: np.ndarray
    degenerate: bool = False


class NameVectors(Mapping[str, NameEmbedding]):
    """Name vectors as the rows of one float64 block (names x dim), row i
    belonging to ``ids[i]``, with each row's norm computed once. A row of
    norm zero has no cosine and is flagged ``degenerate``. As a mapping,
    record id -> that row's ``NameEmbedding``."""

    def __init__(self, ids: Sequence[str], block: np.ndarray):
        self.ids = tuple(ids)
        self.block = block
        # What np.linalg.norm computes for a 1-D float array.
        self.norms = np.array([math.sqrt(row.dot(row)) for row in block], dtype=np.float64)
        self.degenerate = self.norms == 0.0

    @cached_property
    def _position(self) -> dict[str, int]:
        return {rid: i for i, rid in enumerate(self.ids)}

    def __getitem__(self, record_id: str) -> NameEmbedding:
        i = self._position[record_id]
        return NameEmbedding(self.block[i], bool(self.degenerate[i]))

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def embed_corpus(names: Sequence[CleanName], backend: HashingBackend, idf: IdfTable) -> NameVectors:
    """Each name's idf-weighted mean of its token vectors, one row per name in
    the order of ``names``. Each distinct gram is hashed once and each
    distinct token's buckets are summed once; one ``np.bincount`` then adds
    the names' weighted token entries in token order, as a dense sum over the
    tokens does, so each row is bit for bit ``embed_name`` in
    ``tests/oracles.py``. Cancelling tokens (the hashed ``b`` and ``p`` are
    exact negatives) leave a zero, degenerate row."""
    features: dict[str, tuple[int, float]] = {}
    token_index: dict[str, int] = {}
    # Each distinct token's buckets and values, from starts[t].
    buckets, values, starts = [], [], [0]
    for name in names:
        if not name.tokens:
            raise InputError(f"cannot embed the empty token list of {name.record_id!r}")
        for token in name.tokens:
            if token in token_index:
                continue
            token_index[token] = len(token_index)
            counts: dict[int, float] = {}
            for gram in backend.grams(token):
                if gram not in features:
                    features[gram] = backend.hash_gram(gram)
                bucket, sign = features[gram]
                counts[bucket] = counts.get(bucket, 0.0) + sign
            # Small integer counts: every summation order is exact.
            norm = math.sqrt(sum(c * c for c in counts.values()))
            if norm == 0.0:
                counts, norm = {backend.parked_bucket(token): 1.0}, 1.0
            buckets.extend(counts)
            values.extend(c / norm for c in counts.values())
            starts.append(len(buckets))
    occurrence = np.array([token_index[t] for name in names for t in name.tokens], dtype=np.int64)
    row = np.repeat(np.arange(len(names)), [len(name.tokens) for name in names])
    weight = np.array([idf[t] for t in token_index], dtype=np.float64)[occurrence]
    first = np.array(starts, dtype=np.int64)
    length = (first[1:] - first[:-1])[occurrence]
    # Entry k of an occurrence is entry first[token] + k of its token.
    entry = np.arange(int(length.sum())) + np.repeat(first[occurrence] - (np.cumsum(length) - length), length)
    bins = np.repeat(row * backend.dim, length) + np.array(buckets, dtype=np.int64)[entry]
    added = np.repeat(weight, length) * np.array(values, dtype=np.float64)[entry]
    block = np.bincount(bins, added, minlength=len(names) * backend.dim).reshape(len(names), backend.dim)
    block /= np.bincount(row, weight, minlength=len(names))[:, None]
    return NameVectors([name.record_id for name in names], block)


def pair_cosines(vectors: np.ndarray, norms: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine in [-1, 1] of rows ``vectors[i]`` and ``vectors[j]`` for every
    (i, j) in ``zip(a, b)``, given each row's norm (``NameVectors.norms``),
    bit for bit what the scalar ``cosine_similarity`` in ``tests/oracles.py``
    gives. Only pairs of equal norm are compared element by element, and
    equal vectors get exactly 1.0; every other pair costs one ``np.dot``, as
    a batched product would sum in another order."""
    if (norms[a] == 0.0).any() or (norms[b] == 0.0).any():
        raise ValueError("cosine undefined for zero-norm vector")
    same = norms[a] == norms[b]
    same[same] = [np.array_equal(vectors[i], vectors[j]) for i, j in zip(a[same].tolist(), b[same].tolist())]
    rows = np.flatnonzero(~same)
    ra, rb = a[rows], b[rows]
    dots = np.array([vectors[i].dot(vectors[j]) for i, j in zip(ra.tolist(), rb.tolist())], dtype=np.float64)
    out = np.ones(len(a))
    # fmin/fmax clamp NaN to 1.0, as the scalar max/min do.
    out[rows] = np.fmax(-1.0, np.fmin(1.0, dots / (norms[ra] * norms[rb])))
    return out
