"""Token vectors and name embeddings.

Token vectors come from deterministic character-3-gram feature hashing, so
the pipeline needs no model files. Name embeddings are idf-weighted means of
token vectors.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .parse import CleanName

MIN_HASH_DIM = 32


class EmbeddingBackend(Protocol):
    dim: int

    def token_vector(self, token: str) -> np.ndarray:
        """Vector for one token."""
        ...


class HashingBackend:
    """Signed feature hashing over character 3-grams of ``^token$``.

    Deterministic in (token, dim) across processes and platforms; no state,
    no vocabulary, never OOV.
    """

    def __init__(self, dim: int = 256):
        if dim < MIN_HASH_DIM:
            raise ConfigError(f"hashing dim must be >= {MIN_HASH_DIM}, got {dim}")
        self.dim = dim

    def _grams(self, token: str) -> list[str]:
        marked = f"^{token}$"
        if len(marked) <= 3:
            return [marked]
        return [marked[i : i + 3] for i in range(len(marked) - 2)]

    def token_vector(self, token: str) -> np.ndarray:
        if not token:
            raise InputError("cannot embed an empty token")
        vec = np.zeros(self.dim, dtype=np.float64)
        # The "0:" and "0!" prefixes are part of the pinned hash scheme.
        for gram in self._grams(token):
            digest = hashlib.blake2b(f"0:{gram}".encode("utf-8"), digest_size=9).digest()
            bucket = int.from_bytes(digest[:8], "big") % self.dim
            sign = 1.0 if digest[8] & 1 else -1.0
            vec[bucket] += sign
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            # All grams cancelled; park the whole token in one bucket instead.
            digest = hashlib.blake2b(f"0!{token}".encode("utf-8"), digest_size=8).digest()
            vec[int.from_bytes(digest, "big") % self.dim] = 1.0
            return vec
        return vec / norm


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


def embed_name(
    tokens: Sequence[str],
    backend: EmbeddingBackend,
    idf: IdfTable,
) -> NameEmbedding:
    """idf-weighted mean of per-token vectors. Token vectors can cancel (the
    hashed ``b`` and ``p`` are exact negatives), and a mean of norm zero has no
    cosine, so it comes out flagged degenerate."""
    if not tokens:
        raise InputError("cannot embed an empty token list")
    total = np.zeros(backend.dim, dtype=np.float64)
    weight_sum = 0.0
    for token in tokens:
        w = idf[token]
        total += w * backend.token_vector(token)
        weight_sum += w
    vector = total / weight_sum
    return NameEmbedding(vector=vector, degenerate=float(np.linalg.norm(vector)) == 0.0)


class _TokenTable:
    """A backend holding the nonzero buckets of ``tokens`` under ``backend``,
    a fraction of their dense size; lookups rebuild the dense vector exactly."""

    def __init__(self, backend: EmbeddingBackend, tokens: Iterable[str]):
        self.dim = backend.dim
        self._buckets: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for token in tokens:
            vec = backend.token_vector(token)
            nonzero = np.flatnonzero(vec)
            self._buckets[token] = (nonzero, vec[nonzero])

    def token_vector(self, token: str) -> np.ndarray:
        nonzero, values = self._buckets[token]
        vec = np.zeros(self.dim, dtype=np.float64)
        vec[nonzero] = values
        return vec


def embed_corpus(
    names: Sequence[CleanName],
    backend: EmbeddingBackend,
    idf: IdfTable,
) -> dict[str, NameEmbedding]:
    """Each name's embedding under its record id, in the order of ``names``.
    Each distinct token's vector is computed once and shared by every name
    that holds it, so every embedding is the one ``embed_name`` gives."""
    table = _TokenTable(backend, dict.fromkeys(token for name in names for token in name.tokens))
    return {name.record_id: embed_name(name.tokens, table, idf) for name in names}


def pair_cosines(vectors: Sequence[np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine in [-1, 1] of ``vectors[i]`` and ``vectors[j]`` for every (i, j)
    in ``zip(a, b)``, bit for bit what the scalar ``cosine_similarity`` in
    ``tests/oracles.py`` gives. Norms are computed once; only pairs of equal
    norm are compared element by element, and equal vectors get exactly 1.0;
    every other pair costs one ``np.dot``, as a batched product would sum in
    another order."""
    norms = np.array([float(np.linalg.norm(v)) for v in vectors])
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
