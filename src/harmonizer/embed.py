"""Token vectors and name embeddings.

Default backend is deterministic character-3-gram feature hashing, so the
pipeline needs no model files; an external token-vector table can be plugged
in and falls back to hashing for out-of-vocabulary tokens. Name embeddings
are idf-weighted means of token vectors.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Protocol, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .parse import CleanName

MIN_HASH_DIM = 32


class EmbeddingBackend(Protocol):
    dim: int

    def token_vector(self, token: str) -> Optional[np.ndarray]:
        """Vector for one token, or None when the backend cannot embed it."""
        ...


class HashingBackend:
    """Signed feature hashing over character 3-grams of ``^token$``.

    Deterministic in (token, dim, seed) across processes and platforms; no
    state, no vocabulary, never OOV.
    """

    def __init__(self, dim: int = 256, seed: int = 0):
        if dim < MIN_HASH_DIM:
            raise ConfigError(f"hashing dim must be >= {MIN_HASH_DIM}, got {dim}")
        self.dim = dim
        self.seed = seed

    def _grams(self, token: str) -> list[str]:
        marked = f"^{token}$"
        if len(marked) <= 3:
            return [marked]
        return [marked[i : i + 3] for i in range(len(marked) - 2)]

    def token_vector(self, token: str) -> np.ndarray:
        if not token:
            raise InputError("cannot embed an empty token")
        vec = np.zeros(self.dim, dtype=np.float64)
        for gram in self._grams(token):
            digest = hashlib.blake2b(
                f"{self.seed}:{gram}".encode("utf-8"), digest_size=9
            ).digest()
            bucket = int.from_bytes(digest[:8], "big") % self.dim
            sign = 1.0 if digest[8] & 1 else -1.0
            vec[bucket] += sign
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            # All grams cancelled; park the whole token in one bucket instead.
            digest = hashlib.blake2b(f"{self.seed}!{token}".encode("utf-8"), digest_size=8).digest()
            vec[int.from_bytes(digest, "big") % self.dim] = 1.0
            return vec
        return vec / norm


class FileVectorBackend:
    """Token vectors from a TSV table (``token<TAB>f1 f2 ... fd`` with a
    ``token<TAB>dim=d`` header). OOV tokens fall back to a hashing backend of
    the same dimension unless ``strict`` is set, in which case they embed to
    nothing and a name made only of them comes out degenerate."""

    def __init__(self, path: str | Path, strict: bool = False, hash_seed: int = 0):
        path = Path(path)
        self.vectors: dict[str, np.ndarray] = {}
        with path.open(encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            parts = header.split("\t")
            if len(parts) != 2 or parts[0] != "token" or not parts[1].startswith("dim="):
                raise InputError(f"{path}: bad header {header!r}, expected 'token\\tdim=<d>'")
            try:
                self.dim = int(parts[1][4:])
            except ValueError:
                raise InputError(f"{path}: bad dimension in header {header!r}")
            if self.dim < 1:
                raise InputError(f"{path}: dimension must be >= 1")
            for line_no, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                cols = line.split("\t")
                if len(cols) != 2:
                    raise InputError(f"{path} line {line_no}: expected 2 columns")
                token, payload = cols
                if token in self.vectors:
                    raise InputError(f"{path} line {line_no}: duplicate token {token!r}")
                values = payload.split()
                if len(values) != self.dim:
                    raise InputError(
                        f"{path} line {line_no}: expected {self.dim} values, got {len(values)}"
                    )
                try:
                    self.vectors[token] = np.array([float(v) for v in values], dtype=np.float64)
                except ValueError as exc:
                    raise InputError(f"{path} line {line_no}: bad float ({exc})")
        self.strict = strict
        self._fallback = None if strict else HashingBackend(max(self.dim, MIN_HASH_DIM), seed=hash_seed)
        if self._fallback is not None and self._fallback.dim != self.dim:
            raise ConfigError(
                f"file vectors of dim {self.dim} cannot fall back to hashing (needs >= {MIN_HASH_DIM})"
            )

    def token_vector(self, token: str) -> Optional[np.ndarray]:
        vec = self.vectors.get(token)
        if vec is not None:
            return vec
        if self._fallback is not None:
            return self._fallback.token_vector(token)
        return None


@dataclass(frozen=True)
class IdfTable:
    """Rescaled idf weights in (floor, 1]; unseen tokens count as maximally rare."""

    weights: Mapping[str, float]
    n_names: int
    floor: float = 0.01

    def __getitem__(self, token: str) -> float:
        return self.weights.get(token, 1.0)

    def __contains__(self, token: str) -> bool:
        return token in self.weights

    def __len__(self) -> int:
        return len(self.weights)


def compute_idf(names: Sequence[CleanName], floor: float = 0.01) -> IdfTable:
    """idf_i = ln(N / n_i), min-max rescaled over the observed range to
    (floor, 1]. A token present in every name gets the floor; the rarest gets
    exactly 1. Corpora with a single distinct raw idf map every token to 1.
    """
    if not 0.0 < floor < 1.0:
        raise ConfigError(f"idf floor must be in (0, 1), got {floor}")
    n_names = len(names)
    if n_names == 0:
        return IdfTable(weights={}, n_names=0, floor=floor)
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
            t: 1.0 if r == hi else floor if r == lo else floor + (1.0 - floor) * (r - lo) / span
            for t, r in raw.items()
        }
    return IdfTable(weights=weights, n_names=n_names, floor=floor)


@dataclass(eq=False)
class NameEmbedding:
    record_id: str
    vector: np.ndarray
    degenerate: bool = False


def embed_name(
    tokens: Sequence[str],
    backend: EmbeddingBackend,
    idf: IdfTable,
    record_id: str = "",
) -> NameEmbedding:
    """idf-weighted mean of per-token vectors. Tokens the backend cannot embed
    contribute nothing; if none embed, the result is a flagged zero vector."""
    if not tokens:
        raise InputError("cannot embed an empty token list")
    total = np.zeros(backend.dim, dtype=np.float64)
    weight_sum = 0.0
    for token in tokens:
        vec = backend.token_vector(token)
        if vec is None:
            continue
        w = idf[token]
        total += w * vec
        weight_sum += w
    if weight_sum == 0.0:
        return NameEmbedding(record_id=record_id, vector=total, degenerate=True)
    return NameEmbedding(record_id=record_id, vector=total / weight_sum, degenerate=False)


def embed_corpus(
    names: Iterable[CleanName],
    backend: EmbeddingBackend,
    idf: IdfTable,
) -> dict[str, NameEmbedding]:
    return {
        name.record_id: embed_name(name.tokens, backend, idf, record_id=name.record_id)
        for name in names
    }


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine in [-1, 1]; exactly 1.0 for bitwise-identical vectors."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    if np.array_equal(a, b):
        return 1.0
    value = float(np.dot(a, b) / (norm_a * norm_b))
    return max(-1.0, min(1.0, value))


def pair_cosines(vectors: Sequence[np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cosine_similarity(vectors[i], vectors[j])`` for every (i, j) in
    ``zip(a, b)``, bit for bit. Norms are computed once; only pairs of equal
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
