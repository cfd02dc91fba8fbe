"""Token vectors, idf weighting, the sparse name-vector rows, cosine."""

import ast
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import harmonizer.embed as embed_module
from harmonizer.embed import (
    HashingBackend,
    NameVectors,
    compute_idf,
    embed_corpus,
    pair_cosines,
)
from harmonizer.parse import CleanName, clean_name

from conftest import DESIGNATORS, corpus_idf
from oracles import ScalarHashing, brute_idf, cosine_similarity, embed_name, ordered_norm, sparse_vectors


def names_from(texts):
    return [clean_name(t, None, DESIGNATORS) for t in texts]


def token_names(token_lists):
    return [CleanName(" ".join(tokens), tuple(tokens), False) for tokens in token_lists]


def token_vector(token, dim=256):
    """The row of a one-token name at idf weight 1, as a dense vector, which
    is the token's vector bit for bit: (0.0 + 1.0 * v) / 1.0 == v."""
    return embed_corpus(token_names([[token]]), HashingBackend(dim), {token: 1.0})[0].vector


class TestHashingBackend:
    def test_unit_norm(self):
        for token in ["nokia", "a", "grundfos", "x" * 50]:
            assert math.isclose(float(np.linalg.norm(token_vector(token))), 1.0)

    def test_deterministic(self):
        assert np.array_equal(token_vector("nokia"), token_vector("nokia"))

    def test_similar_tokens_share_grams(self):
        near = cosine_similarity(token_vector("nokia"), token_vector("nokian"))
        far = cosine_similarity(token_vector("nokia"), token_vector("samsung"))
        assert near > 0.5 > far

    def test_frozen_similarity_value(self):
        # Pinned against the default backend (dim 256); any change to
        # the gram scheme or hashing shows up here first.
        got = cosine_similarity(token_vector("nokia"), token_vector("nokian"))
        assert math.isclose(got, 0.7302967433402214, rel_tol=0, abs_tol=1e-12)

    def test_short_token_single_gram(self):
        # "^ab$" is 4 chars -> grams of "^ab", "ab$"; "a" -> single "^a$".
        assert HashingBackend().grams("ab") == ["^ab", "ab$"] and HashingBackend().grams("a") == ["^a$"]
        assert math.isclose(float(np.linalg.norm(token_vector("ab"))), 1.0)
        assert math.isclose(float(np.linalg.norm(token_vector("a"))), 1.0)

    def test_matches_scalar_oracle_bit_for_bit(self):
        # Includes "b" and "p", whose single grams "^b$" and "^p$" share a
        # bucket with opposite signs, and "or", whose two grams cancel at
        # dim 32, so it is parked in one bucket.
        for dim in (32, 256):
            for token in ["nokia", "a", "b", "p", "or", "x" * 50, "grundfos"]:
                assert token_vector(token, dim).tobytes() == ScalarHashing(dim).token_vector(token).tobytes()


# One-character tokens, the cancelling b and p, tokens with repeated grams,
# and any text, non-ASCII included.
ANY_TOKEN = st.one_of(
    st.sampled_from(["a", "b", "p", "or", "aaaa", "abab", "é", "日本"]), st.text(min_size=1, max_size=6)
)


class TestHashGrams:
    @given(
        st.lists(st.one_of(st.sampled_from(["^b$", "^p$", "aaa", "^é$"]), st.text(max_size=4)), max_size=30),
        st.sampled_from([32, 256]),
    )
    def test_bulk_matches_scalar_bit_for_bit(self, grams, dim):
        buckets, signs = HashingBackend(dim).hash_grams(grams)
        want = [ScalarHashing(dim).gram_feature(gram) for gram in grams]
        assert buckets.dtype == np.int64 and signs.dtype == np.float64
        assert buckets.tolist() == [bucket for bucket, _ in want]
        assert signs.tobytes() == np.array([sign for _, sign in want], dtype=np.float64).tobytes()

    @given(st.lists(st.lists(ANY_TOKEN, min_size=1, max_size=4), min_size=1, max_size=8), st.sampled_from([32, 256]))
    def test_rows_match_scalar_oracle_on_any_tokens(self, token_lists, dim):
        names = token_names(token_lists)
        idf = corpus_idf(names)
        out = embed_corpus(names, HashingBackend(dim), idf)
        for i, name in enumerate(names):
            want = embed_name(name.tokens, ScalarHashing(dim), idf)
            assert out[i].vector.tobytes() == want.vector.tobytes(), name.tokens
            assert bool(out.degenerate[i]) == want.degenerate


class TestComputeIdf:
    def test_small_corpus_matches_oracle(self):
        names = names_from(
            ["ANCHOR RARE0", "ANCHOR RARE1", "ANCHOR RARE2",
             "EVERY RARE3", "EVERY RARE4", "EVERY RARE5",
             "EVERY RARE6", "EVERY RARE7", "EVERY RARE8",
             "EVERY ANCHORLESS"]
        )
        idf = corpus_idf(names)
        for token, expected in brute_idf([n.tokens for n in names]).items():
            assert math.isclose(idf[token], expected, abs_tol=1e-12)

    def test_endpoints_exact(self):
        names = names_from(["AA BB", "AA CC", "AA DD"])
        idf = corpus_idf(names)
        assert idf["aa"] == 0.01  # most frequent: exactly the floor
        assert idf["bb"] == 1.0 and idf["cc"] == 1.0 and idf["dd"] == 1.0

    def test_interior_value(self):
        # 10 names; a token in 3 of them sits exactly halfway between the
        # extremes ln(10/9) and ln(10) on the log scale, so it rescales to
        # 0.01 + 0.99 * ln(3)/ln(9) = 0.505.
        names = names_from(
            ["MID X0 COM", "MID X1 COM", "MID X2 COM"]
            + [f"Y{i} COM" for i in range(6)]
            + ["Z0 UNIQ"]
        )
        idf = corpus_idf(names)
        assert math.isclose(idf["mid"], 0.505, abs_tol=1e-12)

    def test_single_distinct_count_all_ones(self):
        names = names_from(["AA BB", "BB AA"])
        idf = corpus_idf(names)
        assert idf["aa"] == 1.0 and idf["bb"] == 1.0

    def test_empty_corpus_gives_empty_table(self):
        assert compute_idf({}, 0) == {}

    def test_matches_brute_oracle_on_random_corpora(self):
        rng = random.Random(1234)
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(20):
            texts = [
                " ".join(rng.sample(vocab, rng.randint(1, 6))).upper()
                for _ in range(rng.randint(2, 40))
            ]
            names = names_from(texts)
            idf = corpus_idf(names)
            oracle = brute_idf([n.tokens for n in names])
            assert set(oracle) == {t for n in names for t in n.tokens}
            for token, expected in oracle.items():
                assert math.isclose(idf[token], expected, abs_tol=1e-12)

    @given(st.lists(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4), min_size=2, max_size=25))
    def test_antitone_in_presence(self, token_lists):
        texts = [" ".join(tokens).upper() for tokens in token_lists]
        names = names_from(texts)
        idf = corpus_idf(names)
        presence = {}
        for n in names:
            for t in set(n.tokens):
                presence[t] = presence.get(t, 0) + 1
        for a in presence:
            for b in presence:
                if presence[a] < presence[b]:
                    assert idf[a] >= idf[b]


VOCAB = ["b", "p", "a", "or", "ab", "nokia", "nokian", "acme", "x" * 30]


class TestEmbedName:
    class Axes(HashingBackend):
        """Every token is its own single gram: aa -> e0, anything else -> e1."""

        def __init__(self):
            self.dim = 2

        def grams(self, token):
            return [token]

        def hash_grams(self, grams):
            return np.array([0 if gram == "aa" else 1 for gram in grams]), np.ones(len(grams))

    def test_weighted_mean_frozen(self):
        # idf weights 1.0 and 0.5 over orthogonal axes -> (2/3, 1/3).
        idf = {"aa": 1.0, "bb": 0.5}
        out = embed_corpus(token_names([["aa", "bb"]]), self.Axes(), idf)
        assert np.allclose(out[0].vector, [2 / 3, 1 / 3])
        assert not out[0].degenerate

    def test_repeated_token_weighs_twice(self):
        idf = {"aa": 1.0, "bb": 1.0}
        out = embed_corpus(token_names([["aa", "aa", "bb"]]), self.Axes(), idf)
        assert np.allclose(out[0].vector, [2 / 3, 1 / 3])

    def test_empty_tokens_give_an_empty_degenerate_row(self):
        # A name with no letter or digit has no tokens: its row holds no
        # entry, so its norm is 0 and it has no cosine, as in the oracle.
        out = embed_corpus(token_names([["aa"], [], ["aa"]]), HashingBackend(), {"aa": 1.0})
        assert out.rows.tolist() == [0, 1, 0] and out.indptr[2] == out.indptr[1]
        assert out.norms[1] == 0.0 and out.degenerate.tolist() == [False, True, False]
        want = embed_name((), ScalarHashing(), {})
        assert want.degenerate and out[1].vector.tobytes() == want.vector.tobytes()

    def test_cancelling_tokens_degenerate(self):
        # The hashed "b" and "p" are exact negatives, so under equal weights
        # their mean is the zero vector, which has no cosine.
        assert np.array_equal(token_vector("b"), -token_vector("p"))
        idf = {"b": 0.5, "p": 0.5}
        out = embed_corpus(token_names([["b", "p"], ["b"]]), HashingBackend(), idf)
        assert out.degenerate.tolist() == [True, False] and out.norms[0] == 0.0
        assert out.indptr[1] == 0 and not out[0].vector.any() and out[0].degenerate
        assert embed_name(("b", "p"), ScalarHashing(), idf).degenerate

    def test_embed_corpus_sorted_and_keyed(self):
        names = names_from(["NOKIA CORP", "ACME LTD"])
        idf = corpus_idf(names)
        out = embed_corpus(names, HashingBackend(), idf)
        assert list(out) == [0, 1]
        assert out[0].vector.shape == (256,) and len(out.norms) == 2 and out.dim == 256
        assert np.array_equal(out[1].vector, embed_name(names[1].tokens, ScalarHashing(), idf).vector)
        assert [e.degenerate for e in out.values()] == [False, False]

    @given(
        st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5), min_size=1, max_size=6).flatmap(
            lambda lists: st.lists(st.sampled_from(lists).flatmap(st.permutations), min_size=1, max_size=12)
        ),
        st.lists(st.sampled_from([0.01, 0.3, 0.5, 1.0]), min_size=len(VOCAB), max_size=len(VOCAB)),
        st.sampled_from([32, 256]),
        st.booleans(),
    )
    def test_block_matches_scalar_oracle_bit_for_bit(self, token_lists, weights, dim, corpus_weights):
        """Names repeat and permute a few token lists. There is one sparse
        row per distinct token list, in first-seen order, and every record's
        row holds the non-zero entries of the dense per-name mean bit for
        bit, at ascending buckets, under the corpus idf or arbitrary weights
        (equal ones let b and p cancel), with repeated tokens and a parked
        token ("or" at dim 32); every norm is the oracle's and a record is
        flagged degenerate exactly when the oracle's mean is zero."""
        names = token_names(token_lists)
        idf = corpus_idf(names) if corpus_weights else dict(zip(VOCAB, weights))
        out = embed_corpus(names, HashingBackend(dim), idf)
        distinct = list(dict.fromkeys(name.tokens for name in names))
        assert len(out.indptr) == len(distinct) + 1 and out.data.dtype == np.float64
        assert out.rows.tolist() == [distinct.index(name.tokens) for name in names]
        for i, name in enumerate(names):
            want = embed_name(name.tokens, ScalarHashing(dim), idf)
            row = out.rows[i]
            entries = slice(out.indptr[row], out.indptr[row + 1])
            assert out.buckets[entries].tolist() == np.flatnonzero(want.vector).tolist(), name.tokens
            assert out.data[entries].tobytes() == want.vector[want.vector != 0.0].tobytes(), name.tokens
            assert out[i].vector.tobytes() == want.vector.tobytes()
            assert out.norms[row].tobytes() == np.float64(ordered_norm(want.vector)).tobytes()
            assert bool(out.degenerate[i]) == want.degenerate

    def test_name_vectors_from_rows(self):
        vectors = NameVectors([0, 2, 2], [0, 1], [3.0, 4.0], [0, 1, 0], 2)
        assert vectors.norms.tolist() == [5.0, 0.0] and vectors.degenerate.tolist() == [False, True, False]
        assert vectors[1].degenerate and vectors[2].vector.tolist() == [3.0, 4.0]

    @pytest.mark.parametrize("density", [0.0, 0.02, 0.2, 1.0])
    def test_norms_match_the_per_row_form(self, density):
        """Every norm is bit for bit the square root of the row's squares
        added left to right from 0.0, on random sparse blocks of several
        shapes and scales, zero rows and an empty block included."""
        rng = np.random.default_rng(int(density * 100))
        for rows, dim in [(0, 32), (1, 32), (7, 32), (300, 256), (800, 256)]:
            block = rng.normal(scale=rng.uniform(0.01, 10.0), size=(rows, dim)) * (rng.random((rows, dim)) < density)
            want = np.array([ordered_norm(row) for row in block], dtype=np.float64)
            assert sparse_vectors(block, range(rows)).norms.tobytes() == want.tobytes(), (rows, dim)

    def test_corpus_norms_match_the_per_row_form(self, corpus300_records):
        names = [clean_name(record.raw_name, None, DESIGNATORS) for record in corpus300_records]
        out = embed_corpus(names, HashingBackend(), corpus_idf(names))
        first = {row: i for i, row in reversed(list(enumerate(out.rows.tolist())))}
        want = np.array([ordered_norm(out[first[row]].vector) for row in range(len(first))], dtype=np.float64)
        assert len(first) == len(out.norms) and out.norms.tobytes() == want.tobytes()


class TestCosine:
    def test_frozen_value(self):
        assert cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            0.7071067811865475, abs=1e-15
        )

    def test_identical_is_exactly_one(self):
        v = np.array([0.3, 0.4, 0.5])
        assert cosine_similarity(v, v.copy()) == 1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_clipped_to_unit_interval(self):
        a = np.array([1e-8, 1.0])
        assert -1.0 <= cosine_similarity(a, a * 3.0) <= 1.0

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    )
    def test_symmetry_and_range(self, xs, ys):
        a, b = np.array(xs), np.array(ys)
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        s1, s2 = cosine_similarity(a, b), cosine_similarity(b, a)
        assert s1 == s2
        assert -1.0 <= s1 <= 1.0


class TestPairCosines:
    def test_bit_identical_to_cosine_similarity(self):
        """Random, rescaled, duplicated, sign-of-zero and near-opposite
        rows, read by records of their own and by records sharing a row:
        every value over every ordered record pair, each pair twice and a
        record with itself, equals cosine_similarity exactly."""
        rng = np.random.default_rng(11)
        vectors = list(rng.normal(size=(40, 32)))
        vectors += [v * 3.0 for v in vectors[:5]] + [v.copy() for v in vectors[5:10]] + [-vectors[10]]
        signed = np.zeros(32)
        signed[0] = 1.0
        vectors += [signed, np.where(signed == 0.0, -0.0, signed)]
        rows = list(range(len(vectors))) + rng.integers(len(vectors), size=15).tolist()
        records = sparse_vectors(vectors, rows)
        n = len(rows)
        pairs = [(i, j) for i in range(n) for j in range(n)] * 2
        a, b = (np.array(col) for col in zip(*pairs))
        got = pair_cosines(records, a, b).tolist()
        assert got == [cosine_similarity(vectors[rows[i]], vectors[rows[j]]) for i, j in pairs]
        assert sum(x == 1.0 for x, (i, j) in zip(got, pairs) if rows[i] != rows[j]) >= 2 * 2 * 6

    def test_each_distinct_row_pair_computed_once(self, monkeypatch):
        """Twelve records on six rows, every ordered pair of records: one
        cosine per unordered pair of distinct rows, none on one row."""
        computed = []

        def counted(vectors, x, y):
            computed.extend(zip(x.tolist(), y.tolist()))
            return cosines(vectors, x, y)

        cosines = embed_module._cosines
        monkeypatch.setattr(embed_module, "_cosines", counted)
        records = sparse_vectors(np.random.default_rng(3).normal(size=(6, 8)), list(range(6)) * 2)
        a, b = (np.array(col) for col in zip(*[(i, j) for i in range(12) for j in range(12) if i != j]))
        assert pair_cosines(records, a, b)[(a % 6) == (b % 6)].tolist() == [1.0] * 12
        assert sorted(computed) == [(x, y) for x in range(6) for y in range(x + 1, 6)]

    def test_zero_norm_rejected_only_when_paired(self):
        vectors = np.array([np.ones(3), np.zeros(3), np.array([1.0, 0.0, 0.0])])
        records = sparse_vectors(vectors, [0, 1, 2, 1])
        got = pair_cosines(records, np.array([0]), np.array([2])).tolist()
        assert got == [cosine_similarity(vectors[0], vectors[2])]
        assert pair_cosines(records, np.array([], dtype=int), np.array([], dtype=int)).tolist() == []


# The numpy names that reach BLAS, whose summation order depends on the
# kernel OpenBLAS picks for the CPU.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def test_package_makes_no_blas_call():
    """No module of the package names a BLAS routine or uses ``@``, so no
    artifact's bits depend on the machine's BLAS kernel."""
    for path in sorted(Path(embed_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.MatMult), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Attribute):
                assert node.attr not in BLAS_NAMES, f"{path.name}:{node.lineno}: {node.attr}"


# Sparse rows over 16 buckets, from values that repeat (so rows coincide and
# dots cancel) and any float whose square neither overflows nor underflows.
SPARSE_ROW = st.dictionaries(
    st.integers(0, 15),
    st.one_of(st.sampled_from([1.0, -1.0, 0.5, 0.1, 3.0]), st.floats(-1e3, 1e3).filter(lambda v: abs(v) > 1e-100)),
    min_size=1,
    max_size=6,
)


class TestSparseKernel:
    @given(
        st.lists(SPARSE_ROW, min_size=1, max_size=8).flatmap(
            lambda rows: st.tuples(st.just(rows), st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=10))
        )
    )
    def test_pair_cosines_match_scalar_oracle(self, drawn):
        """Over every ordered pair of records, a record with itself included:
        each cosine is the scalar oracle's bit for bit in both orders, equal
        rows give exactly 1.0, and rows that share no bucket give 0.0."""
        rows, records = drawn
        block = np.zeros((len(rows), 16))
        for r, row in enumerate(rows):
            block[r, list(row)] = list(row.values())
        vectors = sparse_vectors(block, records)
        a, b = (np.array(col) for col in zip(*[(i, j) for i in range(len(records)) for j in range(len(records))]))
        got = pair_cosines(vectors, a, b)
        assert got.tobytes() == pair_cosines(vectors, b, a).tobytes()
        for k, (i, j) in enumerate(zip(a.tolist(), b.tolist())):
            x, y = block[records[i]], block[records[j]]
            assert got[k] == cosine_similarity(x, y) == cosine_similarity(y, x), (i, j)
            if np.array_equal(x, y):
                assert got[k] == 1.0
            if not (x.astype(bool) & y.astype(bool)).any():
                assert got[k] == 0.0

    def test_pair_cosines_peak_stays_bounded(self):
        """200,000 pairs over 300 rows hold 44,850 distinct row pairs; their
        gathered entries, a batch at a time, stay well under a fixed bound,
        which all of them at once (about 36 MB) would break."""
        rng = np.random.default_rng(5)
        block = rng.normal(size=(300, 256)) * (rng.random((300, 256)) < 17 / 256)
        block[:, 0] += 1.0
        vectors = sparse_vectors(block, np.arange(300))
        a, b = rng.integers(300, size=200_000), rng.integers(300, size=200_000)
        tracemalloc.start()
        try:
            pair_cosines(vectors, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak
