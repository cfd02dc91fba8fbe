"""Token vectors, idf weighting, the name-vector block, cosine."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonizer.embed import (
    MIN_HASH_DIM,
    HashingBackend,
    NameVectors,
    compute_idf,
    embed_corpus,
    pair_cosines,
)
from harmonizer.errors import ConfigError, InputError
from harmonizer.parse import CleanName, clean_name

from conftest import corpus_idf
from oracles import ScalarHashing, brute_idf, cosine_similarity, embed_name


def names_from(texts):
    return [clean_name(t) for t in texts]


def token_names(token_lists):
    return [CleanName(" ".join(tokens), tuple(tokens)) for tokens in token_lists]


def token_vector(token, dim=256):
    """The block row of a one-token name at idf weight 1, which is the
    token's vector bit for bit: (0.0 + 1.0 * v) / 1.0 == v."""
    return embed_corpus(token_names([[token]]), HashingBackend(dim), {token: 1.0}).block[0]


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

    def test_min_dim_enforced(self):
        with pytest.raises(ConfigError):
            HashingBackend(dim=MIN_HASH_DIM - 1)

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
        assert np.allclose(out.block[0], [2 / 3, 1 / 3])
        assert not out[0].degenerate

    def test_repeated_token_weighs_twice(self):
        idf = {"aa": 1.0, "bb": 1.0}
        out = embed_corpus(token_names([["aa", "aa", "bb"]]), self.Axes(), idf)
        assert np.allclose(out.block[0], [2 / 3, 1 / 3])

    def test_empty_tokens_rejected(self):
        with pytest.raises(InputError, match="position 1"):
            embed_corpus(token_names([["aa"], []]), HashingBackend(), {"aa": 1.0})
        with pytest.raises(InputError):
            embed_name((), self.Axes(), {})

    def test_cancelling_tokens_degenerate(self):
        # The hashed "b" and "p" are exact negatives, so under equal weights
        # their mean is the zero vector, which has no cosine.
        assert np.array_equal(token_vector("b"), -token_vector("p"))
        idf = {"b": 0.5, "p": 0.5}
        out = embed_corpus(token_names([["b", "p"], ["b"]]), HashingBackend(), idf)
        assert out.degenerate.tolist() == [True, False] and out.norms[0] == 0.0
        assert not out.block[0].any() and out[0].degenerate
        assert embed_name(("b", "p"), ScalarHashing(), idf).degenerate

    def test_embed_corpus_sorted_and_keyed(self):
        names = names_from(["NOKIA CORP", "ACME LTD"])
        idf = corpus_idf(names)
        out = embed_corpus(names, HashingBackend(), idf)
        assert list(out) == [0, 1]
        assert out[0].vector.shape == (256,) and out.block.shape == (2, 256)
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
        """Names repeat and permute a few token lists. The block holds one
        row per distinct token list, in first-seen order, and every record's
        row is the dense per-name mean bit for bit, under the corpus idf or
        arbitrary weights (equal ones let b and p cancel), with repeated
        tokens and a parked token ("or" at dim 32); every norm is
        np.linalg.norm's and a record is flagged degenerate exactly when the
        oracle's mean is zero."""
        names = token_names(token_lists)
        idf = corpus_idf(names) if corpus_weights else dict(zip(VOCAB, weights))
        out = embed_corpus(names, HashingBackend(dim), idf)
        distinct = list(dict.fromkeys(name.tokens for name in names))
        assert out.block.shape == (len(distinct), dim) and out.block.dtype == np.float64
        assert out.rows.tolist() == [distinct.index(name.tokens) for name in names]
        for i, name in enumerate(names):
            want = embed_name(name.tokens, ScalarHashing(dim), idf)
            row = out.rows[i]
            assert np.array_equal(out.block[row].view(np.int64), want.vector.view(np.int64)), name.tokens
            assert out[i].vector.tobytes() == want.vector.tobytes()
            assert out.norms[row].view(np.int64) == np.float64(np.linalg.norm(want.vector)).view(np.int64)
            assert bool(out.degenerate[i]) == want.degenerate

    def test_name_vectors_from_rows(self):
        block = np.array([[3.0, 4.0], [0.0, 0.0]])
        vectors = NameVectors(block, [0, 1, 0])
        assert vectors.norms.tolist() == [5.0, 0.0] and vectors.degenerate.tolist() == [False, True, False]
        assert vectors[1].degenerate and vectors[2].vector.tolist() == [3.0, 4.0]

    @pytest.mark.parametrize("density", [0.0, 0.02, 0.2, 1.0])
    def test_norms_match_the_per_row_form(self, density):
        """Every norm is bit for bit ``math.sqrt(row.dot(row))``, the form
        np.linalg.norm takes for a 1-D array, on random sparse blocks of
        several shapes and scales, zero rows and an empty block included."""
        rng = np.random.default_rng(int(density * 100))
        for rows, dim in [(0, 32), (1, 32), (7, 32), (300, 256), (800, 256)]:
            block = rng.normal(scale=rng.uniform(0.01, 10.0), size=(rows, dim)) * (rng.random((rows, dim)) < density)
            want = np.array([math.sqrt(row.dot(row)) for row in block], dtype=np.float64)
            assert NameVectors(block, range(rows)).norms.tobytes() == want.tobytes(), (rows, dim)

    def test_corpus_norms_match_the_per_row_form(self, corpus300_records):
        names = [clean_name(record.raw_name) for record in corpus300_records]
        block = embed_corpus(names, HashingBackend(), corpus_idf(names)).block
        want = np.array([math.sqrt(row.dot(row)) for row in block], dtype=np.float64)
        assert NameVectors(block, range(len(block))).norms.tobytes() == want.tobytes()


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
        assert math.isclose(s1, s2, abs_tol=1e-12)
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
        records = NameVectors(np.array(vectors), rows)
        n = len(rows)
        pairs = [(i, j) for i in range(n) for j in range(n)] * 2
        a, b = (np.array(col) for col in zip(*pairs))
        got = pair_cosines(records, a, b).tolist()
        assert got == [cosine_similarity(vectors[rows[i]], vectors[rows[j]]) for i, j in pairs]
        assert sum(x == 1.0 for x, (i, j) in zip(got, pairs) if rows[i] != rows[j]) >= 2 * 2 * 6

    def test_each_distinct_row_pair_computed_once(self):
        """Twelve records on six rows, every ordered pair of records: one
        dot product per unordered pair of distinct rows, none on one row."""
        calls = []

        class Counted(np.ndarray):
            def dot(self, other):
                calls.append(1)
                return np.ndarray.dot(self, other)

        block = np.random.default_rng(3).normal(size=(6, 8)).view(Counted)
        records = NameVectors(block, list(range(6)) * 2)
        calls.clear()
        a, b = (np.array(col) for col in zip(*[(i, j) for i in range(12) for j in range(12) if i != j]))
        assert pair_cosines(records, a, b)[(a % 6) == (b % 6)].tolist() == [1.0] * 12
        assert len(calls) == 15

    def test_zero_norm_rejected_only_when_paired(self):
        vectors = np.array([np.ones(3), np.zeros(3), np.array([1.0, 0.0, 0.0])])
        records = NameVectors(vectors, [0, 1, 2, 1])
        got = pair_cosines(records, np.array([0]), np.array([2])).tolist()
        assert got == [cosine_similarity(vectors[0], vectors[2])]
        assert pair_cosines(records, np.array([], dtype=int), np.array([], dtype=int)).tolist() == []
        with pytest.raises(ValueError, match="zero-norm"):
            pair_cosines(records, np.array([0]), np.array([3]))
