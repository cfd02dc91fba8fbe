"""Token vectors, idf weighting, name embeddings, cosine."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonizer.embed import (
    MIN_HASH_DIM,
    HashingBackend,
    IdfTable,
    compute_idf,
    embed_corpus,
    embed_name,
    pair_cosines,
)
from harmonizer.errors import ConfigError, InputError
from harmonizer.parse import clean_name

from oracles import brute_idf, cosine_similarity


def names_from(texts):
    return [clean_name(t, record_id=f"r{i}") for i, t in enumerate(texts)]


class TestHashingBackend:
    def test_unit_norm(self):
        backend = HashingBackend()
        for token in ["nokia", "a", "grundfos", "x" * 50]:
            assert math.isclose(float(np.linalg.norm(backend.token_vector(token))), 1.0)

    def test_deterministic(self):
        a = HashingBackend().token_vector("nokia")
        b = HashingBackend().token_vector("nokia")
        assert np.array_equal(a, b)

    def test_similar_tokens_share_grams(self):
        backend = HashingBackend()
        near = cosine_similarity(backend.token_vector("nokia"), backend.token_vector("nokian"))
        far = cosine_similarity(backend.token_vector("nokia"), backend.token_vector("samsung"))
        assert near > 0.5 > far

    def test_frozen_similarity_value(self):
        # Pinned against the default backend (dim 256); any change to
        # the gram scheme or hashing shows up here first.
        backend = HashingBackend()
        got = cosine_similarity(backend.token_vector("nokia"), backend.token_vector("nokian"))
        assert math.isclose(got, 0.7302967433402214, rel_tol=0, abs_tol=1e-12)

    def test_min_dim_enforced(self):
        with pytest.raises(ConfigError):
            HashingBackend(dim=MIN_HASH_DIM - 1)

    def test_short_token_single_gram(self):
        backend = HashingBackend()
        v = backend.token_vector("ab")
        assert math.isclose(float(np.linalg.norm(v)), 1.0)
        # "^ab$" is 4 chars -> grams of "^ab", "ab$"; "a" -> single "^a$".
        assert math.isclose(float(np.linalg.norm(backend.token_vector("a"))), 1.0)


class TestComputeIdf:
    def test_small_corpus_matches_oracle(self):
        names = names_from(
            ["ANCHOR RARE0", "ANCHOR RARE1", "ANCHOR RARE2",
             "EVERY RARE3", "EVERY RARE4", "EVERY RARE5",
             "EVERY RARE6", "EVERY RARE7", "EVERY RARE8",
             "EVERY ANCHORLESS"]
        )
        idf = compute_idf(names)
        for token, expected in brute_idf([n.tokens for n in names]).items():
            assert math.isclose(idf[token], expected, abs_tol=1e-12)

    def test_endpoints_exact(self):
        names = names_from(["AA BB", "AA CC", "AA DD"])
        idf = compute_idf(names)
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
        idf = compute_idf(names)
        assert math.isclose(idf["mid"], 0.505, abs_tol=1e-12)

    def test_single_distinct_count_all_ones(self):
        names = names_from(["AA BB", "BB AA"])
        idf = compute_idf(names)
        assert idf["aa"] == 1.0 and idf["bb"] == 1.0

    def test_oov_reads_as_one(self):
        idf = compute_idf(names_from(["AA BB", "AA CC"]))
        assert idf["never-seen"] == 1.0

    def test_empty_corpus_gives_empty_table(self):
        idf = compute_idf([])
        assert idf.weights == {}
        assert idf["anything"] == 1.0

    def test_matches_brute_oracle_on_random_corpora(self):
        rng = random.Random(1234)
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(20):
            texts = [
                " ".join(rng.sample(vocab, rng.randint(1, 6))).upper()
                for _ in range(rng.randint(2, 40))
            ]
            names = names_from(texts)
            idf = compute_idf(names)
            oracle = brute_idf([n.tokens for n in names])
            assert set(oracle) == {t for n in names for t in n.tokens}
            for token, expected in oracle.items():
                assert math.isclose(idf[token], expected, abs_tol=1e-12)

    @given(st.lists(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4), min_size=2, max_size=25))
    def test_antitone_in_presence(self, token_lists):
        texts = [" ".join(tokens).upper() for tokens in token_lists]
        names = names_from(texts)
        idf = compute_idf(names)
        presence = {}
        for n in names:
            for t in set(n.tokens):
                presence[t] = presence.get(t, 0) + 1
        for a in presence:
            for b in presence:
                if presence[a] < presence[b]:
                    assert idf[a] >= idf[b]


class TestEmbedName:
    class Axes:
        """Orthogonal unit axes: aa -> e0, anything else -> e1."""

        dim = 2

        def token_vector(self, token):
            v = np.zeros(2)
            v[0 if token == "aa" else 1] = 1.0
            return v

    def test_weighted_mean_frozen(self):
        # idf weights 1.0 and 0.5 over orthogonal axes -> (2/3, 1/3).
        idf = IdfTable(weights={"aa": 1.0, "bb": 0.5})
        emb = embed_name(("aa", "bb"), self.Axes(), idf)
        assert np.allclose(emb.vector, [2 / 3, 1 / 3])
        assert not emb.degenerate

    def test_repeated_token_weighs_twice(self):
        idf = IdfTable(weights={"aa": 1.0, "bb": 1.0})
        emb = embed_name(("aa", "aa", "bb"), self.Axes(), idf)
        assert np.allclose(emb.vector, [2 / 3, 1 / 3])

    def test_empty_tokens_rejected(self):
        with pytest.raises(InputError):
            embed_name((), self.Axes(), IdfTable(weights={}))

    def test_cancelling_tokens_degenerate(self):
        # The hashed "b" and "p" are exact negatives, so under equal weights
        # their mean is the zero vector, which has no cosine.
        backend = HashingBackend()
        assert np.array_equal(backend.token_vector("b"), -backend.token_vector("p"))
        idf = IdfTable(weights={"b": 0.5, "p": 0.5})
        emb = embed_name(("b", "p"), backend, idf)
        assert emb.degenerate
        assert not emb.vector.any()

    def test_embed_corpus_sorted_and_keyed(self):
        names = names_from(["NOKIA CORP", "ACME LTD"])
        idf = compute_idf(names)
        out = embed_corpus(names, HashingBackend(), idf)
        assert list(out) == ["r0", "r1"]
        assert out["r0"].vector.shape == (256,)
        assert np.array_equal(out["r1"].vector, embed_name(names[1].tokens, HashingBackend(), idf).vector)


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
        vectors: every value equals cosine_similarity exactly, both ways."""
        rng = np.random.default_rng(11)
        vectors = list(rng.normal(size=(40, 32)))
        vectors += [v * 3.0 for v in vectors[:5]] + [v.copy() for v in vectors[5:10]] + [-vectors[10]]
        signed = np.zeros(32)
        signed[0] = 1.0
        vectors += [signed, np.where(signed == 0.0, -0.0, signed)]
        n = len(vectors)
        a, b = (np.array(col) for col in zip(*[(i, j) for i in range(n) for j in range(n) if i != j]))
        got = pair_cosines(vectors, a, b).tolist()
        assert got == [cosine_similarity(vectors[i], vectors[j]) for i, j in zip(a.tolist(), b.tolist())]
        assert got.count(1.0) >= 2 * 6

    def test_zero_norm_rejected_only_when_paired(self):
        vectors = [np.ones(3), np.zeros(3), np.array([1.0, 0.0, 0.0])]
        assert pair_cosines(vectors, np.array([0]), np.array([2])).tolist() == [cosine_similarity(vectors[0], vectors[2])]
        with pytest.raises(ValueError, match="zero-norm"):
            pair_cosines(vectors, np.array([0]), np.array([1]))
