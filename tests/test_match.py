"""Condition vectors, matching scores, candidate blocking, and the pair table."""

import dataclasses
import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonizer.config import PipelineConfig
from harmonizer.embed import HashingBackend, NameEmbedding, embed_corpus
from harmonizer import match
from harmonizer.errors import ConfigError
from harmonizer.match import (
    FULL_INDEX,
    PAIRS_HEADER,
    PairTable,
    blocking_key_kinds,
    generate_candidate_pairs,
    score_pairs,
    write_scored_pairs,
)
from harmonizer.parse import (
    CleanName,
    NameClass,
    build_common_word_list,
    clean_name,
    classify_name_type,
    document_frequencies,
)

from conftest import DESIGNATORS, UNIT, WEIGHTS, corpus_idf, domain_columns, make_corpus, make_params, read_pairs_tsv
from oracles import (
    ConditionVector,
    PageInfo,
    brute_force_candidates,
    evaluate_conditions,
    matching_score,
    reference_candidate_pairs,
    reference_write_pairs,
    sparse_vectors,
)

# At unit weights cos alone reaches a threshold of 1.0, so this bound blocks
# with FULL_INDEX.
FULL = dataclasses.replace(UNIT, threshold=1.0)


def classified(raw, common=None):
    """The cleaned name of ``raw`` and whether it is type-1 under ``common``
    (no common words by default)."""
    common = common if common is not None else frozenset()
    cn = clean_name(raw, None, DESIGNATORS)
    return cn, classify_name_type(cn.tokens, common) is NameClass.TYPE1


def conditions(raw_a, raw_b, *rest, common=None):
    """``evaluate_conditions`` of the classified names of ``raw_a`` and
    ``raw_b``; ``rest`` holds their page infos and embeddings."""
    (a, type1_a), (b, type1_b) = classified(raw_a, common), classified(raw_b, common)
    return evaluate_conditions(a, b, type1_a, type1_b, *rest)


def unit_embedding(direction, dim=8):
    v = np.zeros(dim)
    if isinstance(direction, int):
        v[direction] = 1.0
    else:
        for d in direction:
            v[d] = 1.0
        v /= np.linalg.norm(v)
    return NameEmbedding(vector=v, degenerate=False)


def info(domain=None, url_tokens=()):
    return PageInfo(domain=domain, url_tokens=frozenset(url_tokens))


class TestWeightVector:
    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_invalid(self, bad):
        # Weights are checked as the config loads.
        with pytest.raises(ConfigError, match="match.weights.token must be"):
            PipelineConfig.load(None, environ={}, overrides={"match": {"weights": {"token": bad}}})


class TestConditionVector:
    def test_type1_requires_token_fields(self):
        with pytest.raises(ValueError):
            ConditionVector(NameClass.TYPE1, None, None, None, 0, 0.0)

    def test_type2_forbids_token_fields(self):
        with pytest.raises(ValueError):
            ConditionVector(NameClass.TYPE2, 1, 0, 0, 0, 0.0)

    def test_first_cannot_exceed_token(self):
        with pytest.raises(ValueError):
            ConditionVector(NameClass.TYPE1, 0, 1, 0, 0, 0.0)

    def test_cos_range(self):
        with pytest.raises(ValueError):
            ConditionVector(NameClass.TYPE1, 0, 0, 0, 0, 1.5)

    def test_binary_range(self):
        with pytest.raises(ValueError):
            ConditionVector(NameClass.TYPE1, 2, 0, 0, 0, 0.0)


class TestEvaluateConditions:
    def test_all_conditions_fire(self):
        cv = conditions(
            "NOKIA CORPORATION",
            "NOKIA NETWORKS OY",
            info("nokia.com", {"nokia", "phones"}),
            info("nokia.com", {"nokia", "infrastructure"}),
            unit_embedding(0),
            unit_embedding(0),
        )
        assert (cv.token_common, cv.first_token_common, cv.url_text_common, cv.domain_common) == (1, 1, 1, 1)
        assert cv.cos == 1.0

    def test_first_token_needs_shared_first(self):
        cv = conditions("NOKIA SIEMENS", "SIEMENS AG", None, None, unit_embedding(0), unit_embedding(1))
        assert cv.token_common == 1
        assert cv.first_token_common == 0

    def test_url_text_needs_own_overlap_on_both_sides(self):
        # Shared page tokens, but b's name never appears in b's page text.
        cv = conditions(
            "NOKIA CORPORATION",
            "NOKIA OYJ",
            info(None, {"nokia", "finland"}),
            info(None, {"finland", "telecom"}),
            unit_embedding(0),
            unit_embedding(0),
        )
        assert cv.url_text_common == 0

    def test_url_text_needs_cross_intersection(self):
        cv = conditions(
            "NOKIA CORPORATION",
            "ACME LTD",
            info(None, {"nokia"}),
            info(None, {"acme"}),
            unit_embedding(0),
            unit_embedding(1),
        )
        assert cv.url_text_common == 0

    def test_domain_needs_both_present(self):
        cv = conditions(
            "NOKIA CORPORATION", "NOKIA OYJ", info("nokia.com"), info(None), unit_embedding(0), unit_embedding(0)
        )
        assert cv.domain_common == 0

    def test_missing_info_treated_as_empty(self):
        cv = conditions("NOKIA CORPORATION", "NOKIA OYJ", None, None, unit_embedding(0), unit_embedding(0))
        assert cv.domain_common == 0 and cv.url_text_common == 0

    def test_degenerate_embedding_zeroes_cos(self):
        dead = NameEmbedding(vector=np.zeros(8), degenerate=True)
        cv = conditions("NOKIA CORPORATION", "NOKIA OYJ", None, None, unit_embedding(0), dead)
        assert cv.cos == 0.0 and cv.cos_degenerate

    def test_type2_pair(self):
        common = frozenset({"global", "systems", "group"})
        assert not classified("GLOBAL SYSTEMS", common)[1]
        cv = conditions(
            "GLOBAL SYSTEMS",
            "GLOBAL GROUP",
            info("g.com"),
            info("g.com"),
            unit_embedding(0),
            unit_embedding(0),
            common=common,
        )
        assert cv.kind is NameClass.TYPE2
        assert cv.token_common is None
        assert cv.domain_common == 1

    def test_cross_class_rejected(self):
        common = frozenset({"global", "systems"})
        with pytest.raises(ValueError, match="cannot pair"):
            conditions(
                "GLOBAL SYSTEMS", "NOKIA CORPORATION", None, None, unit_embedding(0), unit_embedding(0), common=common
            )


class TestMatchingScore:
    def test_type1_all_ones(self):
        cv = ConditionVector(NameClass.TYPE1, 1, 1, 1, 1, 1.0)
        assert matching_score(cv, UNIT) == 5.0

    def test_type1_minimum(self):
        cv = ConditionVector(NameClass.TYPE1, 0, 0, 0, 0, -1.0)
        assert matching_score(cv, UNIT) == -1.0

    def test_type2_bounds(self):
        top = ConditionVector(NameClass.TYPE2, None, None, None, 1, 1.0)
        bottom = ConditionVector(NameClass.TYPE2, None, None, None, 0, -1.0)
        assert matching_score(top, UNIT) == 2.0
        assert matching_score(bottom, UNIT) == -1.0

    def test_weights_scale_conditions(self):
        cv = ConditionVector(NameClass.TYPE1, 1, 0, 1, 0, 0.5)
        w = make_params(w_token=2.0, w_first_token=3.0, w_url_text=0.5, w_domain=4.0, w_cos=2.0)
        assert matching_score(cv, w) == 2.0 + 0.5 + 1.0

    @given(
        st.booleans(), st.booleans(), st.booleans(), st.booleans(),
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
    def test_type1_unit_weight_range(self, t, f, u, d, cos):
        f = f and t  # invariant: first requires token
        cv = ConditionVector(NameClass.TYPE1, int(t), int(f), int(u), int(d), cos)
        score = matching_score(cv, UNIT)
        assert -1.0 <= score <= 5.0

    @given(st.booleans(), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_type2_unit_weight_range(self, d, cos):
        cv = ConditionVector(NameClass.TYPE2, None, None, None, int(d), cos)
        assert -1.0 <= matching_score(cv, UNIT) <= 2.0


def small_corpus(locations=None):
    """Mixed corpus with domains and url tokens for blocking tests, as a
    ``Corpus`` without candidates whose records hold ``locations``."""
    common = frozenset({"global", "systems", "industries"})
    texts = {
        "r01": "NOKIA CORPORATION",
        "r02": "NOKIA OYJ",
        "r03": "NOKIAN TYRES",
        "r04": "ACME GLOBAL SYSTEMS",
        "r05": "ACME INDUSTRIES",
        "r06": "GLOBAL SYSTEMS",          # type-2
        "r07": "GLOBAL INDUSTRIES",       # type-2
        "r08": "SYSTEMS GLOBAL GROUP",    # type-1 (group not common)
        "r09": "ZETA LABS",
        "r10": "OMEGA DEVICES",
    }
    names, type1 = map(list, zip(*(classified(t, common) for t in texts.values())))
    infos = {
        "r01": info("nokia.com", {"nokia", "phones"}),
        "r02": info("nokia.com", {"nokia", "espoo"}),
        "r03": info("nokian-tyres.com", {"nokian", "tyres"}),
        "r04": info("acme.com", {"acme"}),
        "r06": info("dir.example"),
        "r07": info("dir.example"),
        "r09": info("zeta.io", {"zeta", "labs"}),
    }
    embeddings = embed_corpus(names, HashingBackend(dim=64), corpus_idf(names))
    infos = [infos.get(rid, info()) for rid in texts]
    return make_corpus(list(texts), names, type1, infos, embeddings, locations=locations)


def blocked(corpus, bound, stats=None):
    """``generate_candidate_pairs`` over the columns of ``corpus``."""
    stats = {} if stats is None else stats
    return generate_candidate_pairs(corpus.names, corpus.type1, corpus.domain, corpus.url_tokens, bound, stats)


def id_pairs(ids, pairs):
    """Rows of positions in ``ids`` as (id_a, id_b) tuples."""
    return [(ids[i], ids[j]) for i, j in pairs.tolist()]


class TestCandidates:
    def test_blocking_contains_all_binary_capable_pairs(self):
        corpus = small_corpus()
        pairs = set(id_pairs(corpus.ids, blocked(corpus, FULL)))
        # Shared token "nokia":
        assert ("r01", "r02") in pairs
        # Shared domain, type-2 names:
        assert ("r06", "r07") in pairs
        # Shared token "acme":
        assert ("r04", "r05") in pairs
        # No shared key at all:
        assert ("r09", "r10") not in pairs
        # Different classes never pair, even sharing the "global" token bucket:
        assert ("r04", "r06") not in pairs

    def test_url_token_bucket_pairs(self):
        corpus = small_corpus()
        pairs = id_pairs(corpus.ids, blocked(corpus, FULL))
        # r03's url token "nokian" equals r03's name token only; no cross pair
        # through it, but r01/r02 share the "nokia" url token bucket.
        assert ("r01", "r02") in pairs

    def test_brute_force_same_class_only(self):
        corpus = small_corpus()
        pairs = id_pairs(corpus.ids, brute_force_candidates(corpus.type1))
        type2 = {"r06", "r07"}
        for a, b in pairs:
            assert ((a in type2) == (b in type2))
        # 8 type-1 names -> 28 pairs; 2 type-2 names -> 1 pair.
        assert len(pairs) == 29

    def test_blocked_is_subset_of_brute(self):
        corpus = small_corpus()
        pairs = set(id_pairs(corpus.ids, blocked(corpus, FULL)))
        assert pairs <= set(id_pairs(corpus.ids, brute_force_candidates(corpus.type1)))

    def test_blocking_lossless_above_cos_weight(self):
        """Any pair scoring above w_cos must appear among blocked candidates."""
        corpus = small_corpus()
        pairs = set(id_pairs(corpus.ids, blocked(corpus, FULL)))
        brute = score_pairs(dataclasses.replace(corpus, candidates=brute_force_candidates(corpus.type1)))
        for row in np.flatnonzero(brute.scores(FULL) > FULL.w_cos):
            assert (brute.ids[brute.a[row]], brute.ids[brute.b[row]]) in pairs


def random_blocking_corpus(rng, n):
    """Names, their type-1 flags and page infos with a small shared
    vocabulary, so that every condition fires on some pairs, type-2 names
    share domains, and some names share a word with their own page text."""
    vocab = [f"w{i:02d}" for i in range(40)]
    common_words = vocab[:6]
    domains = [f"d{i}.example" for i in range(8)]
    names = []
    for i in range(n):
        pool = common_words if rng.random() < 0.2 else vocab
        tokens = rng.sample(pool, rng.randint(1, 3))
        names.append(clean_name(" ".join(tokens).upper(), None, DESIGNATORS))
    common = build_common_word_list(document_frequencies(names), len(common_words))
    type1 = np.array([classify_name_type(nm.tokens, common) is NameClass.TYPE1 for nm in names])
    infos = []
    for nm in names:
        domain = rng.choice(domains) if rng.random() < 0.4 else None
        url_tokens = set()
        if rng.random() < 0.5:
            url_tokens.update(rng.sample(vocab, rng.randint(1, 3)))
            if rng.random() < 0.5:
                url_tokens.add(nm.tokens[0])
        infos.append(info(domain, url_tokens))
    return names, type1, infos


class TestBoundedBlocking:
    def test_every_kind_priced_by_its_bucket_sizes(self, monkeypatch):
        """The four kinds a bound can choose, and only those, reach
        ``blocking_key_kinds`` priced as the sum of C(|bucket|, 2) over their
        keys, indexed or not, also when records share a page's url token set,
        and only the chosen kinds' buckets make candidates."""
        names, type1, infos = random_blocking_corpus(random.Random(5), 120)
        rng = random.Random(6)
        for i, source in zip(rng.sample(range(120), 30), rng.sample(range(120), 30)):
            infos[i] = PageInfo(infos[i].domain, infos[source].url_tokens)
        shared = Counter(inf.url_tokens for is_type1, inf in zip(type1, infos) if is_type1)
        assert any(len(keys) and holders > 1 for keys, holders in shared.items())
        priced = []

        def spy(bound, cost):
            priced.append({})

            def recorded(kind):
                priced[-1][kind] = cost(kind)
                return priced[-1][kind]

            return blocking_key_kinds(bound, recorded)

        monkeypatch.setattr(match, "blocking_key_kinds", spy)
        stats: dict = {}
        bound = dataclasses.replace(UNIT, threshold=3.9)
        candidates = generate_candidate_pairs(names, type1, *domain_columns(infos), bound, stats)
        buckets: dict[str, dict[str, list[int]]] = {
            kind: {} for kind in ("first_token", "token", "domain", "url", "url_any", "type2_domain")
        }
        for i, (name, is_type1, inf) in enumerate(zip(names, type1, infos)):
            held = {"type2_domain": [inf.domain] if inf.domain else []}
            if is_type1:
                tokens = set(name.tokens)
                held = {
                    "first_token": [name.tokens[0]],
                    "token": tokens,
                    "domain": [inf.domain] if inf.domain else [],
                    "url": inf.url_tokens if tokens & inf.url_tokens else [],
                    "url_any": inf.url_tokens,
                }
            for kind, keys in held.items():
                for key in keys:
                    buckets[kind].setdefault(key, []).append(i)
        assert len(priced) == 1 and set(priced[0]) == {"first_token", "token", "domain", "url"}
        assert priced[0] == {
            kind: sum(len(p) * (len(p) - 1) // 2 for p in buckets[kind].values()) for kind in priced[0]
        }
        assert min(priced[0].values()) > 0
        chosen = {
            pair
            for kind in stats["keys"]
            for positions in buckets[kind].values()
            for pair in itertools.combinations(positions, 2)
        }
        assert set(stats["keys"]) < set(priced[0])
        assert sorted(chosen) == list(map(tuple, candidates.tolist()))

    def test_oracle_over_random_bounds(self):
        """Over random weights (zeros included) and thresholds, the bounded
        candidates keep exactly the pairs of the full index, and of brute
        force, that score >= threshold."""
        rng = random.Random(7)
        names, type1, infos = random_blocking_corpus(rng, 160)
        ids = [f"r{i:03d}" for i in range(len(names))]
        embeddings = embed_corpus(names, HashingBackend(dim=32), corpus_idf(names))
        brute = score_pairs(make_corpus(ids, names, type1, infos, embeddings, brute_force_candidates(type1)))
        brute_ids = [(brute.ids[i], brute.ids[j]) for i, j in zip(brute.a, brute.b)]
        columns = domain_columns(infos)
        full = set(id_pairs(ids, generate_candidate_pairs(names, type1, *columns, FULL, {})))
        seen = {"cos_alone": 0, "type2_reachable": 0, "type2_unreachable": 0}
        kept_type2 = kept = 0
        for _ in range(150):
            weights = {k: 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 1.5) for k in WEIGHTS}
            threshold = rng.uniform(0.0, 1.1 * sum(weights.values()))
            bound = make_params(**weights, threshold=threshold)
            if bound.w_cos >= threshold:
                seen["cos_alone"] += 1
            elif bound.w_domain + bound.w_cos >= threshold:
                seen["type2_reachable"] += 1
            else:
                seen["type2_unreachable"] += 1
            bounded = set(id_pairs(ids, generate_candidate_pairs(names, type1, *columns, bound, {})))
            reaching = {
                brute_ids[row]: NameClass.TYPE1 if brute.type1[row] else NameClass.TYPE2
                for row in np.flatnonzero(brute.scores(bound) >= threshold)
            }
            assert bounded & reaching.keys() == full & reaching.keys(), bound
            if bound.w_cos < threshold:
                assert reaching.keys() <= bounded, bound
            kept += len(reaching)
            kept_type2 += sum(1 for kind in reaching.values() if kind is NameClass.TYPE2)
        assert min(seen.values()) >= 10, seen
        assert kept and kept_type2, "degenerate draws: nothing reached the threshold"

    @pytest.mark.parametrize(
        "costs, expected",
        [
            ({"first_token": 1, "token": 100, "domain": 1, "url": 100}, ("first_token", "domain")),
            ({"first_token": 10, "token": 5, "domain": 10, "url": 10}, ("token",)),
            ({"first_token": 10, "token": 50, "domain": 10, "url": 1}, ("first_token", "url")),
        ],
    )
    def test_cheapest_valid_kinds_win(self, costs, expected):
        assert blocking_key_kinds(dataclasses.replace(UNIT, threshold=3.9), costs.__getitem__) == expected

    def test_type2_domain_keys_only_when_reachable(self):
        costs = dict.fromkeys(("first_token", "token", "domain", "url"), 1)
        assert "type2_domain" not in blocking_key_kinds(dataclasses.replace(UNIT, threshold=3.9), costs.__getitem__)
        assert "type2_domain" in blocking_key_kinds(dataclasses.replace(UNIT, threshold=2.0), costs.__getitem__)

    def test_cos_alone_reaching_gives_full_index(self):
        costs = dict.fromkeys(("first_token", "token", "domain", "url"), 1)
        assert blocking_key_kinds(dataclasses.replace(UNIT, threshold=1.0), costs.__getitem__) == FULL_INDEX

    def test_unreachable_threshold_indexes_nothing(self):
        stats = {}
        assert blocked(small_corpus(), dataclasses.replace(UNIT, threshold=9.0), stats).shape == (0, 2)
        assert stats == {"keys": [], "largest_block": 0, "pair_keys": {}}

    def test_url_keys_need_own_page_overlap(self):
        # Only url tokens decide; the first two names share "shared" in their page text.
        names, type1 = zip(*map(classified, ("ALPHA", "BETA", "GAMMA")))
        bound = make_params(w_token=0.0, w_first_token=0.0, w_url_text=1.0, w_domain=0.0, w_cos=0.5, threshold=1.4)
        own = [info(url_tokens={"alpha", "shared"}), info(url_tokens={"beta", "shared"}), info()]
        assert generate_candidate_pairs(names, type1, *domain_columns(own), bound, {}).tolist() == [[0, 1]]
        foreign = domain_columns([own[0], info(url_tokens={"shared"}), info()])
        assert generate_candidate_pairs(names, type1, *foreign, bound, {}).tolist() == []
        assert generate_candidate_pairs(names, type1, *foreign, FULL, {}).tolist() == [[0, 1]]

    def test_default_run_and_tune_keys_on_corpus300(self, corpus300_paths, corpus300_config):
        """At the defaults, run indexes first tokens and domains and no type-2
        keys; the default tune box falls back to the full index."""
        from harmonizer.augment import AugmentationCache
        from harmonizer.ingest import load_assignee_table
        from harmonizer.pipeline import RunManifest, prepare_corpus

        records = load_assignee_table(corpus300_paths["input"])
        cache = AugmentationCache(corpus300_paths["cache"])
        run_manifest, tune_manifest = RunManifest("", 0, {}), RunManifest("", 0, {})
        run = prepare_corpus(corpus300_config, records, cache, manifest=run_manifest)
        assert run_manifest.blocking["keys"] == ["first_token", "domain"]
        assert run_manifest.stage_counts["type2"] > 0
        tune = prepare_corpus(
            corpus300_config, records, cache, bound=corpus300_config.tuning_score_bound(), manifest=tune_manifest
        )
        assert tune_manifest.blocking["keys"] == list(FULL_INDEX)
        assert np.array_equal(tune.candidates, blocked(tune, FULL))
        assert set(map(tuple, run.candidates.tolist())) < set(map(tuple, tune.candidates.tolist()))

    def test_tuning_bound_prices_no_kind(self, monkeypatch, corpus300_config):
        """Under the tuning corner cos alone reaches the threshold, so the
        full index is used and no kind is priced; candidates and stats are
        the eagerly priced reference's."""
        names, type1, infos = random_blocking_corpus(random.Random(5), 120)
        bound = corpus300_config.tuning_score_bound()
        expected_stats: dict = {}
        expected = reference_candidate_pairs(names, type1, infos, bound, expected_stats)
        priced = []
        monkeypatch.setattr(match, "_pairs_cost", lambda held: priced.append(held) or 0)
        stats: dict = {}
        pairs = generate_candidate_pairs(names, type1, *domain_columns(infos), bound, stats)
        assert priced == [] and stats["keys"] == list(FULL_INDEX)
        assert (pairs.dtype, pairs.shape, pairs.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
        assert stats == expected_stats


def assert_same_as_reference(names, type1, infos, bound):
    """``generate_candidate_pairs`` returns the reference's bytes and stats."""
    stats, expected_stats = {}, {}
    pairs = generate_candidate_pairs(names, type1, *domain_columns(infos), bound, stats)
    expected = reference_candidate_pairs(names, type1, infos, bound, expected_stats)
    assert (pairs.dtype, pairs.shape, pairs.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
    assert stats == expected_stats
    return stats


# Words that tokens, url tokens and domains all draw from, so one string is
# a key of several kinds.
SHARED_WORDS = ["acme", "beta", "corp", "delta", "echo", "fox", "golf"]


@st.composite
def blocking_draws(draw):
    """Names with their type-1 flags and page infos, zero names included."""
    records = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(SHARED_WORDS), min_size=1, max_size=3, unique=True),
                st.booleans(),
                st.none() | st.sampled_from(SHARED_WORDS),
                st.frozensets(st.sampled_from(SHARED_WORDS), max_size=3),
            ),
            max_size=14,
        )
    )
    names = [CleanName(" ".join(tokens), tuple(tokens), False) for tokens, _, _, _ in records]
    type1 = np.array([is_type1 for _, is_type1, _, _ in records], dtype=bool)
    infos = [PageInfo(domain, url_tokens) for _, _, domain, url_tokens in records]
    return names, type1, infos


score_bounds = st.builds(
    lambda weights, threshold: make_params(**dict(zip(WEIGHTS, weights)), threshold=threshold),
    st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 1.5])] * 5),
    st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.9, 9.0]),
)


class TestCandidateBuffer:
    """The sorted key arrays against the inverted-index reference."""

    @pytest.mark.parametrize("corpus_name", ["corpus60", "corpus300"])
    @pytest.mark.parametrize("bound_name", ["score_bound", "tuning_score_bound"])
    def test_committed_corpora(self, request, corpus_name, bound_name):
        from harmonizer.augment import AugmentationCache
        from harmonizer.ingest import load_assignee_table
        from harmonizer.pipeline import prepare_corpus

        paths = request.getfixturevalue(f"{corpus_name}_paths")
        config = request.getfixturevalue(f"{corpus_name}_config")
        bound = config.params_at({}) if bound_name == "score_bound" else config.tuning_score_bound()
        corpus = prepare_corpus(config, load_assignee_table(paths["input"]), AugmentationCache(paths["cache"]), bound=bound)
        # Blocking reads only whether two domains are equal, so each code
        # stands for its domain.
        infos = [PageInfo(None if d < 0 else f"d{d}", u) for d, u in zip(corpus.domain.tolist(), corpus.url_tokens)]
        stats = assert_same_as_reference(corpus.names, corpus.type1, infos, bound)
        assert len(corpus.candidates) <= sum(stats["pair_keys"].values())

    @settings(max_examples=300, deadline=None)
    @given(blocking_draws(), score_bounds, st.sampled_from([1, 2, 3, 1 << 16]))
    def test_drawn_key_sets(self, draw, bound, chunk):
        """Keys shared across kinds, keys held once, empty kinds, type-2
        domains and zero names; chunks of 1-3 pair keys end inside buckets
        and between them."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(match, "_CHUNK_PAIRS", chunk)
            assert_same_as_reference(*draw, bound)

    def test_peak_memory_is_about_17_bytes_per_pair_key(self):
        """One token held by 2,000 names, and a domain held by 1,900 of them
        that repeats their pairs: the peak is the buffer, a keep mask and the
        kept keys, plus a fixed few MB. Filling the buffer in one step, with
        its index arrays as large as the buffer, peaks above this."""
        n = 2000
        names = [CleanName(f"acme n{i}", ("acme", f"n{i}"), False) for i in range(n)]
        type1 = np.ones(n, dtype=bool)
        columns = domain_columns([info("acme.example" if i % 20 else None) for i in range(n)])
        stats: dict = {}
        tracemalloc.start()
        try:
            pairs = generate_candidate_pairs(names, type1, *columns, FULL, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pair_keys = sum(stats["pair_keys"].values())
        assert stats["pair_keys"] == {"token": 1_999_000, "url_any": 0, "domain": 1_804_050, "type2_domain": 0}
        assert len(pairs) == 1_999_000
        assert peak <= 17 * pair_keys + 4 * 2**20, (peak, pair_keys)


def pair_ids(table, rows=None):
    rows = range(len(table)) if rows is None else rows
    return [(table.ids[table.a[r]], table.ids[table.b[r]]) for r in rows]


def oracle_corpus(seed, n=70):
    """Names, type-1 flags, page infos and embeddings where every condition
    fires somewhere, type-2 names pair, some embeddings are degenerate, some
    records carry a bitwise copy of another record's vector in a row of
    their own and some share another record's row."""
    rng = random.Random(seed)
    names, type1, infos = random_blocking_corpus(rng, n)
    embedded = embed_corpus(names, HashingBackend(dim=32), corpus_idf(names))
    block = np.array([embedding.vector for embedding in embedded.values()])
    rows = range(len(names))
    for i in rng.sample(rows, 6):
        block[i] = 0.0
    for i, source in zip(rng.sample(rows, 10), rng.sample(rows, 10)):
        block[i] = block[source]
    shared = np.arange(len(names))
    for i, source in zip(rng.sample(rows, 10), rng.sample(rows, 10)):
        shared[i] = shared[source]
    return names, type1, infos, sparse_vectors(block, shared)


class TestScorePairs:
    def test_sorted_and_scored(self):
        corpus = small_corpus()
        pairs = blocked(corpus, FULL)
        table = score_pairs(dataclasses.replace(corpus, candidates=pairs))
        assert table.ids == corpus.ids == tuple(f"r{i:02d}" for i in range(1, 11))
        assert table.a.tolist() == pairs[:, 0].tolist() and table.b.tolist() == pairs[:, 1].tolist()
        assert pair_ids(table) == sorted(pair_ids(table))
        assert table.a.dtype == np.int32 and table.token.dtype == np.uint8 and table.cos.dtype == np.float64
        nokia = pair_ids(table).index(("r01", "r02"))
        assert table.domain[nokia] == 1
        assert table.scores(UNIT)[nokia] > 3.9

    def test_pair_order_normalized(self):
        # Blocking hands over pairs as ascending rows of i < j; the table
        # keeps them as given.
        corpus = dataclasses.replace(small_corpus(), candidates=np.array([[0, 1]]))
        assert pair_ids(score_pairs(corpus)) == [("r01", "r02")]

    def test_location_column(self):
        # Records share a location when they share a location key.
        locations = {
            "r01": {"espoo||fi"},
            "r02": {"espoo||fi"},
            "r04": {"york||uk"},
            "r05": {"leeds||uk"},
            "r08": {"york||uk"},
        }
        corpus = small_corpus(locations)
        table = score_pairs(dataclasses.replace(corpus, candidates=brute_force_candidates(corpus.type1)))
        shared = {pair for pair, flag in zip(pair_ids(table), table.location) if flag}
        assert shared == {("r01", "r02"), ("r04", "r08")}
        assert table.location.dtype == np.uint8

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_table_matches_scalar_oracle(self, seed):
        """Every column and every score equals evaluate_conditions and
        matching_score exactly, under random weights with zeros."""
        names, type1, infos, vectors = oracle_corpus(seed)
        ids = [f"r{i:03d}" for i in range(len(names))]
        embeddings = list(vectors.values())
        candidates = brute_force_candidates(type1)
        table = score_pairs(make_corpus(ids, names, type1, infos, vectors, candidates))
        pairs = id_pairs(ids, candidates)
        assert pair_ids(table) == pairs
        rng = random.Random(seed)
        oracle = [
            evaluate_conditions(
                names[i], names[j], type1[i], type1[j], infos[i], infos[j], embeddings[i], embeddings[j]
            )
            for i, j in candidates.tolist()
        ]
        for row, cv in enumerate(oracle):
            assert bool(table.type1[row]) == (cv.kind is NameClass.TYPE1)
            got = (table.token[row], table.first[row], table.url[row], table.domain[row], table.cos[row])
            expected = (cv.token_common or 0, cv.first_token_common or 0, cv.url_text_common or 0, cv.domain_common, cv.cos)
            assert got == expected, (pairs[row], got, expected)
        for _ in range(20):
            params = make_params(**{k: 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 2.0) for k in WEIGHTS})
            scores = table.scores(params)
            assert scores.tolist() == [matching_score(cv, params) for cv in oracle], params
        cases = {
            "type2": sum(cv.kind is NameClass.TYPE2 for cv in oracle),
            "degenerate": sum(cv.cos_degenerate for cv in oracle),
            "identical": sum(
                not cv.cos_degenerate and np.array_equal(embeddings[i].vector, embeddings[j].vector)
                for (i, j), cv in zip(candidates.tolist(), oracle)
            ),
            "url": sum(cv.url_text_common == 1 for cv in oracle),
            "first": sum(cv.first_token_common == 1 for cv in oracle),
        }
        assert min(cases.values()) > 0, cases


@st.composite
def twin_corpora(draw):
    """A ``Corpus`` of drawn evidence, each copied one to four times under
    fresh ids and shuffled, with every same-class pair as a candidate: names
    with no token (degenerate), type-2 names, no domain, empty pages and
    empty location sets included. Also each record's ``PageInfo``, for the
    oracle."""
    words = SHARED_WORDS[:5]
    evidence = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(words), max_size=3, unique=True),
                st.booleans(),
                st.none() | st.sampled_from(words),
                st.frozensets(st.sampled_from(words), max_size=2),
                st.frozensets(st.sampled_from(["espoo||fi", "york||uk"]), max_size=2),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=10,
        )
    )
    copies = draw(st.permutations([e[:5] for e in evidence for _ in range(e[5])]))
    names = [CleanName(" ".join(tokens), tuple(tokens), not tokens) for tokens, *_ in copies]
    type1 = np.array([is_type1 for _, is_type1, *_ in copies], dtype=bool)
    infos = [PageInfo(domain, url_tokens) for _, _, domain, url_tokens, _ in copies]
    ids = [f"r{k:03d}" for k in range(len(copies))]
    locations = {rid: where for rid, (*_, where) in zip(ids, copies)}
    vectors = embed_corpus(names, HashingBackend(dim=16), corpus_idf(names))
    corpus = make_corpus(ids, names, type1, infos, vectors, brute_force_candidates(type1), locations)
    return corpus, infos


def evidence_key(corpus, k):
    """Every column of record ``k`` that a condition or the cosine reads."""
    return (corpus.names[k].tokens, bool(corpus.type1[k]), int(corpus.vectors.rows[k]), int(corpus.domain[k]),
            corpus.url_tokens[k], corpus.records[k].locations)


class TestEvidencePairs:
    """``score_pairs`` evaluates each distinct evidence pair once; every row
    holds what the record pair gives, and the numbering reads no hash."""

    @settings(max_examples=200, deadline=None)
    @given(twin_corpora())
    def test_rows_match_oracle_and_pairs_hold_equal_columns(self, drawn):
        corpus, infos = drawn
        table = score_pairs(corpus)
        embeddings = list(corpus.vectors.values())
        names, type1 = corpus.names, corpus.type1
        assert table.pair.dtype == np.int32 and len(table.pair) == len(table)
        for row, (i, j) in enumerate(corpus.candidates.tolist()):
            cv = evaluate_conditions(names[i], names[j], type1[i], type1[j], infos[i], infos[j], embeddings[i], embeddings[j])
            got = (table.token[row], table.first[row], table.url[row], table.domain[row], table.cos[row])
            expected = (cv.token_common or 0, cv.first_token_common or 0, cv.url_text_common or 0, cv.domain_common, cv.cos)
            assert got == expected, (row, got, expected)
            where = corpus.records[i].locations & corpus.records[j].locations
            assert table.location[row] == bool(where) and table.type1[row] == type1[i]
        # Classes numbered by first record, and each pair of classes by its
        # (smaller, larger) class numbers, with equality alone: no hash.
        keys: list = []
        cls = []
        for k in range(len(names)):
            key = evidence_key(corpus, k)
            if key not in keys:
                keys.append(key)
            cls.append(keys.index(key))
        class_pairs = [tuple(sorted((cls[i], cls[j]))) for i, j in corpus.candidates.tolist()]
        distinct = sorted(set(class_pairs))
        assert table.pair.tolist() == [distinct.index(p) for p in class_pairs]
        columns = (table.type1, table.token, table.first, table.url, table.domain, table.location, table.cos)
        for p in range(len(distinct)):
            rows = table.pair == p
            assert all(len(set(column[rows].tolist())) == 1 for column in columns), p

    @pytest.mark.parametrize("threshold", [-math.inf, 1.5])
    def test_writer_matches_row_by_row_oracle(self, tmp_path, threshold):
        """Twins, type-2 rows and more than 1,024 written rows, so lines
        formatted once per evidence pair cross a write boundary."""
        names, type1, infos = random_blocking_corpus(random.Random(7), 40)
        copies = [k for k in range(len(names)) for _ in range(1 + k % 3)]
        random.Random(8).shuffle(copies)
        names, type1, infos = [names[k] for k in copies], type1[copies], [infos[k] for k in copies]
        ids = [f"r{k:03d}" for k in range(len(names))]
        vectors = embed_corpus(names, HashingBackend(dim=32), corpus_idf(names))
        table = score_pairs(make_corpus(ids, names, type1, infos, vectors, brute_force_candidates(type1)))
        scores = table.scores(UNIT)
        kept = scores >= threshold
        if threshold == -math.inf:
            assert kept.sum() > 1024
        assert (~table.type1[kept]).any() and int(table.pair.max()) + 1 < len(table)
        write_scored_pairs(table, scores, tmp_path / "pairs.tsv", threshold)
        reference_write_pairs(table, scores, tmp_path / "reference.tsv", threshold)
        assert (tmp_path / "pairs.tsv").read_bytes() == (tmp_path / "reference.tsv").read_bytes()


class TestPairsIO:
    def test_round_trip(self, tmp_path):
        corpus = small_corpus()
        table = score_pairs(dataclasses.replace(corpus, candidates=blocked(corpus, FULL)))
        scores = table.scores(UNIT)
        path = tmp_path / "pairs.tsv"
        write_scored_pairs(table, scores, path, -math.inf)
        header, rows = read_pairs_tsv(path)
        assert header == PAIRS_HEADER
        assert [tuple(row[:2]) for row in rows] == pair_ids(table)
        for r, row in enumerate(rows):
            binaries = [table.token[r], table.first[r], table.url[r]] if table.type1[r] else ["", "", ""]
            assert row[2:6] == [str(v) for v in binaries + [table.domain[r]]]
        assert np.allclose([float(row[6]) for row in rows], table.cos, rtol=0.0, atol=1e-9)
        assert np.allclose([float(row[7]) for row in rows], scores, rtol=0.0, atol=1e-9)

    def test_threshold_keeps_rows_at_or_above(self, tmp_path):
        corpus = small_corpus()
        table = score_pairs(dataclasses.replace(corpus, candidates=blocked(corpus, FULL)))
        scores = table.scores(UNIT)
        threshold = float(np.sort(scores)[len(scores) // 2])
        path = tmp_path / "pairs.tsv"
        write_scored_pairs(table, scores, path, threshold)
        _, rows = read_pairs_tsv(path)
        assert [tuple(row[:2]) for row in rows] == pair_ids(table, np.flatnonzero(scores >= threshold))

    def test_type2_rows_blank_token_fields(self, tmp_path):
        cv = ConditionVector(NameClass.TYPE2, None, None, None, 1, 0.25)
        zero = np.zeros(1, dtype=np.uint8)
        table = PairTable(
            ("a", "b"), np.array([0]), np.array([1]), np.array([False]), zero, zero, zero, zero + 1, zero, np.array([0.25]),
            np.zeros(1, dtype=np.int32),
        )
        path = tmp_path / "pairs.tsv"
        write_scored_pairs(table, table.scores(UNIT), path, -math.inf)
        row = path.read_text().splitlines()[1].split("\t")
        assert row[2] == row[3] == row[4] == ""
        assert float(row[7]) == matching_score(cv, UNIT)
