"""Acceptance gate: ten behavioral guarantees with pinned tolerances.

Each test prints a single PASS/FAIL line including its runtime against a
pinned budget (run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they complete). Tolerances and budgets are part of the contract and
must not be loosened to make a failing criterion pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import statistics
import string
import time

import networkx as nx
import pytest

from conftest import DESIGNATORS, UNIT, corpus_idf, domain_columns, make_corpus, make_params, run_fixture_pipeline
from harmonizer.config import PipelineConfig
from harmonizer.embed import HashingBackend, embed_corpus
from harmonizer.evaluation import GoldPairs, compute_metrics
from harmonizer.graph import bridgeness_centrality, refine_communities
from harmonizer.match import generate_candidate_pairs, score_pairs
from harmonizer.parse import NameClass, build_common_word_list, classify_name_type, clean_name, document_frequencies
from harmonizer.pipeline import tune_pipeline
from harmonizer.tune import optimize
from nxgraphs import from_networkx
from oracles import (
    CONNECTED_GRAPH_COUNTS,
    ConditionVector,
    PageInfo,
    brute_bridgeness,
    brute_f1,
    brute_force_candidates,
    brute_idf,
    brute_pairwise_confusion,
    matching_score,
)


@contextlib.contextmanager
def criterion(num: int, label: str, budget_s: float):
    """Time one criterion and print its verdict line."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {num:2d} {label}: FAIL after {time.perf_counter() - t0:.1f}s")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"[acceptance] {num:2d} {label}: {verdict} in {elapsed:.1f}s (budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s:.0f}s"


def random_word(rng: random.Random, lo: int = 4, hi: int = 9) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(lo, hi)))


def test_01_score_bounds():
    """Unit-weight scores stay in [-1, 5] (type 1) / [-1, 2] (type 2) and
    both extremes are attained."""
    with criterion(1, "score bounds", 1.0):
        rng = random.Random(0)
        cos_values = [-1.0, -0.5, 0.0, 0.5, 1.0] + [rng.uniform(-1.0, 1.0) for _ in range(200)]
        type1 = []
        for token in (0, 1):
            for first in range(token + 1):
                for url in (0, 1):
                    for dom in (0, 1):
                        for cos in cos_values:
                            conditions = ConditionVector(
                                kind=NameClass.TYPE1,
                                token_common=token,
                                first_token_common=first,
                                url_text_common=url,
                                domain_common=dom,
                                cos=cos,
                            )
                            type1.append(matching_score(conditions, UNIT))
        assert all(-1.0 <= s <= 5.0 for s in type1)
        assert min(type1) == -1.0
        assert max(type1) == 5.0

        type2 = []
        for dom in (0, 1):
            for cos in cos_values:
                conditions = ConditionVector(
                    kind=NameClass.TYPE2,
                    token_common=None,
                    first_token_common=None,
                    url_text_common=None,
                    domain_common=dom,
                    cos=cos,
                )
                type2.append(matching_score(conditions, UNIT))
        assert all(-1.0 <= s <= 2.0 for s in type2)
        assert min(type2) == -1.0
        assert max(type2) == 2.0


def _random_matching_corpus(rng: random.Random, n: int):
    """Random names, their type-1 flags and page infos, with engineered
    overlap so that token, domain, and url-text conditions all fire
    somewhere."""
    vocab = sorted({random_word(rng) for _ in range(1200)})
    hot = vocab[:25]
    domains = [f"{random_word(rng)}.example" for _ in range(max(10, n // 25))]
    names = []
    for i in range(n):
        if rng.random() < 0.04:
            tokens = rng.choices(hot, k=rng.randint(1, 3))
        else:
            tokens = rng.sample(vocab, rng.randint(1, 4))
            if rng.random() < 0.5:
                tokens[rng.randrange(len(tokens))] = rng.choice(hot)
        names.append(clean_name(" ".join(tokens).upper(), None, DESIGNATORS))
    common = build_common_word_list(document_frequencies(names), 25)
    type1 = [classify_name_type(nm.tokens, common) is NameClass.TYPE1 for nm in names]
    domain_info = []
    for nm in names:
        domain = rng.choice(domains) if rng.random() < 0.3 else None
        url_tokens = (
            frozenset(rng.sample(vocab, rng.randint(1, 4))) if rng.random() < 0.3 else frozenset()
        )
        domain_info.append(PageInfo(domain=domain, url_tokens=url_tokens))
    return names, type1, domain_info


def test_02_blocking_losslessness():
    """The inverted-index candidate set reproduces exactly the brute-force
    pair set scoring above the cosine weight, on 3 random corpora."""
    with criterion(2, "blocking losslessness", 120.0):
        unit = dataclasses.replace(UNIT, threshold=1.0)
        for n, seed in ((500, 11), (1200, 22), (2000, 33)):
            rng = random.Random(seed)
            names, type1, domain_info = _random_matching_corpus(rng, n)
            ids = [f"r{i:05d}" for i in range(n)]
            embeddings = embed_corpus(names, HashingBackend(dim=32), corpus_idf(names))
            candidates = generate_candidate_pairs(names, type1, *domain_columns(domain_info), unit, {})
            corpus = make_corpus(ids, names, type1, domain_info, embeddings, candidates)
            scored_blocked = score_pairs(corpus)
            scored_brute = score_pairs(dataclasses.replace(corpus, candidates=brute_force_candidates(type1)))
            cutoff = unit.w_cos + 1e-9
            above_blocked, above_brute = (
                {(t.ids[i], t.ids[j]) for i, j, score in zip(t.a, t.b, t.scores(unit)) if score > cutoff}
                for t in (scored_blocked, scored_brute)
            )
            assert above_blocked == above_brute, f"n={n}: blocking dropped scoring pairs"
            assert above_brute, f"n={n}: degenerate corpus, nothing scored above cutoff"


def test_03_bridgeness_oracle():
    """Bridgeness matches exhaustive shortest-path enumeration to 1e-9 on
    every connected graph with at most 8 nodes plus 100 random 12-node
    graphs; the 5-path center scores exactly 1.0."""
    with criterion(3, "bridgeness oracle", 300.0):
        five_path = bridgeness_centrality(from_networkx(nx.path_graph(5)))
        assert five_path[2] == 1.0

        from oracles import connected_graphs

        levels = connected_graphs(8)
        for n in range(1, 9):
            assert len(levels[n]) == CONNECTED_GRAPH_COUNTS[n - 1], f"enumeration wrong at n={n}"
        checked = 0
        for n in range(1, 9):
            for graph in levels[n]:
                impl = bridgeness_centrality(from_networkx(graph))
                oracle = brute_bridgeness(graph)
                for node in graph:
                    assert abs(impl[node] - oracle[node]) <= 1e-9, (n, node)
                checked += 1
        assert checked == sum(CONNECTED_GRAPH_COUNTS)

        for seed in range(100):
            graph = nx.gnp_random_graph(12, 0.3, seed=seed)
            impl = bridgeness_centrality(from_networkx(graph))
            oracle = brute_bridgeness(graph)
            for node in graph:
                assert abs(impl[node] - oracle[node]) <= 1e-9, ("gnp", seed, node)


def test_04_planted_partition_recovery():
    """Community filtering recovers planted blocks with mean pairwise
    F1 >= 0.95 over 20 seeded graphs."""
    with criterion(4, "planted partition recovery", 60.0):
        f1_scores = []
        for seed in range(20):
            rng = random.Random(seed)
            k = rng.randint(2, 6)
            sizes = [rng.randint(6, 60 // k) for _ in range(k)]
            graph = nx.random_partition_graph(sizes, 0.9, 0.05, seed=seed)
            nx.set_edge_attributes(graph, 1.0, "weight")
            partition = refine_communities(from_networkx(graph), make_params(seed=seed))
            pred = {str(node): cid for node, cid in partition.assignments.items()}
            gold = {
                str(node): f"b{block_index}"
                for block_index, block in enumerate(graph.graph["partition"])
                for node in block
            }
            metrics = compute_metrics(GoldPairs(gold, list(pred)).confusion(list(pred.values())))
            f1_scores.append(metrics.f1)
        mean_f1 = sum(f1_scores) / len(f1_scores)
        assert mean_f1 >= 0.95, f"mean pairwise F1 {mean_f1:.4f} below 0.95: {f1_scores}"


def test_05_desk_corpus_end_to_end(corpus300_paths, tmp_path):
    """The committed 300-name corpus, run fully offline with default scoring
    and filter parameters, reaches F1 >= 0.90 and a reduction rate within
    [0.30, 0.60]."""
    with criterion(5, "desk corpus end to end", 120.0):
        config = PipelineConfig.load(corpus300_paths["config"], environ={})
        assert config.params_at({}) == make_params()

        run = run_fixture_pipeline(corpus300_paths, tmp_path)
        assert run["eval"]["f1"] >= 0.90, f"f1={run['eval']['f1']}"
        rate = run["eval"]["reduction"]["rate"]
        assert 0.30 <= rate <= 0.60, f"reduction rate {rate} outside [0.30, 0.60]"


def test_06_metric_oracle():
    """Pairwise metrics equal a naive O(n^2) enumerator exactly on 50 random
    partitions; the hand-derived confusion (1, 1, 2) gives F1 = 0.4."""
    with criterion(6, "pairwise metric oracle", 10.0):
        hand_pred = {"a": 0, "b": 0, "c": 1, "d": 1}
        hand_gold = {"a": "e1", "b": "e1", "c": "e1", "d": "e2"}
        confusion = GoldPairs(hand_gold, list(hand_pred)).confusion(list(hand_pred.values()))
        assert (confusion.tp, confusion.fp, confusion.fn) == (1, 1, 2)
        assert compute_metrics(confusion).f1 == pytest.approx(0.4)

        for seed in range(50):
            rng = random.Random(seed)
            n = rng.randint(1, 200)
            record_ids = [f"r{i}" for i in range(n)]
            gold_map = {r: f"e{rng.randrange(1, max(2, n // 4))}" for r in record_ids}
            pred = {r: rng.randrange(max(1, n // 3)) for r in record_ids}
            for r in record_ids:
                if rng.random() < 0.1:
                    pred.pop(r)
            confusion = GoldPairs(gold_map, list(pred)).confusion(list(pred.values()))
            assert (confusion.tp, confusion.fp, confusion.fn) == brute_pairwise_confusion(
                pred, gold_map
            ), f"seed {seed}"
            metrics = compute_metrics(confusion)
            expected = brute_f1(confusion.tp, confusion.fp, confusion.fn)
            assert (metrics.precision, metrics.recall, metrics.f1) == expected, f"seed {seed}"


def test_07_tpe_beats_random():
    """On f(x) = -(x - 0.3)^2 with 50 trials x 20 seeds, the TPE median best
    is at least random search's median and lands within 0.05 of the optimum."""
    with criterion(7, "tpe beats random search", 30.0):
        space = [("x", 0.0, 1.0)]

        def objective(params):
            return -((params["x"] - 0.3) ** 2)

        tpe_best, tpe_x = [], []
        random_best = []
        for seed in range(20):
            history = optimize(objective, space, 50, n_startup=10, seed=seed, initial=[], store_path=None)
            tpe_best.append(history.best.objective)
            tpe_x.append(history.best.params["x"])
            rng = random.Random(10_000 + seed)
            random_best.append(
                max(objective({"x": rng.uniform(0.0, 1.0)}) for _ in range(50))
            )
        assert statistics.median(tpe_best) >= statistics.median(random_best)
        median_error = statistics.median(abs(x - 0.3) for x in tpe_x)
        assert median_error < 0.05, f"median |best x - 0.3| = {median_error:.4f}"


def test_08_tuning_improves_pipeline(corpus300_paths):
    """30 TPE trials on the 300-name corpus never fall below the configured
    baseline, which runs as trial 0."""
    with criterion(8, "tuning improves the pipeline", 600.0):
        config = PipelineConfig.load(corpus300_paths["config"], environ={})
        history = tune_pipeline(
            config,
            input_path=corpus300_paths["input"],
            cache_path=corpus300_paths["cache"],
            gold_path=corpus300_paths["gold"],
            n_trials=30,
        )
        assert len(history.trials) == 30
        incumbent = config.incumbent_point()
        assert history.trials[0].params == pytest.approx(incumbent)
        baseline = history.trials[0].objective
        assert baseline >= 0.90
        assert history.best.objective >= baseline


def test_09_determinism(corpus300_paths, tmp_path):
    """Two runs with identical config, seed, and cache produce byte-identical
    mapping files."""
    with criterion(9, "deterministic reruns", 300.0):
        first = run_fixture_pipeline(corpus300_paths, tmp_path / "a", with_gold=False)
        second = run_fixture_pipeline(corpus300_paths, tmp_path / "b", with_gold=False)
        assert first["mapping_bytes"] == second["mapping_bytes"]
        assert len(first["mapping_bytes"]) > 0


def test_10_idf_oracle():
    """The idf table matches a direct ln(N/n_i) + affine rescale to 1e-12 on
    20 random corpora."""
    with criterion(10, "idf oracle", 5.0):
        for seed in range(20):
            rng = random.Random(seed)
            vocab = sorted({random_word(rng, 3, 8) for _ in range(150)})
            texts = [
                " ".join(rng.sample(vocab, rng.randint(1, 6))).upper()
                for _ in range(rng.randint(2, 120))
            ]
            names = [clean_name(t, None, DESIGNATORS) for t in texts]
            idf = corpus_idf(names)
            oracle = brute_idf([n.tokens for n in names])
            assert oracle, f"seed {seed}: empty corpus"
            for token, expected in oracle.items():
                assert abs(idf[token] - expected) <= 1e-12, (seed, token)
