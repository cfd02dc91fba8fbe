"""Pairwise metrics against a brute-force pair enumerator, B-cubed, reports."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import harmonizer
from harmonizer.errors import InputError
from harmonizer.evaluation import GoldPairs, PairwiseConfusion, build_report, compute_metrics, reduction_rate

from oracles import brute_bcubed, brute_f1, brute_pairwise_confusion


def gold_from(mapping):
    return dict(sorted(mapping.items()))


def confusion_of(pred, gold):
    """The pairwise confusion of ``pred`` (record id -> cluster) against
    ``gold``, through GoldPairs over ``pred``'s ids."""
    return GoldPairs(gold, list(pred)).confusion(list(pred.values()))


def bcubed_of(pred, gold):
    """B-cubed of ``pred`` (record id -> cluster) against ``gold``."""
    return GoldPairs(gold, list(pred)).bcubed(list(pred.values()))


class TestPairwiseConfusion:
    def test_hand_case(self):
        # pred {a,b} {c,d}; gold {a,b,c} {d}: tp=1 (a,b), fp=1 (c,d), fn=2.
        pred = {"a": 0, "b": 0, "c": 1, "d": 1}
        gold = gold_from({"a": "x", "b": "x", "c": "x", "d": "y"})
        confusion = confusion_of(pred, gold)
        assert (confusion.tp, confusion.fp, confusion.fn) == (1, 1, 2)
        metrics = compute_metrics(confusion)
        assert metrics.precision == 0.5
        assert math.isclose(metrics.recall, 1 / 3)
        assert math.isclose(metrics.f1, 0.4)

    def test_perfect(self):
        pred = {"a": 0, "b": 0, "c": 1}
        gold = gold_from({"a": "x", "b": "x", "c": "y"})
        metrics = compute_metrics(confusion_of(pred, gold))
        assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)

    def test_all_singletons_against_one_entity(self):
        pred = {"a": 0, "b": 1, "c": 2}
        gold = gold_from({"a": "x", "b": "x", "c": "x"})
        confusion = confusion_of(pred, gold)
        assert (confusion.tp, confusion.fp, confusion.fn) == (0, 0, 3)
        metrics = compute_metrics(confusion)
        # No predicted pairs at all: precision degenerates to 0 because pairs
        # were missed (fn > 0); recall is 0 outright.
        assert metrics == compute_metrics(PairwiseConfusion(0, 0, 3))
        assert metrics.precision == 0.0 and metrics.recall == 0.0 and metrics.f1 == 0.0

    def test_missing_records_become_singletons(self):
        pred = {"a": 0, "b": 0}
        gold = gold_from({"a": "x", "b": "x", "c": "x"})
        confusion = confusion_of(pred, gold)
        # (a,b) correct; (a,c) and (b,c) missed.
        assert (confusion.tp, confusion.fp, confusion.fn) == (1, 0, 2)

    def test_extra_predicted_records_ignored(self):
        pred = {"a": 0, "b": 0, "zzz": 0}
        gold = gold_from({"a": "x", "b": "x"})
        confusion = confusion_of(pred, gold)
        assert (confusion.tp, confusion.fp, confusion.fn) == (1, 0, 0)

    def test_empty_gold_rejected(self):
        with pytest.raises(InputError, match="empty"):
            confusion_of({"a": 0}, {})

    def test_disjoint_universes_rejected(self):
        with pytest.raises(InputError, match="share no records"):
            confusion_of({"a": 0}, gold_from({"b": "x"}))

    def test_matches_brute_enumerator_on_random_partitions(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(2, 60)
            ids = [f"r{i}" for i in range(n)]
            gold_map = {rid: f"e{rng.randint(0, max(1, n // 4))}" for rid in ids}
            pred = {rid: rng.randint(0, max(1, n // 3)) for rid in ids}
            # Randomly drop some predictions to exercise the singleton rule.
            for rid in ids:
                if rng.random() < 0.1:
                    del pred[rid]
            if not set(pred) & set(gold_map):
                continue
            confusion = confusion_of(pred, gold_from(gold_map))
            tp, fp, fn = brute_pairwise_confusion(pred, gold_map)
            assert (confusion.tp, confusion.fp, confusion.fn) == (tp, fp, fn)
            metrics = compute_metrics(confusion)
            p, r, f1 = brute_f1(tp, fp, fn)
            assert math.isclose(metrics.precision, p, abs_tol=1e-12)
            assert math.isclose(metrics.recall, r, abs_tol=1e-12)
            assert math.isclose(metrics.f1, f1, abs_tol=1e-12)


class TestGoldPairs:
    @given(st.data())
    def test_matches_pairwise_confusion(self, data):
        """Random partitions of the table ids against gold in shuffled file
        order, with gold records the table lacks and table records gold
        lacks."""
        n = data.draw(st.integers(1, 40))
        ids = [f"r{i:02d}" for i in range(n)]
        community = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        in_gold = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        in_gold[data.draw(st.integers(0, n - 1))] = True
        labels = [rid for rid, kept in zip(ids, in_gold) if kept]
        labels += [f"x{i}" for i in range(data.draw(st.integers(0, 5)))]
        order = data.draw(st.permutations(labels))
        gold = {rid: f"e{data.draw(st.integers(0, 5))}" for rid in order}
        confusion = GoldPairs(gold, ids).confusion(community)
        expected = brute_pairwise_confusion(dict(zip(ids, community)), gold)
        assert (confusion.tp, confusion.fp, confusion.fn) == expected

    def test_rejects_gold_as_pairwise_confusion_does(self):
        with pytest.raises(InputError, match="share no records"):
            GoldPairs(gold_from({"b": "x"}), ["a"])
        with pytest.raises(InputError, match="gold standard is empty"):
            GoldPairs({}, ["a"])

    @given(
        st.lists(
            st.tuples(st.integers(-(2**70), 2**70), st.integers(0, 4), st.booleans()), min_size=1, max_size=30
        )
    )
    # Coded as cluster x 4 entities + entity in int64, clusters 1 and
    # 1 + 2**62 would share a cell: one true pair, none predicted.
    @example([(1, 0, True), (1 + 2**62, 0, True), (7, 1, True), (8, 2, True), (9, 3, False)])
    def test_ids_of_any_size_match_the_oracles(self, records):
        """Cluster ids from -2**70 to 2**70, each record in the prediction
        or not."""
        gold = {f"r{i}": f"e{entity}" for i, (_, entity, _) in enumerate(records)}
        pred = {f"r{i}": cid for i, (cid, _, kept) in enumerate(records) if kept or i == 0}
        gold_pairs = GoldPairs(gold, list(pred))
        confusion = gold_pairs.confusion(list(pred.values()))
        assert (confusion.tp, confusion.fp, confusion.fn) == brute_pairwise_confusion(pred, gold)
        bcubed = gold_pairs.bcubed(list(pred.values()))
        assert (bcubed.precision, bcubed.recall, bcubed.f1) == brute_bcubed(pred, gold)


class TestComputeMetrics:
    @pytest.mark.parametrize(
        "tp,fp,fn,precision,recall,f1",
        [
            (0, 0, 0, 1.0, 1.0, 1.0),   # both sides empty: perfect
            (0, 0, 5, 0.0, 0.0, 0.0),   # predicted nothing, missed pairs
            (0, 5, 0, 0.0, 0.0, 0.0),   # invented pairs, none to find
            (3, 1, 0, 0.75, 1.0, 6 / 7),
        ],
    )
    def test_degenerate_rules_pinned(self, tp, fp, fn, precision, recall, f1):
        metrics = compute_metrics(PairwiseConfusion(tp, fp, fn))
        assert math.isclose(metrics.precision, precision, abs_tol=1e-12)
        assert math.isclose(metrics.recall, recall, abs_tol=1e-12)
        assert math.isclose(metrics.f1, f1, abs_tol=1e-12)

    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
    def test_ranges(self, tp, fp, fn):
        metrics = compute_metrics(PairwiseConfusion(tp, fp, fn))
        for value in (metrics.precision, metrics.recall, metrics.f1):
            assert 0.0 <= value <= 1.0


class TestReductionRate:
    def test_basic(self):
        assert reduction_rate(100, 58) == 0.42

    def test_no_reduction(self):
        assert reduction_rate(10, 10) == 0.0


class TestBcubed:
    def test_perfect_is_one(self):
        pred = {"a": 0, "b": 0, "c": 1}
        gold = gold_from({"a": "x", "b": "x", "c": "y"})
        metrics = bcubed_of(pred, gold)
        assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)

    def test_hand_case(self):
        # pred {a,b,c}, gold {a,b} {c}: per-record precision 2/3,2/3,1/3; recall 1.
        pred = {"a": 0, "b": 0, "c": 0}
        gold = gold_from({"a": "x", "b": "x", "c": "y"})
        metrics = bcubed_of(pred, gold)
        assert math.isclose(metrics.precision, (2 / 3 + 2 / 3 + 1 / 3) / 3)
        assert metrics.recall == 1.0

    def test_all_singletons_precision_one(self):
        pred = {"a": 0, "b": 1, "c": 2}
        gold = gold_from({"a": "x", "b": "x", "c": "x"})
        metrics = bcubed_of(pred, gold)
        assert metrics.precision == 1.0
        assert math.isclose(metrics.recall, 1 / 3)

    @given(st.data())
    def test_matches_per_record_oracle_bit_for_bit(self, data):
        """Gold in shuffled file order, with records the prediction lacks and
        records only the prediction has."""
        n = data.draw(st.integers(1, 40))
        entity = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        gold = {f"r{i}": f"e{entity[i]}" for i in order}
        cluster = data.draw(st.lists(st.one_of(st.none(), st.integers(0, 8)), min_size=n, max_size=n))
        pred = {f"r{i}": cid for i, cid in enumerate(cluster) if cid is not None}
        pred.update({f"x{i}": i % 3 for i in range(data.draw(st.integers(0, 3)))})
        if not any(cid is not None for cid in cluster):
            pred["r0"] = 0
        metrics = bcubed_of(pred, gold)
        expected = brute_bcubed(pred, gold)
        assert (metrics.precision, metrics.recall, metrics.f1) == expected

    def test_independent_of_hash_seed(self):
        # String cluster ids and entity ids make set and dict orders follow
        # the hash seed; the float sums must not.
        script = (
            "import random\n"
            "from harmonizer.evaluation import GoldPairs\n"
            "rng = random.Random(0)\n"
            "ids = [f'r{i:03d}' for i in range(500)]\n"
            "gold = {rid: f'e{rng.randrange(60)}' for rid in ids}\n"
            "pred = {rid: f'c{rng.randrange(80)}' for rid in ids if rng.random() < 0.9}\n"
            "print(repr(GoldPairs(gold, list(pred)).bcubed(list(pred.values()))))\n"
        )
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(harmonizer.__file__).parent.parent))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestReport:
    def test_build_and_serialize(self):
        pred = {"a": 0, "b": 0, "c": 1, "d": 1}
        gold = gold_from({"a": "x", "b": "x", "c": "x", "d": "y"})
        report = build_report(GoldPairs(gold, list(pred)), list(pred.values()))
        payload = json.loads(json.dumps(report, indent=2, sort_keys=True))
        assert payload == report
        assert payload["tp"] == 1 and payload["fp"] == 1 and payload["fn"] == 2
        assert math.isclose(payload["f1"], 0.4)
        assert payload["reduction"] == {"n_before": 4, "n_after": 2, "rate": 0.5}
        assert set(payload["bcubed"]) == {"precision", "recall", "f1"}
        assert payload["n_records"] == 4
        assert payload["n_pred_communities"] == 2
        assert payload["n_gold_entities"] == 2
