"""Gold-standard evaluation: micro-averaged pairwise precision/recall/F1 over
unordered record pairs, reduction rate, and B-cubed as a secondary view.

The record universe is the gold standard's: records the prediction lacks are
scored as predicted singletons, records only the prediction knows are ignored.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InputError
from .ingest import GoldLabel


@dataclass(frozen=True)
class PairwiseConfusion:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float


def _pairs(count: int) -> int:
    return count * (count - 1) // 2


def check_gold(gold: Sequence[GoldLabel], record_ids: Iterable[str]) -> None:
    """InputError unless the gold standard is non-empty, repeats no id and
    shares a record with ``record_ids``."""
    if not gold:
        raise InputError("gold standard is empty")
    gold_ids = {label.record_id for label in gold}
    if len(gold_ids) != len(gold):
        raise InputError("gold standard has duplicate record ids")
    if gold_ids.isdisjoint(record_ids):
        raise InputError("prediction and gold standard share no records")


def _cells(pred: Mapping[str, Hashable], gold: Sequence[GoldLabel]) -> list[tuple[Hashable, str]]:
    """Each gold record's (predicted cluster, gold entity) cell, in gold-file
    order; a record the prediction lacks is a cluster of its own."""
    check_gold(gold, pred)
    return [(pred.get(label.record_id, ("__missing__", label.record_id)), label.entity_id) for label in gold]


class GoldPairs:
    """The gold side of a pairwise confusion for partitions of fixed record
    ``ids``, computed once: each gold record's position in ``ids`` with its
    entity, and the gold pair total. A gold record ``ids`` lack is a
    predicted singleton: it adds no predicted or agreeing pair."""

    def __init__(self, gold: Sequence[GoldLabel], ids: Sequence[str]):
        check_gold(gold, ids)
        position = {rid: i for i, rid in enumerate(ids)}
        self.gold_pairs = sum(_pairs(n) for n in Counter(label.entity_id for label in gold).values())
        self.cells = [(position[label.record_id], label.entity_id) for label in gold if label.record_id in position]

    def confusion(self, community: Sequence[Hashable]) -> PairwiseConfusion:
        """Agreeing and disagreeing unordered pairs when ``ids[i]`` is in
        cluster ``community[i]``, counted without enumerating them: tp sums
        C(n, 2) over the sizes of (predicted cluster x gold entity)
        intersections; fp and fn follow from the predicted and gold pair
        totals."""
        cells = Counter((community[i], e) for i, e in self.cells)
        tp = sum(_pairs(n) for n in cells.values())
        pred_pairs = sum(_pairs(n) for n in Counter(community[i] for i, _ in self.cells).values())
        return PairwiseConfusion(tp=tp, fp=pred_pairs - tp, fn=self.gold_pairs - tp)


def pairwise_confusion(pred: Mapping[str, Hashable], gold: Sequence[GoldLabel]) -> PairwiseConfusion:
    """The pairwise confusion of ``pred`` (record id -> cluster) against
    ``gold``, through ``GoldPairs``."""
    return GoldPairs(gold, list(pred)).confusion(list(pred.values()))


def compute_metrics(confusion: PairwiseConfusion) -> Metrics:
    """P/R/F1 with the degenerate cases pinned: an empty side is perfect only
    when the other side is empty too."""
    tp, fp, fn = confusion.tp, confusion.fp, confusion.fn
    if tp + fp == 0:
        precision = 1.0 if fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(precision=precision, recall=recall, f1=f1)


def reduction_rate(n_before: int, n_after: int) -> float:
    """(names in - communities out) / names in."""
    if n_before <= 0:
        raise InputError(f"reduction rate undefined for n_before={n_before}")
    if n_after < 0 or n_after > n_before:
        raise InputError(f"n_after={n_after} must be in [0, n_before={n_before}]")
    return (n_before - n_after) / n_before


def bcubed(pred: Mapping[str, Hashable], gold: Sequence[GoldLabel]) -> Metrics:
    """Secondary, per-record view of the same comparison: a record's cell's
    share of its cluster (precision) and of its entity (recall), summed in
    gold-file order so that the result does not depend on the hash seed."""
    cells = _cells(pred, gold)
    cell_sizes = Counter(cells)
    cluster_sizes = Counter(cid for cid, _ in cells)
    entity_sizes = Counter(eid for _, eid in cells)
    precision_sum = 0.0
    recall_sum = 0.0
    for cell in cells:
        precision_sum += cell_sizes[cell] / cluster_sizes[cell[0]]
        recall_sum += cell_sizes[cell] / entity_sizes[cell[1]]
    precision = precision_sum / len(cells)
    recall = recall_sum / len(cells)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return Metrics(precision=precision, recall=recall, f1=f1)


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    n_records: int
    n_pred_communities: int
    n_gold_entities: int
    n_before: int
    n_after: int
    reduction: float
    bcubed_precision: float
    bcubed_recall: float
    bcubed_f1: float

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "n_records": self.n_records,
            "n_pred_communities": self.n_pred_communities,
            "n_gold_entities": self.n_gold_entities,
            "reduction": {"n_before": self.n_before, "n_after": self.n_after, "rate": self.reduction},
            "bcubed": {
                "precision": self.bcubed_precision,
                "recall": self.bcubed_recall,
                "f1": self.bcubed_f1,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def build_report(pred: Mapping[str, Hashable], gold: Sequence[GoldLabel]) -> EvalReport:
    """Assemble the full evaluation report. The reduction counts are the
    prediction's own record and community counts."""
    confusion = pairwise_confusion(pred, gold)
    metrics = compute_metrics(confusion)
    bc = bcubed(pred, gold)
    n_before, n_after = len(pred), len(set(pred.values()))
    return EvalReport(
        precision=metrics.precision,
        recall=metrics.recall,
        f1=metrics.f1,
        tp=confusion.tp,
        fp=confusion.fp,
        fn=confusion.fn,
        n_records=len(gold),
        n_pred_communities=n_after,
        n_gold_entities=len({label.entity_id for label in gold}),
        n_before=n_before,
        n_after=n_after,
        reduction=reduction_rate(n_before, n_after),
        bcubed_precision=bc.precision,
        bcubed_recall=bc.recall,
        bcubed_f1=bc.f1,
    )
