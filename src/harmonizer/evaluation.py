"""Gold-standard evaluation: micro-averaged pairwise precision/recall/F1 over
unordered record pairs, reduction rate, and B-cubed as a secondary view.

``GoldPairs`` is the one form a gold standard is scored in: each command
checks the labels once, where it reads them, against the record ids of the
partitions it will score, and every score reads the same cells. The record
universe is the gold standard's: records the prediction lacks are scored as
predicted singletons, records only the prediction knows are ignored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

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


def _run_pairs(values: np.ndarray) -> int:
    """The sum of C(n, 2) over the runs of equal values in sorted ``values``."""
    sizes = np.diff(np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1], [True]))))
    return int((sizes * (sizes - 1)).sum()) // 2


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


class GoldPairs:
    """The gold standard of one evaluation, checked and reduced once for
    partitions of fixed record ``ids``: ``cells`` holds, in gold-file order,
    each gold record's position in ``ids`` (None when ``ids`` lack it) with
    its entity. A partition is given as ``community``, where ``ids[i]`` is in
    the cluster of integer id ``community[i]``; a gold record ``ids`` lack is
    a predicted singleton."""

    def __init__(self, gold: Sequence[GoldLabel], ids: Sequence[str]):
        check_gold(gold, ids)
        position = {rid: i for i, rid in enumerate(ids)}
        self.cells = [(position.get(label.record_id), label.entity_id) for label in gold]
        entity_sizes = Counter(e for _, e in self.cells)
        self.gold_pairs = sum(_pairs(n) for n in entity_sizes.values())
        self.n_entities = len(entity_sizes)
        # The gold records ``ids`` hold: their positions and entity codes.
        codes = {entity: code for code, entity in enumerate(entity_sizes)}
        present = [(i, codes[e]) for i, e in self.cells if i is not None]
        self._positions, self._entities = np.array(present, dtype=np.int64).reshape(-1, 2).T

    def confusion(self, community: Sequence[int]) -> PairwiseConfusion:
        """Agreeing and disagreeing unordered pairs, counted without
        enumerating them: tp sums C(n, 2) over the sizes of (predicted cluster
        x gold entity) intersections; fp and fn follow from the predicted and
        gold pair totals. An absent record adds no predicted or agreeing
        pair. One sort of the gold records' (cluster, entity) codes makes
        every cell a run, and every cluster a run of cells; a count array
        indexed by the codes would grow with clusters x entities."""
        clusters = np.asarray(community, dtype=np.int64)[self._positions]
        cells = np.sort(clusters * self.n_entities + self._entities)
        tp = _run_pairs(cells)
        pred_pairs = _run_pairs(cells // self.n_entities)
        return PairwiseConfusion(tp=tp, fp=pred_pairs - tp, fn=self.gold_pairs - tp)

    def bcubed(self, community: Sequence[Hashable]) -> Metrics:
        """Secondary, per-record view of the same comparison: a record's
        cell's share of its cluster (precision) and of its entity (recall),
        summed in gold-file order so that the result does not depend on the
        hash seed. An absent record is a cluster of its own."""
        cells = [(community[i] if i is not None else (None, k), e) for k, (i, e) in enumerate(self.cells)]
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


def build_report(gold: GoldPairs, community: Sequence[int]) -> dict:
    """The eval.json report of the partition ``community`` over ``gold``'s
    ids. The reduction counts are the partition's own record and community
    counts."""
    confusion = gold.confusion(community)
    n_before, n_after = len(community), len(set(community))
    return {
        **asdict(compute_metrics(confusion)),
        **asdict(confusion),
        "n_records": len(gold.cells),
        "n_pred_communities": n_after,
        "n_gold_entities": gold.n_entities,
        "reduction": {"n_before": n_before, "n_after": n_after, "rate": reduction_rate(n_before, n_after)},
        "bcubed": asdict(gold.bcubed(community)),
    }
