"""Gold-standard evaluation: micro-averaged pairwise precision/recall/F1 over
unordered record pairs, reduction rate, and B-cubed as a secondary view.

``GoldPairs`` is the one form a gold standard is scored in: each command
checks the labels once, where it reads them, against the record ids of the
partitions it will score, and every score reads the same codes. The record
universe is the gold standard's: records the prediction lacks are scored as
predicted singletons, records only the prediction knows are ignored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError


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


def _run_pairs(values: np.ndarray) -> int:
    """The sum of C(n, 2) over the runs of equal values in sorted ``values``."""
    sizes = np.diff(np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1], [True]))))
    return int((sizes * (sizes - 1)).sum()) // 2


def _dense(values: np.ndarray) -> np.ndarray:
    """``values`` renumbered 0, 1, ... in sorted order, by one stable argsort."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    dense = np.empty(len(values), dtype=np.int64)
    dense[order] = np.cumsum(np.concatenate(([False], ranked[1:] != ranked[:-1])))
    return dense


class GoldPairs:
    """The gold standard of one evaluation, checked and reduced once for
    partitions of fixed record ``ids``: one entity code per gold record, in
    gold-file order, and the position in ``ids`` of each gold record they
    hold. InputError when the gold standard is empty or shares no record
    with ``ids``. A partition is given as ``community``, where ``ids[i]`` is
    in the cluster of id ``community[i]``; a gold record ``ids`` lack is a
    predicted singleton."""

    def __init__(self, gold: Mapping[str, str], ids: Sequence[str]):
        if not gold:
            raise InputError("gold standard is empty")
        position = {rid: i for i, rid in enumerate(ids)}
        positions = np.array([position.get(rid, -1) for rid in gold], dtype=np.int64)
        self._present = np.flatnonzero(positions >= 0)
        if not len(self._present):
            raise InputError("prediction and gold standard share no records")
        self._positions = positions[self._present]
        codes: dict[str, int] = {}
        self._entities = np.array([codes.setdefault(e, len(codes)) for e in gold.values()], dtype=np.int64)
        self.n_records, self.n_entities = len(gold), len(codes)
        self._entity_sizes = np.bincount(self._entities)[self._entities]
        self.gold_pairs = _run_pairs(np.sort(self._entities))

    def _clusters(self, community: Sequence) -> np.ndarray:
        """Each gold record's predicted cluster, renumbered densely, so that
        any ids, however large, code a cell in int64; a gold record ``ids``
        lack gets a cluster of its own, numbered above the others."""
        values = np.asarray(community)
        if values.dtype.kind == "f":  # ints past int64 beside negative ones promote to float64, merging ids
            values = np.asarray(community, dtype=object)
        clusters = np.arange(self.n_records, 2 * self.n_records)
        clusters[self._present] = _dense(values[self._positions])
        return clusters

    def confusion(self, community: Sequence) -> PairwiseConfusion:
        """Agreeing and disagreeing unordered pairs, counted without
        enumerating them: tp sums C(n, 2) over the sizes of (predicted cluster
        x gold entity) intersections; fp and fn follow from the predicted and
        gold pair totals. One sort of the gold records' (cluster, entity)
        codes makes every cell a run, and every cluster a run of cells; a
        count array indexed by the codes would grow with clusters x
        entities."""
        cells = np.sort(self._clusters(community) * self.n_entities + self._entities)
        tp = _run_pairs(cells)
        pred_pairs = _run_pairs(cells // self.n_entities)
        return PairwiseConfusion(tp=tp, fp=pred_pairs - tp, fn=self.gold_pairs - tp)

    def bcubed(self, community: Sequence) -> Metrics:
        """Secondary, per-record view of the same comparison: a record's
        cell's share of its cluster (precision) and of its entity (recall),
        added one record after another in gold-file order: ``np.cumsum``
        does, where ``np.sum`` would add pairwise and ``sum`` compensates."""
        clusters = self._clusters(community)
        cells = _dense(clusters * self.n_entities + self._entities)
        cell_sizes = np.bincount(cells)[cells]
        precision = float(np.cumsum(cell_sizes / np.bincount(clusters)[clusters])[-1]) / self.n_records
        recall = float(np.cumsum(cell_sizes / self._entity_sizes)[-1]) / self.n_records
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
    """(names in - communities out) / names in, for at least one name in."""
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
        "n_records": gold.n_records,
        "n_pred_communities": n_after,
        "n_gold_entities": gold.n_entities,
        "reduction": {"n_before": n_before, "n_after": n_after, "rate": reduction_rate(n_before, n_after)},
        "bcubed": asdict(gold.bcubed(community)),
    }
