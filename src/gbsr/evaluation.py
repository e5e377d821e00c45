"""Full-ranking top-N evaluation: Recall and binary NDCG.

Every item the user has not interacted with in train is a candidate; ties in
score break toward the smaller item id.  A user with no test items is
skipped.  DCG credits 1/log2(p + 1) at 1-based rank p for each test item in
the list; IDCG stacks the user's test items at the top, truncated at N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .backbone import NodeRepresentations, score_all_items
from .data import Dataset
from .errors import DataError


@dataclass(frozen=True)
class RunMetrics:
    seed: int
    recall: Dict[int, float]
    ndcg: Dict[int, float]


@dataclass(frozen=True)
class MetricsReport:
    """Mean metrics per cutoff, plus the per-run rows they average."""

    recall: Dict[int, float]
    ndcg: Dict[int, float]
    evaluated_user_count: int
    per_run: Tuple[RunMetrics, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "cutoffs": {
                str(n): {"recall": self.recall[n], "ndcg": self.ndcg[n]}
                for n in sorted(self.recall)
            },
            "evaluated_user_count": self.evaluated_user_count,
        }
        if self.per_run:
            out["per_seed"] = [
                {"seed": run.seed,
                 "recall": {str(n): v for n, v in sorted(run.recall.items())},
                 "ndcg": {str(n): v for n, v in sorted(run.ndcg.items())}}
                for run in self.per_run
            ]
        return out


def rank_user(reps: NodeRepresentations, dataset: Dataset, user: int,
              cutoff: int) -> np.ndarray:
    """Top `cutoff` candidate items for the user, best first."""
    if cutoff < 1:
        raise DataError(f"cutoff must be >= 1, got {cutoff}")
    scores = score_all_items(reps, user)
    candidates = np.setdiff1d(np.arange(dataset.item_count),
                              dataset.train_items_of(user), assume_unique=False)
    if candidates.size == 0:
        return candidates
    order = np.lexsort((candidates, -scores[candidates]))
    return candidates[order[:cutoff]]


def _user_metrics(top: np.ndarray, test_items: np.ndarray,
                  cutoffs: Sequence[int]):
    hit = np.isin(top, test_items)
    recall, ndcg = {}, {}
    for n in cutoffs:
        hits_n = hit[:n]
        recall[n] = float(hits_n.sum()) / test_items.size
        dcg = float(sum(1.0 / math.log2(p + 2) for p in np.nonzero(hits_n)[0]))
        ideal = min(n, test_items.size)
        idcg = float(sum(1.0 / math.log2(p + 2) for p in range(ideal)))
        ndcg[n] = dcg / idcg
    return recall, ndcg


def evaluate(reps: NodeRepresentations, dataset: Dataset,
             cutoffs: Sequence[int] = (10, 20)) -> MetricsReport:
    cutoffs = tuple(cutoffs)
    if not cutoffs or any(n < 1 for n in cutoffs):
        raise DataError(f"cutoffs must be positive, got {cutoffs}")
    n_max = max(cutoffs)
    recall_sum = {n: 0.0 for n in cutoffs}
    ndcg_sum = {n: 0.0 for n in cutoffs}
    users = 0
    for user in range(dataset.user_count):
        test_items = dataset.test_items_of(user)
        if test_items.size == 0:
            continue
        top = rank_user(reps, dataset, user, n_max)
        recall, ndcg = _user_metrics(top, test_items, cutoffs)
        for n in cutoffs:
            recall_sum[n] += recall[n]
            ndcg_sum[n] += ndcg[n]
        users += 1
    if users == 0:
        raise DataError("no user has test interactions; nothing to evaluate")
    return MetricsReport(
        recall={n: recall_sum[n] / users for n in cutoffs},
        ndcg={n: ndcg_sum[n] / users for n in cutoffs},
        evaluated_user_count=users)
