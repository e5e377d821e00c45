"""Full-ranking top-N evaluation: Recall and binary NDCG.

Every item the user has not interacted with in train is a candidate; ties in
score break toward the smaller item id.  A user with no test items is
skipped.  DCG credits 1/log2(p + 1) at 1-based rank p for each test item in
the list; IDCG stacks the user's test items at the top, truncated at N.

Users are ranked in blocks holding at most SCORE_BLOCK_BYTES of scores
(LightGCN's full-ranking protocol): one `U_blk @ I.T` product, train items
masked to -inf, then per chunk of RANK_CHUNK_ROWS rows one partition of a
copy for each user's k-th best score and one `flatnonzero` over every item
scoring at least that, and one stable `lexsort` of the block's candidates by
(row, -score), which keeps `flatnonzero`'s ascending item order among equal
scores.  `rank_user` is the one-user block.  Recall and NDCG come from a
(users x N) hit matrix.

The blocks run through `graph.span_map`, and each writes only its own
users' rows of the hit matrix.  The block size does not depend on the
worker count, so neither does any product or result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from . import graph
from .backbone import NodeRepresentations
from .config import check_cutoffs
from .data import Dataset
from .errors import DataError, check_number

# bytes of float64 scores in one block of users; bounds the (users, items)
# buffers of a ranking pass whatever the user count
SCORE_BLOCK_BYTES = 4 << 20
# rows of a block partitioned and thresholded at a time; a chunk's copy for
# the partition and its boolean mask stay small next to the block
RANK_CHUNK_ROWS = 32


@dataclass(frozen=True)
class MetricsReport:
    """Mean Recall and NDCG per cutoff."""

    recall: Dict[int, float]
    ndcg: Dict[int, float]
    evaluated_user_count: int

    def to_json_dict(self) -> dict:
        return {
            "cutoffs": {
                str(n): {"recall": self.recall[n], "ndcg": self.ndcg[n]}
                for n in sorted(self.recall)
            },
            "evaluated_user_count": self.evaluated_user_count,
        }


def _check_readout(reps: NodeRepresentations, dataset: Dataset) -> None:
    if reps.user_count != dataset.user_count or reps.readout.shape[0] != dataset.node_count:
        raise DataError(
            f"readout has {reps.user_count} users in {reps.readout.shape[0]} rows but the "
            f"dataset has {dataset.user_count} users + {dataset.item_count} items")


def _buffers(rows: int, items: int) -> Tuple[np.ndarray, np.ndarray]:
    """(scores, chunk) buffers for blocks of at most `rows` users."""
    return np.empty((rows, items)), np.empty((min(rows, RANK_CHUNK_ROWS), items))


def _ranked_block(readout: np.ndarray, dataset: Dataset, lo: int, hi: int,
                  cutoff: int, scores: np.ndarray,
                  chunk: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-`cutoff` lists of users [lo, hi) as flat (row, position, item)
    arrays, rows ascending and each list best first.  The block's scores
    fill the first hi - lo rows of the `scores` buffer and `chunk` holds a
    chunk's partition (`_buffers`); the arrays returned are new, so the
    buffers are free for another block once this one returns."""
    n = dataset.item_count
    k = min(cutoff, n)
    if k == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty
    scores = scores[:hi - lo]
    np.matmul(readout[lo:hi], readout[dataset.user_count:].T, out=scores)
    s, e = np.searchsorted(dataset.train_pairs[:, 0], (lo, hi))
    train_rows = dataset.train_pairs[s:e, 0] - lo
    scores[train_rows, dataset.train_pairs[s:e, 1]] = -np.inf
    # every item scoring at least the k-th best, exact ties at the boundary
    # included, as flat indices in ascending (row, item) order; the k-th
    # best is an order statistic, so partitioning a chunk's copy finds the
    # same value as partitioning the block.  The stable lexsort keeps that
    # order among equal (row, score), so ties break toward the smaller item id
    flat = []
    for r0 in range(0, hi - lo, RANK_CHUNK_ROWS):
        chunk_scores = scores[r0:r0 + RANK_CHUNK_ROWS]
        part = chunk[:chunk_scores.shape[0]]
        np.copyto(part, chunk_scores)
        part.partition(n - k, axis=1)
        flat.append(np.flatnonzero(chunk_scores >= part[:, n - k, None]) + r0 * n)
    flat = np.concatenate(flat)
    rows, items = np.divmod(flat, n)
    order = np.lexsort((-scores.ravel()[flat], rows))
    rows, items = rows[order], items[order]
    position = np.arange(rows.size) - np.searchsorted(rows, rows)
    # masked items sort last; cutting at the candidate count drops them
    length = np.minimum(k, n - np.bincount(train_rows, minlength=hi - lo))
    keep = position < length[rows]
    return rows[keep], position[keep], items[keep]


def rank_user(reps: NodeRepresentations, dataset: Dataset, user: int,
              cutoff: int) -> np.ndarray:
    """Top `cutoff` candidate items for the user, best first."""
    (cutoff,) = check_cutoffs((cutoff,))
    _check_readout(reps, dataset)
    user = check_number("user", user, f"[0, {dataset.user_count})", integer=True,
                        error=DataError)
    return _ranked_block(reps.readout, dataset, user, user + 1, cutoff,
                         *_buffers(1, dataset.item_count))[2]


def require_test_pairs(dataset: Dataset) -> None:
    """Raise DataError when `evaluate` would find no user to score."""
    if dataset.test_pairs.shape[0] == 0:
        raise DataError("no user has test interactions; nothing to evaluate")


def evaluate(reps: NodeRepresentations, dataset: Dataset,
             cutoffs: Sequence[int] = (10, 20)) -> MetricsReport:
    cutoffs = check_cutoffs(cutoffs)
    require_test_pairs(dataset)
    _check_readout(reps, dataset)
    n_max = max(cutoffs)
    M, n_items = dataset.user_count, dataset.item_count
    test_keys = dataset.test_pairs[:, 0] * n_items + dataset.test_pairs[:, 1]
    hit = np.zeros((M, n_max), dtype=bool)
    step = max(1, SCORE_BLOCK_BYTES // (8 * n_items))

    def hits(lo, hi, buffers):
        rows, position, items = _ranked_block(reps.readout, dataset, lo, hi, n_max, *buffers)
        keys = (lo + rows) * n_items + items
        found = np.minimum(np.searchsorted(test_keys, keys), test_keys.size - 1)
        hit[lo + rows, position] = test_keys[found] == keys

    # the work counted is the score products
    graph.span_map(hits, M, step, lambda: _buffers(min(step, M), n_items),
                   M * n_items * reps.readout.shape[1])
    test_count = np.bincount(dataset.test_pairs[:, 0], minlength=M)
    hit, test_count = hit[test_count > 0], test_count[test_count > 0]
    users = test_count.size
    # np.cumsum adds strictly left to right, over list positions and then
    # over users in id order, so every metric is the plain running sum
    discount = np.array([1.0 / math.log2(p + 2) for p in range(n_max)])
    hits_at = np.cumsum(hit, axis=1)
    dcg_at = np.cumsum(hit * discount, axis=1)
    idcg_at = np.cumsum(discount)
    recall, ndcg = {}, {}
    for n in cutoffs:
        per_user_recall = hits_at[:, n - 1] / test_count
        per_user_ndcg = dcg_at[:, n - 1] / idcg_at[np.minimum(n, test_count) - 1]
        recall[n] = float(np.cumsum(per_user_recall)[-1]) / users
        ndcg[n] = float(np.cumsum(per_user_ndcg)[-1]) / users
    return MetricsReport(recall=recall, ndcg=ndcg, evaluated_user_count=users)
