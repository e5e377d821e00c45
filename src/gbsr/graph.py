"""Joint social + interaction adjacency with symmetric degree normalization.

Users and items share one node space: user a is node a, item i is node
user_count + i.  The adjacency holds both directions of every social pair and
every train interaction; social entries carry a per-pair weight in [0, 1],
interaction entries carry weight 1.  Entries are normalized as
w / sqrt(d_row * d_col) where degrees are weighted row sums floored at
DEGREE_FLOOR, so fully down-weighted rows stay finite.  `renormalize` is the
one place that turns a social weight vector into that operator: training's
`backbone.propagate` runs it inside its fused tape op and `build_adjacency`
runs it for evaluation.

The heavy passes over every social pair and every adjacency row, and the
score blocks of `evaluation.evaluate`, run on a thread pool of `WORKERS`
threads, made on first use: numpy's and scipy's kernels release the
interpreter lock, and BLAS pinned to one thread leaves the other cores
idle.  This module alone cuts the work and makes the buffers, so the
worker count never changes a result:
- `span_map` cuts blocks into at most WORKERS contiguous spans, each with
  its own buffers, for work whose blocks write only their own rows of a
  result;
- `ordered_map` runs blocks whose results must be added in the serial
  order, each in one of a ring of slots, and yields the results in order;
- `row_split` cuts a CSR product into spans of rows.
With one worker, or one span, every span runs inline on the calling
thread, in order.  The calling thread makes the large buffers that tasks
fill, so the n x n and block buffers live in its allocator arena, not in
one per worker; only scipy's sparse products allocate their results in the
worker that runs them.

The pool's size is `worker_count`: the CPUs this process may use divided
by the BLAS thread count, so the pool takes the cores that BLAS pinned to
one thread leaves idle, and gets one worker when BLAS is not pinned.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy.sparse as sp

from .data import Dataset
from .errors import DataError

DEGREE_FLOOR = 1e-12
# social pairs per block of `denoiser.confidences`: a block's few pairs x dim
# buffers stay in cache
PAIR_BLOCK = 2048
# social pairs per block of `backbone.propagate`'s backward, which takes one
# inner product per pair (a sampled dense-dense product, SDDMM) of rows
# 2 L dim wide; 2048-pair blocks of those rows spill the cache
SDDMM_BLOCK = 128

# the variables the BLAS libraries numpy may link read their thread count from
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_count(environ, cpus: int) -> int:
    """Pool threads for a process that may use `cpus` CPUs: the CPUs divided
    by the BLAS thread count, at least 1.  The BLAS thread count is the
    largest positive integer among BLAS_THREAD_VARIABLES in `environ`; when
    none holds one, BLAS takes every CPU and the pool gets 1 worker, because
    threads of both kinds on the same cores made steps slower."""
    counts = []
    for name in BLAS_THREAD_VARIABLES:
        try:
            counts.append(int(environ.get(name, "")))
        except ValueError:
            pass
    blas = max((c for c in counts if c > 0), default=cpus)
    return max(1, cpus // blas)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


WORKERS = worker_count(os.environ, _cpu_count())
_pool = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="gbsr")
        return _pool


def ordered_map(fn, items, make_slot):
    """Yield fn(item, slot) for each item of the sequence `items`, in order.
    The calling thread makes min(2 x WORKERS, len(items)) slots with
    make_slot(), and item j gets slot j mod slots.  With WORKERS > 1 and
    several items the calls run on the pool, and item j + slots is
    submitted only when the caller asks for the result after item j's, so
    a slot has at most one unfinished call and what item j returns from its
    slot stays intact until then; otherwise the calls run inline, one after
    another."""
    slots = [make_slot() for _ in range(min(2 * WORKERS, len(items)))]
    if WORKERS == 1 or len(items) < 2:
        for j, item in enumerate(items):
            yield fn(item, slots[j % len(slots)])
        return
    pool, pending = _executor(), deque()
    try:
        for j, item in enumerate(items):
            if len(pending) == len(slots):
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item, slots[j % len(slots)]))
        while pending:
            yield pending.popleft().result()
    finally:
        wait(pending)


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items], the calls spread over the pool; the
    calling thread runs the first one itself instead of waiting idle."""
    items = list(items)
    if WORKERS == 1 or len(items) < 2:
        return [fn(item) for item in items]
    rest = [_executor().submit(fn, item) for item in items[1:]]
    try:
        first = fn(items[0])
    finally:
        wait(rest)
    return [first] + [future.result() for future in rest]


def span_map(fn, count: int, block: int, make_buffers) -> None:
    """Call fn(lo, hi, buffers) for each block [lo, hi) of `block` indices
    of range(count), the last one possibly shorter.  The blocks are cut into at most
    WORKERS contiguous spans of about equal block counts; the calling
    thread calls make_buffers() once per span, and each span runs its
    blocks in ascending order with its own buffers, the spans on the pool
    (`parallel_map`).  count = 0 calls fn never."""
    blocks = -(-count // block)
    parts = min(WORKERS, blocks)
    edges = [blocks * k // parts * block for k in range(parts)] + [count]

    def run(span):
        first, last, buffers = span
        for lo in range(first, last, block):
            fn(lo, min(lo + block, last), buffers)

    parallel_map(run, [(lo, hi, make_buffers()) for lo, hi in zip(edges, edges[1:])])


class EdgeLayout:
    """Fixed COO ordering shared by every adjacency build for a dataset.

    Entry order: social pairs (a -> b), social pairs (b -> a), interactions
    (user -> item), interactions (item -> user).  The CSR structure of the
    adjacency and the pair plan (`pair_blocks`) are built on first use, so
    evaluation never pays for the plan, which only a backward pass needs.
    """

    def __init__(self, dataset: Dataset):
        M = dataset.user_count
        soc = dataset.social_pairs
        inter = dataset.train_pairs
        self.social_a = soc[:, 0].copy()
        self.social_b = soc[:, 1].copy()
        u, it = inter[:, 0], M + inter[:, 1]
        self.rows = np.concatenate([self.social_a, self.social_b, u, it])
        self.cols = np.concatenate([self.social_b, self.social_a, it, u])
        self.social_count = soc.shape[0]
        self.interaction_count = inter.shape[0]
        self.node_count = dataset.node_count
        self.user_count = M
        self.item_count = dataset.item_count
        self._csr_structure = None
        self._pair_blocks = None

    def _csr(self):
        """(layout-to-CSR entry order, indices, indptr).  Entries are ordered
        by (row, column), as `csr_matrix((values, (rows, cols)))` orders them,
        so products match that construction bit for bit; the index arrays are
        the ones scipy picked for the template, so no build converts them."""
        if self._csr_structure is None:
            # one int64 key per entry; a Dataset's node count keeps it exact
            order = np.argsort(self.rows * self.node_count + self.cols, kind="stable")
            indptr = np.zeros(self.node_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.rows, minlength=self.node_count), out=indptr[1:])
            template = sp.csr_matrix((np.zeros(order.size), self.cols[order], indptr),
                                     shape=(self.node_count, self.node_count))
            self._csr_structure = (order, template.indices, template.indptr)
        return self._csr_structure

    def pair_blocks(self):
        """The social pairs in blocks of PAIR_BLOCK, as a list of
        (lo, hi, users_a, to_a, users_b, to_b): users_a are the distinct first
        users of pairs lo..hi-1 and to_a the one-hot (len(users_a) x block)
        CSR matrix with `to_a @ X` summing the block's rows of X per user;
        likewise for the second users.  Built once per layout."""
        if self._pair_blocks is None:
            n = self.social_count
            spans = [(lo, min(lo + PAIR_BLOCK, n)) for lo in range(0, n, PAIR_BLOCK)]
            self._pair_blocks = [(lo, hi) + _one_hot_block(self.social_a[lo:hi])
                                 + _one_hot_block(self.social_b[lo:hi]) for lo, hi in spans]
        return self._pair_blocks


def _one_hot_block(users: np.ndarray):
    """(distinct users, one-hot (distinct x len(users)) CSR matrix)."""
    distinct, inverse = np.unique(users, return_inverse=True)
    one_hot = sp.csr_matrix((np.ones(users.size), (inverse, np.arange(users.size))),
                            shape=(distinct.size, users.size))
    return distinct, one_hot


def renormalize(social_weights: np.ndarray, layout: EdgeLayout):
    """(degrees, floored degrees^-1/2, normalized CSR operator) of the graph
    whose social pairs weigh `social_weights` and whose interactions weigh 1."""
    if social_weights.shape != (layout.social_count,):
        raise DataError("social weight vector does not match the social pair count")
    weights = np.concatenate([social_weights, social_weights,
                              np.ones(2 * layout.interaction_count)])
    degrees = np.bincount(layout.rows, weights=weights, minlength=layout.node_count)
    dinv = np.power(np.maximum(degrees, DEGREE_FLOOR), -0.5)
    normalized = (weights * dinv[layout.rows]) * dinv[layout.cols]
    order, indices, indptr = layout._csr()
    operator = sp.csr_matrix((normalized[order], indices, indptr),
                             shape=(layout.node_count, layout.node_count))
    return degrees, dinv, operator


def row_split(operator: sp.csr_matrix):
    """The product X -> operator @ X of a CSR operator, run as one product
    per span of rows, at most WORKERS spans of about equal nonzero counts;
    with one span it is the operator's own product.
    A CSR product sums each output row over that row's entries in order, so
    every row is the same sum as in the whole product.  The spans' CSR views
    share the operator's arrays and are built here, once per operator."""
    indptr, rows = operator.indptr, operator.shape[0]
    targets = np.arange(1, WORKERS) * operator.nnz // WORKERS
    bounds = np.unique(np.concatenate([[0], np.searchsorted(indptr, targets), [rows]]))
    if bounds.size == 2:
        return operator.__matmul__
    views = [sp.csr_matrix((operator.data[indptr[r0]:indptr[r1]],
                            operator.indices[indptr[r0]:indptr[r1]],
                            indptr[r0:r1 + 1] - indptr[r0]),
                           shape=(r1 - r0, operator.shape[1]))
             for r0, r1 in zip(bounds[:-1], bounds[1:])]

    def product(X: np.ndarray) -> np.ndarray:
        out = np.empty((rows, X.shape[1]))

        def span_product(span):
            r0, r1, view = span
            out[r0:r1] = view @ X

        parallel_map(span_product, zip(bounds[:-1], bounds[1:], views))
        return out

    return product


class WeightedAdjacency:
    """The joint adjacency's normalized operator."""

    def __init__(self, layout: EdgeLayout, social_weights: np.ndarray):
        self.layout = layout
        self.node_count = layout.node_count
        _, _, self.operator = renormalize(social_weights, layout)


def layout_for(dataset: Dataset) -> EdgeLayout:
    """The dataset's edge layout, built once and cached on the instance."""
    layout = getattr(dataset, "_edge_layout", None)
    if layout is None:
        layout = EdgeLayout(dataset)
        dataset._edge_layout = layout
    return layout


def build_adjacency(dataset: Dataset, social_weights) -> WeightedAdjacency:
    """Assemble the joint adjacency with re-weighted social pairs.

    social_weights may be an EdgeConfidenceMap (its relaxed weights are used)
    or a plain array aligned with dataset.social_pairs (all 1 for the
    original graph).
    """
    layout = layout_for(dataset)
    w = _extract_social_weights(dataset, social_weights)
    # written so that NaN fails too
    if w.size and not (np.min(w) >= 0.0 and np.max(w) <= 1.0):
        raise DataError("social weights must lie in [0, 1]")
    return WeightedAdjacency(layout, w)


def _extract_social_weights(dataset: Dataset, social_weights) -> np.ndarray:
    pairs = getattr(social_weights, "pairs", None)
    if pairs is not None:
        if not np.array_equal(np.asarray(pairs), dataset.social_pairs):
            raise DataError("edge confidence map does not cover exactly the dataset's social pairs")
        social_weights = social_weights.relaxed
    return np.asarray(social_weights, dtype=np.float64)
