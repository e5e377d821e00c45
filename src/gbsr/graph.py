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

The heavy passes over every social pair and every adjacency row, the HSIC
kernels and the score blocks of `evaluation.evaluate` run on a thread
pool of `WORKERS` threads, made on first use: numpy's and scipy's kernels
release the interpreter lock, and BLAS pinned to one thread leaves the
other cores idle.  This module alone cuts the work and makes the buffers,
so the worker count never changes a result.  `ordered_map` is the one
function that hands work to the pool, under the rules its docstring
states, and two helpers are built on it: `span_map` cuts blocks into
contiguous spans, each with its own buffers, for work whose blocks write
only their own rows of a result, and `row_split` cuts a CSR product into
spans of rows.  The calling thread makes the large buffers that tasks
fill, so the n x n and block buffers live in its allocator arena, not in
one per worker; only scipy's sparse products allocate their results in the
worker that runs them.

Every span of `span_map` and `row_split` gets at least MIN_SPAN_WORK
multiply-adds of the call's work (`span_count`), so a call too small to pay
for the hand-off runs in fewer spans, or inline.  The work is read from the
call's sizes, never from timings, so the spans too are fixed by the inputs
and WORKERS.

Importing this module pins numpy's and scipy's bundled OpenBLAS to one
thread (`pin_blas`), so a BLAS product is the same sum on every machine and
in every process.  The pool's size is `worker_count` of the CPUs this
process may use and the thread count BLAS reports back: the cores that one
BLAS thread leaves idle.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy
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

# multiply-adds a span must get before a call is cut into another one; a
# criterion-5-size graph (400 nodes, ~1.6k social pairs) stays below two
# spans' worth in every primitive, and the benchmark sizes keep the spans
# they had without a floor (tests/test_workers.py::TestWorkFloor)
MIN_SPAN_WORK = 1 << 20
# (setter, getter) of the thread count of each OpenBLAS numpy or scipy wheels
# bundle: numpy's 64-bit-integer build, then scipy's
BLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def pin_blas():
    """Set every OpenBLAS bundled with numpy or scipy (in the wheels'
    `numpy.libs` or `numpy/.dylibs`) to one thread; return the largest
    thread count they report back, or None when no such library exports a
    known setter (another BLAS build)."""
    reported = []
    for module in (np, scipy):
        home = os.path.dirname(module.__file__)
        for path in sorted(glob.glob(home + ".libs/*openblas*")
                           + glob.glob(home + "/.dylibs/*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for set_name, get_name in BLAS_THREAD_CALLS:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    setter(1)
                    reported.append(getter())
                    break
    return max(reported, default=None)


def worker_count(cpus: int, blas_threads) -> int:
    """Pool threads for a process that may use `cpus` CPUs while BLAS runs
    `blas_threads` threads: the CPUs divided by the BLAS threads, at least
    1; 1 when the BLAS thread count is unknown (None)."""
    if blas_threads is None:
        return 1
    return max(1, cpus // blas_threads)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


BLAS_THREADS = pin_blas()
WORKERS = worker_count(_cpu_count(), BLAS_THREADS)
_pool = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="gbsr")
        return _pool


def span_count(work: int, most: int) -> int:
    """Spans for a call of `work` multiply-adds that can be cut at most
    `most` ways: at most WORKERS, and no more than give each span
    MIN_SPAN_WORK, but 1 for a smaller call (and 0 when most is 0)."""
    return min(WORKERS, most, max(1, work // MIN_SPAN_WORK))


def ordered_map(fn, items, make_slot, work: int):
    """Yield fn(item, slot) for each item of the sequence `items`, in order;
    `work` is the multiply-adds of all the calls.  This is the one function
    that hands work to the pool, and its rules are these:
    - with spans = span_count(work, len(items)), the calling thread makes
      min(2 x spans, len(items)) slots with make_slot(), and item j gets
      slot j mod slots;
    - the results come back in item order, and item j + slots is submitted
      only when the caller asks for the result after item j's, so a slot
      has at most one unfinished call and what item j returns from its slot
      stays intact until then;
    - a call below two spans' work runs inline, one item after another."""
    spans = span_count(work, len(items))
    slots = [make_slot() for _ in range(min(2 * spans, len(items)))]
    if spans < 2:
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


def span_map(fn, count: int, block: int, make_buffers, work: int) -> None:
    """Call fn(lo, hi, buffers) for each block [lo, hi) of `block` indices
    of range(count), the last one possibly shorter; `work` is the
    multiply-adds of all the blocks.  The blocks are cut into
    span_count(work, blocks) contiguous spans of about equal block counts,
    run as the items of `ordered_map`: there are as many slots as spans,
    each slot is one span's buffers from make_buffers(), and each span runs
    its blocks in ascending order.  count = 0 calls fn never."""
    blocks = -(-count // block)
    parts = span_count(work, blocks)
    edges = [blocks * k // parts * block for k in range(parts)] + [count]

    def run(span, buffers):
        first, last = span
        for lo in range(first, last, block):
            fn(lo, min(lo + block, last), buffers)

    for _ in ordered_map(run, list(zip(edges, edges[1:])), make_buffers, work):
        pass


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


def row_bounds(indptr: np.ndarray, parts: int) -> np.ndarray:
    """First row of each of at most `parts` spans of rows of a CSR matrix
    with row pointer `indptr`, the spans of about equal nonzero counts,
    then the row count."""
    targets = np.arange(1, parts) * indptr[-1] // parts
    return np.unique(np.concatenate([[0], np.searchsorted(indptr, targets), [indptr.size - 1]]))


def row_split(operator: sp.csr_matrix, columns: int):
    """The product X -> operator @ X of a CSR operator for X of `columns`
    columns, run as one product per span of rows (`row_bounds`), in
    span_count(nonzeros x columns, rows) spans, each an `ordered_map` item;
    with one span it is the operator's own product.
    A CSR product sums each output row over that row's entries in order, so
    every row is the same sum as in the whole product.  The spans' CSR views
    share the operator's arrays and are built here, once per operator."""
    indptr, rows = operator.indptr, operator.shape[0]
    bounds = row_bounds(indptr, span_count(operator.nnz * columns, rows))
    if bounds.size <= 2:
        return operator.__matmul__
    spans = [(r0, r1, sp.csr_matrix((operator.data[indptr[r0]:indptr[r1]],
                                     operator.indices[indptr[r0]:indptr[r1]],
                                     indptr[r0:r1 + 1] - indptr[r0]),
                                    shape=(r1 - r0, operator.shape[1])))
             for r0, r1 in zip(bounds[:-1], bounds[1:])]

    def product(X: np.ndarray) -> np.ndarray:
        out = np.empty((rows, X.shape[1]))

        def span_product(span, _):
            r0, r1, view = span
            out[r0:r1] = view @ X

        for _ in ordered_map(span_product, spans, lambda: None, operator.nnz * columns):
            pass
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
