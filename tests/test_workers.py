"""The worker pool: its size rule, its work floor, the contracts of its
primitives, and that its size never changes a result.

The all-pair kernels, the propagation products and its SDDMM spans, the
HSIC kernels and gradient routes, and the ranking blocks run on
`graph.WORKERS` threads.  Every result here must be bitwise equal at 1, 2
and 3 workers, and at more workers than this host has cores with the
interpreter switching threads as often as it can, which exposes a span
writing outside its rows or adding in another order.  Two spans sharing
buffers, or a slot reused before its last call's result was taken, corrupt
a result only when a thread switch falls inside a block, which that test
cannot force; the contract tests of `graph.span_map`, `graph.ordered_map`
and `graph.row_split` check those rules without relying on thread timing.
"""

import functools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from gbsr import backbone, evaluation, graph, hsic
from gbsr.backbone import NodeRepresentations
from gbsr.data import Dataset, SyntheticSpec, generate_synthetic, sample_batch_arrays
from gbsr.denoiser import DenoiserParams, denoise
from gbsr.objective import gradients


@contextmanager
def workers(count):
    """graph.WORKERS set to count, on a pool of exactly that many threads
    made for the block and shut down after it."""
    saved = graph.WORKERS, graph._pool
    graph.WORKERS, graph._pool = count, None
    try:
        yield
    finally:
        if graph._pool is not None:
            graph._pool.shutdown()
        graph.WORKERS, graph._pool = saved


def instance(social):
    if social:
        spec = SyntheticSpec(cluster_count=2, users_per_cluster=12, items_per_cluster=10,
                             interaction_rate=0.4, intra_social_rate=0.3,
                             noise_edge_fraction=0.5, seed=11)
        ds, _ = generate_synthetic(spec)
    else:
        ds = Dataset(6, 4, [(u, u % 4) for u in range(6)] + [(0, 1), (3, 2)],
                     [(1, 3), (2, 0), (5, 2)], [])
    rng = np.random.default_rng(5)
    E = rng.standard_normal((ds.node_count, 4)) * 0.5
    params = DenoiserParams.init(4, rng, scale=0.3, observation_bias=0.1)
    batch = sample_batch_arrays(ds, 16, rng)
    deltas = rng.uniform(0.05, 0.95, size=ds.social_pairs.shape[0])
    return ds, E, params, batch, deltas


def results(ds, E, params, batch, deltas, blocks):
    """Losses and all five gradient blocks under both detach_original
    values, the evaluation confidences, the evaluation readout, and its
    metrics with every ranked block's arrays, which the `_ranked_block` spy
    records into `blocks` by first user."""
    layout = graph.layout_for(ds)
    out = {}
    for detach in (False, True):
        losses, grads = gradients(E, params, layout, batch, deltas, layers=3, beta=0.5,
                                  reg_lambda=0.01, sigma_sq=0.7, detach_original=detach)
        out[f"losses/{detach}"] = np.array([losses.rec_loss, losses.ib_loss,
                                            losses.reg_loss, losses.total])
        out.update({f"{name}/{detach}": g for name, g in grads.items()})
    cmap = denoise(params, E, ds)
    out["confidence"], out["relaxed"] = cmap.confidence, cmap.relaxed
    adj = graph.build_adjacency(ds, cmap)
    reps = backbone.forward(backbone.EmbeddingTable(E, 3), adj)
    out["readout"] = reps.readout
    blocks.clear()
    report = evaluation.evaluate(reps, ds, (3, 10))
    out["metrics"] = np.array([report.recall[3], report.recall[10],
                               report.ndcg[3], report.ndcg[10]])
    for lo, arrays in blocks.items():
        out.update({f"rank/{lo}/{name}": a
                    for name, a in zip(("rows", "positions", "items"), arrays)})
    return out


@pytest.mark.parametrize("social", [True, False], ids=["synthetic", "no_social"])
def test_worker_count_never_changes_a_result(monkeypatch, social):
    # no work floor, so these small calls are cut as far as the blocks allow
    monkeypatch.setattr(graph, "MIN_SPAN_WORK", 1)
    # one pair per block, set before the layout plans them: 59 blocks, so
    # every count below reuses its backward's block buffers, and 59 SDDMM
    # blocks, so the propagation backward's pairs are cut into spans too
    monkeypatch.setattr(graph, "PAIR_BLOCK", 1)
    monkeypatch.setattr(graph, "SDDMM_BLOCK", 1)
    # one kernel row per chunk of the HSIC backward's in-place G
    monkeypatch.setattr(hsic, "GRADIENT_CHUNK_ROWS", 1)
    # one user per ranking block: 24 or 6 blocks, so every count below
    # reuses its buffer slots
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", 1)
    ranked, ranked_block = {}, evaluation._ranked_block

    def spy(readout, dataset, lo, hi, cutoff, *buffers):
        ranked[lo] = ranked_block(readout, dataset, lo, hi, cutoff, *buffers)
        return ranked[lo]

    monkeypatch.setattr(evaluation, "_ranked_block", spy)
    ds, E, params, batch, deltas = instance(social)
    blocks = len(graph.layout_for(ds).pair_blocks())
    assert blocks == (59 if social else 0)
    with workers(1):
        want = results(ds, E, params, batch, deltas, ranked)
    assert len(ranked) == ds.user_count == (24 if social else 6)
    # the last count exceeds the cores, with the thread switch interval cut
    stress = graph._cpu_count() + 2
    interval = sys.getswitchinterval()
    for count in (2, 3, stress):
        try:
            sys.setswitchinterval(1e-6 if count == stress else interval)
            with workers(count):
                for block in (graph.PAIR_BLOCK, graph.SDDMM_BLOCK):
                    spans = []
                    graph.span_map(lambda lo, hi, buffers: None, ds.social_pairs.shape[0],
                                   block, lambda: spans.append(None), blocks)
                    assert len(spans) == min(count, blocks)
                got = results(ds, E, params, batch, deltas, ranked)
        finally:
            sys.setswitchinterval(interval)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key].tobytes() == value.tobytes(), (count, key)


@pytest.mark.parametrize("count", [1, 2, 3])
class TestSpanMap:
    """Blocks are visited once each, in contiguous ascending spans, each
    span with its own buffers made on the calling thread."""

    def visits(self, count, total, block, work):
        made, calls, lock = [], [], threading.Lock()

        def make_buffers():
            made.append((threading.get_ident(), object()))
            return made[-1][1]

        def fn(lo, hi, buffers):
            with lock:
                calls.append((lo, hi, buffers))

        with workers(count):
            graph.span_map(fn, total, block, make_buffers, work)
        return made, calls

    @pytest.mark.parametrize("total,block", [(1, 4), (7, 3), (12, 4), (40, 3), (5, 1)])
    def test_blocks_spans_and_buffers(self, count, total, block, per_block=graph.MIN_SPAN_WORK):
        blocks = -(-total // block)
        made, calls = self.visits(count, total, block, blocks * per_block)
        parts = min(count, blocks, max(1, blocks * per_block // graph.MIN_SPAN_WORK))
        assert [ident for ident, _ in made] == [threading.get_ident()] * parts
        spans = [[(lo, hi) for lo, hi, buffers in calls if buffers is own] for _, own in made]
        # every block exactly once, each span's blocks in ascending order,
        # and the spans contiguous and ascending in the order made
        assert [b for span in spans for b in span] == [
            (lo, min(lo + block, total)) for lo in range(0, total, block)]
        assert all(span for span in spans)
        assert len(calls) == blocks

    @pytest.mark.parametrize("total,block", [(12, 4), (40, 3)])
    def test_work_floor_caps_spans(self, count, total, block):
        # half a span's work per block: 3 blocks make one span, and 14
        # blocks still make one span per worker
        self.test_blocks_spans_and_buffers(count, total, block, graph.MIN_SPAN_WORK // 2)

    def test_no_count_no_call(self, count):
        made, calls = self.visits(count, 0, 4, 0)
        assert made == calls == []


@pytest.mark.parametrize("count", [1, 2, 3])
class TestOrderedMap:
    """Results come in item order; item j works in slot j mod slots, made
    on the calling thread; a slot has at most one unfinished call, where a
    call is finished once the caller has taken its result."""

    @pytest.mark.parametrize("items", [1, 2, 5, 13])
    def test_order_slots_and_window(self, count, items, per_item=graph.MIN_SPAN_WORK):
        made, lock = [], threading.Lock()
        unfinished, most = [0], [0]

        def make_slot():
            made.append((threading.get_ident(), object()))
            return made[-1][1]

        def fn(item, slot):
            with lock:
                unfinished[0] += 1
                most[0] = max(most[0], unfinished[0])
            if item == 0:
                # hold the first call so the other workers run ahead as far
                # as the slots let them
                time.sleep(0.2)
            return item, slot

        got = []
        with workers(count):
            for item, slot in graph.ordered_map(fn, range(items), make_slot,
                                                items * per_item):
                with lock:
                    unfinished[0] -= 1
                got.append((item, slot))
        spans = min(count, items, max(1, items * per_item // graph.MIN_SPAN_WORK))
        slots = min(2 * spans, items)
        assert [ident for ident, _ in made] == [threading.get_ident()] * slots
        assert got == [(j, made[j % slots][1]) for j in range(items)]
        assert most[0] <= slots

    def test_work_below_two_spans_runs_inline(self, count, items=13):
        # under two spans' work in all: the calls run inline, one at a time
        self.test_order_slots_and_window(count, items, 2 * graph.MIN_SPAN_WORK // items - 1)


def row_split_operator(name):
    """A CSR operator at one edge of `row_bounds`' cut."""
    rng = np.random.default_rng(9)
    if name == "empty_rows":
        dense = rng.standard_normal((9, 7)) * (rng.random((9, 7)) < 0.6)
        dense[[0, 3, 4, 8]] = 0.0
    elif name == "one_heavy_row":
        # row 2 holds 40 of 45 nonzeros, so the bounds a third and two
        # thirds of the way through the nonzeros both fall on row 3
        dense = np.zeros((6, 40))
        dense[np.arange(6), np.arange(6)] = rng.standard_normal(6)
        dense[2] = rng.standard_normal(40)
    else:
        dense = rng.standard_normal((2, 5))
    return sp.csr_matrix(dense)


@pytest.mark.parametrize("count", [1, 2, 3])
class TestRowSplit:
    """With no work floor, `row_split` cuts the rows into spans that cover
    each row exactly once, and its product is bitwise the operator's."""

    # spans at 1, 2 and 3 workers; duplicate bounds collapse, so one heavy
    # row makes two spans at 3 workers
    SPANS = {"empty_rows": (1, 2, 3), "one_heavy_row": (1, 2, 2),
             "fewer_rows_than_workers": (1, 2, 2)}

    @pytest.mark.parametrize("name", SPANS)
    def test_spans_cover_each_row_once(self, monkeypatch, count, name):
        spans = self.SPANS[name][count - 1]
        monkeypatch.setattr(graph, "MIN_SPAN_WORK", 1)
        operator = row_split_operator(name)
        X = np.random.default_rng(4).standard_normal((operator.shape[1], 3))
        calls, ordered_map = [], graph.ordered_map

        def spy(fn, items, make_slot, work):
            calls.append(items)
            return ordered_map(fn, items, make_slot, work)

        monkeypatch.setattr(graph, "ordered_map", spy)
        with workers(count):
            got = graph.row_split(operator, X.shape[1])(X)
        assert got.tobytes() == (operator @ X).tobytes()
        if spans == 1:
            # one span is the operator's own product
            assert calls == []
            return
        [items] = calls
        assert len(items) == spans
        assert [r for r0, r1, _ in items for r in range(r0, r1)] == list(range(operator.shape[0]))
        for r0, r1, view in items:
            assert (view != operator[r0:r1]).nnz == 0


def test_ranking_memory_is_bounded():
    # eval-full's shape: 2000 users x 2000 items, so 8 blocks of 262 users
    # in 2 spans.  Blocks made in the workers, or full-size partition
    # copies, take over 4 x SCORE_BLOCK_BYTES at 2 workers
    rng = np.random.default_rng(7)
    M = N = 2000
    picks = np.argpartition(rng.random((M, N)), 25, axis=1)[:, :25]
    train_users, test_users = np.repeat(np.arange(M), 20), np.repeat(np.arange(M), 5)
    ds = Dataset(M, N, np.column_stack([train_users, picks[:, :20].ravel()]),
                 np.column_stack([test_users, picks[:, 20:].ravel()]), [])
    readout = rng.standard_normal((M + N, 64))
    reps = NodeRepresentations([readout], readout, M)
    with workers(2):
        tracemalloc.start()
        try:
            evaluation.evaluate(reps, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 * evaluation.SCORE_BLOCK_BYTES, peak / evaluation.SCORE_BLOCK_BYTES


class TestWorkerCount:
    """The rule computes numbers only; no pool is built from them."""

    @pytest.mark.parametrize("cpus,blas_threads,count", [
        # no known BLAS setter: one worker
        (2, None, 1),
        (8, None, 1),
        # the CPUs BLAS leaves idle
        (2, 1, 2),
        (8, 1, 8),
        (6, 1, 6),
        (1, 1, 1),
        (8, 2, 4),
        (8, 3, 2),
        (8, 16, 1),
    ])
    def test_rule(self, cpus, blas_threads, count):
        assert graph.worker_count(cpus, blas_threads) == count


# SyntheticSpec fields before the seed: criterion 5's synthetic (also
# `gbsr synth`'s default) and the benchmark's inputs, eval-full ranking
# train-paper's dataset
SIZES = {"criterion-5": (2, 100, 100, 0.15, 0.1, 0.5),
         "train-paper": (4, 500, 500, 0.05, 0.02, 0.5),
         "train-social": (4, 1500, 500, 0.01, 0.02, 0.5)}


@functools.lru_cache(maxsize=None)
def sizes_of(name):
    """(layout, distinct users of a default 2048-pair batch)"""
    dataset, _ = generate_synthetic(SyntheticSpec(*SIZES[name], 0))
    users = sample_batch_arrays(dataset, 2048, np.random.default_rng(0))[0]
    return graph.layout_for(dataset), np.unique(users).size


class TestWorkFloor:
    """The spans each primitive gets at the default TrainConfig, from the
    sizes alone; no pool is started.  Each call's work is the one its caller
    passes: the confidence forward n d^2 (`span_map`) and backward 3 n d^2
    (`ordered_map`), the SDDMM n x 2 L d (`span_map`), ranking
    users x items x d (`span_map`), the propagation products
    nonzeros x d (`row_split`), and the two HSIC kernels or routes, n^2
    each for n distinct batch users (`ordered_map`)."""

    @staticmethod
    def spans(name, count):
        """{primitive: (spans with the floor, spans without it)} at `count`
        workers."""
        layout, batch_users = sizes_of(name)
        d, L = 64, 3
        n, M, N = layout.social_count, layout.user_count, layout.item_count
        indptr = layout._csr()[2]
        step = max(1, evaluation.SCORE_BLOCK_BYTES // (8 * N))
        calls = {"confidence forward": (n * d * d, -(-n // graph.PAIR_BLOCK)),
                 "confidence backward": (3 * n * d * d, len(layout.pair_blocks())),
                 "sddmm": (n * 2 * L * d, -(-n // graph.SDDMM_BLOCK)),
                 "ranking": (M * N * d, -(-M // step)),
                 "hsic": (2 * batch_users ** 2, 2),
                 "propagation": (indptr[-1] * d, indptr.size - 1)}
        with workers(count):
            out = {call: (graph.span_count(work, most), min(count, most))
                   for call, (work, most) in calls.items()}
        rows = out.pop("propagation")
        out["propagation"] = tuple(graph.row_bounds(indptr, k).size - 1 for k in rows)
        return out

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 8])
    def test_small_graph_runs_inline(self, count):
        spans = self.spans("criterion-5", count)
        assert {call: floored for call, (floored, _) in spans.items()} == dict.fromkeys(spans, 1)
        if count > 1:
            # without the floor the SDDMM and the products would be cut
            assert spans["sddmm"][1] > 1 and spans["propagation"][1] > 1

    @pytest.mark.parametrize("name", ["train-paper", "train-social"])
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_benchmark_sizes_keep_their_spans(self, name, count):
        for call, (floored, unfloored) in self.spans(name, count).items():
            assert floored == unfloored, (call, floored, unfloored)


def test_blas_pinned_at_import_whatever_the_thread_variable():
    """`import gbsr` pins the bundled OpenBLAS to one thread, whatever
    OPENBLAS_NUM_THREADS says, so the pool gets every CPU the process may
    use and one fixed-batch gradient call gives the same bytes."""
    if graph.BLAS_THREADS is None:
        pytest.skip("numpy and scipy bundle no OpenBLAS with a known thread setter")
    code = """
import ctypes, glob, hashlib, json, os
import numpy as np
import scipy
import gbsr
from gbsr import graph
from gbsr.data import SyntheticSpec, generate_synthetic, sample_batch_arrays
from gbsr.denoiser import DenoiserParams
from gbsr.objective import gradients
dataset, _ = generate_synthetic(SyntheticSpec(2, 100, 100, 0.15, 0.1, 0.5))
rng = np.random.default_rng(3)
E = rng.standard_normal((dataset.node_count, 64)) * 0.1
params = DenoiserParams.init(64, rng, scale=0.1, observation_bias=0.0)
batch = sample_batch_arrays(dataset, 2048, rng)
layout = graph.layout_for(dataset)
deltas = rng.uniform(size=layout.social_count)
losses, grads = gradients(E, params, layout, batch, deltas, layers=3, beta=0.5,
                          reg_lambda=1e-4, sigma_sq=1.0)
digest = hashlib.sha256(repr(losses).encode())
for name in sorted(grads):
    digest.update(grads[name].tobytes())
# the getters' answers after the call, read here, not from graph
threads = []
for module in (np, scipy):
    for path in sorted(glob.glob(os.path.dirname(module.__file__) + ".libs/*openblas*")):
        lib = ctypes.CDLL(path)
        for _, get_name in graph.BLAS_THREAD_CALLS:
            if hasattr(lib, get_name):
                getattr(lib, get_name).restype = ctypes.c_int
                threads.append(getattr(lib, get_name)())
print(json.dumps({"threads": threads, "workers": graph.WORKERS,
                  "cpus": len(os.sched_getaffinity(0)), "digest": digest.hexdigest()}))
"""
    src = str(Path(graph.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = []
    for threads in (None, "1", "2"):
        env = base if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        got = json.loads(run.stdout)
        assert got["threads"] and set(got["threads"]) == {1}, (threads, got)
        assert got["workers"] == got["cpus"], (threads, got)
        outputs.append(got["digest"])
    assert len(set(outputs)) == 1, outputs


def test_import_starts_no_thread():
    # the pool starts on first use, never at import
    code = ("import threading, gbsr.cli, gbsr.graph; "
            "print(threading.active_count(), gbsr.graph._pool)")
    src = str(Path(graph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert run.stdout.split() == ["1", "None"]
