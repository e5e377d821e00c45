"""The worker pool: its size rule, the contracts of its primitives, and
that its size never changes a result.

The all-pair kernels, the propagation products and its SDDMM spans, the
HSIC kernels and gradient routes, and the ranking blocks run on
`graph.WORKERS` threads.  Every result here must be bitwise equal at 1, 2
and 3 workers, and at more workers than this host has cores with the
interpreter switching threads as often as it can, which exposes a span
writing outside its rows or adding in another order.  Two spans sharing
buffers, or a slot reused before its last call's result was taken, corrupt
a result only when a thread switch falls inside a block, which that test
cannot force; the contract tests of `graph.span_map` and
`graph.ordered_map` check those rules without relying on thread timing.
"""

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
                                   block, lambda: spans.append(None))
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

    def visits(self, count, total, block):
        made, calls, lock = [], [], threading.Lock()

        def make_buffers():
            made.append((threading.get_ident(), object()))
            return made[-1][1]

        def fn(lo, hi, buffers):
            with lock:
                calls.append((lo, hi, buffers))

        with workers(count):
            graph.span_map(fn, total, block, make_buffers)
        return made, calls

    @pytest.mark.parametrize("total,block", [(1, 4), (7, 3), (12, 4), (40, 3), (5, 1)])
    def test_blocks_spans_and_buffers(self, count, total, block):
        made, calls = self.visits(count, total, block)
        blocks = -(-total // block)
        assert [ident for ident, _ in made] == [threading.get_ident()] * min(count, blocks)
        spans = [[(lo, hi) for lo, hi, buffers in calls if buffers is own] for _, own in made]
        # every block exactly once, each span's blocks in ascending order,
        # and the spans contiguous and ascending in the order made
        assert [b for span in spans for b in span] == [
            (lo, min(lo + block, total)) for lo in range(0, total, block)]
        assert all(span for span in spans)
        assert len(calls) == blocks

    def test_no_count_no_call(self, count):
        made, calls = self.visits(count, 0, 4)
        assert made == calls == []


@pytest.mark.parametrize("count", [1, 2, 3])
class TestOrderedMap:
    """Results come in item order; item j works in slot j mod slots, made
    on the calling thread; a slot has at most one unfinished call, where a
    call is finished once the caller has taken its result."""

    @pytest.mark.parametrize("items", [1, 2, 5, 13])
    def test_order_slots_and_window(self, count, items):
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
            for item, slot in graph.ordered_map(fn, range(items), make_slot):
                with lock:
                    unfinished[0] -= 1
                got.append((item, slot))
        slots = min(2 * count, items)
        assert [ident for ident, _ in made] == [threading.get_ident()] * slots
        assert got == [(j, made[j % slots][1]) for j in range(items)]
        assert most[0] <= slots


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

    @pytest.mark.parametrize("environ,cpus,count", [
        ({}, 2, 1),
        ({}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 8),
        ({"OMP_NUM_THREADS": "1"}, 8, 8),
        ({"MKL_NUM_THREADS": "1"}, 6, 6),
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, 4),
        ({"OPENBLAS_NUM_THREADS": "3"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "16"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "-2"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "two"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": ""}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 8, 8),
        ({"OPENBLAS_NUM_THREADS": "junk", "MKL_NUM_THREADS": "2"}, 8, 4),
        # the largest BLAS count wins, so no core is asked to run two threads
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ])
    def test_rule(self, environ, cpus, count):
        assert graph.worker_count(environ, cpus) == count


def test_import_starts_no_thread():
    # the pool starts on first use, never at import
    code = ("import threading, gbsr.cli, gbsr.graph; "
            "print(threading.active_count(), gbsr.graph._pool)")
    src = str(Path(graph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert run.stdout.split() == ["1", "None"]
