"""Joint adjacency assembly: degrees, normalization, propagation."""

import numpy as np
import pytest

from conftest import STRADDLE_PAIRS

from gbsr import graph
from gbsr.backbone import EmbeddingTable, forward
from gbsr.data import Dataset
from gbsr.errors import DataError
from gbsr.graph import (DEGREE_FLOOR, EdgeLayout, build_adjacency,
                        layout_for, renormalize)

INV_SQRT2 = 0.7071067811865476


def normalized_dense(adj):
    """The normalized adjacency as a dense matrix."""
    return adj.operator.toarray()


def propagate(adj, E):
    """One aggregation step of the backbone on plain arrays."""
    return forward(EmbeddingTable(E, 1), adj).layers[1]


def two_user_one_item():
    # node 0,1 = users; node 2 = the single item
    return Dataset(2, 1, train=[(0, 0)], test=[], social=[(0, 1)])


def dense_normalized(ds, social_w):
    """Independent dense oracle for the symmetric normalization."""
    n = ds.node_count
    A = np.zeros((n, n))
    for (a, b), w in zip(ds.social_pairs, social_w):
        A[a, b] += w
        A[b, a] += w
    for u, i in ds.train_pairs:
        A[u, ds.user_count + i] += 1.0
        A[ds.user_count + i, u] += 1.0
    d = np.maximum(A.sum(axis=1), DEGREE_FLOOR)
    return (A / np.sqrt(d)[:, None]) / np.sqrt(d)[None, :]


class TestHandCase:
    def test_degrees_and_entries(self):
        ds = two_user_one_item()
        adj = build_adjacency(ds, np.ones(1))
        assert renormalize(np.ones(1), layout_for(ds))[0].tolist() == [2.0, 1.0, 1.0]
        dense = normalized_dense(adj)
        expect = np.array([[0.0, INV_SQRT2, INV_SQRT2],
                           [INV_SQRT2, 0.0, 0.0],
                           [INV_SQRT2, 0.0, 0.0]])
        np.testing.assert_allclose(dense, expect, rtol=0, atol=1e-15)

    def test_zero_social_weight_reroutes_mass(self):
        # killing the social tie turns user 0 <-> item into a degree-1/degree-1
        # bond with unit normalized weight; user 1 is isolated
        ds = two_user_one_item()
        adj = build_adjacency(ds, np.array([0.0]))
        dense = normalized_dense(adj)
        expect = np.zeros((3, 3))
        expect[0, 2] = expect[2, 0] = 1.0
        np.testing.assert_allclose(dense, expect, rtol=0, atol=1e-15)
        assert renormalize(np.array([0.0]), layout_for(ds))[0].tolist() == [1.0, 0.0, 1.0]

    def test_fractional_weight(self):
        adj = build_adjacency(two_user_one_item(), np.array([0.5]))
        ds = two_user_one_item()
        np.testing.assert_allclose(normalized_dense(adj),
                                   dense_normalized(ds, [0.5]),
                                   rtol=0, atol=1e-15)


class TestLayout:
    def test_edge_ordering_blocks(self, tiny_dataset):
        lay = EdgeLayout(tiny_dataset)
        S, T = lay.social_count, lay.interaction_count
        assert S == 2 and T == 4
        assert lay.rows.size == 2 * S + 2 * T
        # first block a->b, second b->a, then u->item, then item->u
        np.testing.assert_array_equal(lay.rows[:S], tiny_dataset.social_pairs[:, 0])
        np.testing.assert_array_equal(lay.cols[:S], tiny_dataset.social_pairs[:, 1])
        np.testing.assert_array_equal(lay.rows[S:2 * S], tiny_dataset.social_pairs[:, 1])
        np.testing.assert_array_equal(lay.rows[2 * S:2 * S + T], tiny_dataset.train_pairs[:, 0])
        np.testing.assert_array_equal(
            lay.cols[2 * S:2 * S + T],
            tiny_dataset.user_count + tiny_dataset.train_pairs[:, 1])

    def test_values_layout(self, tiny_dataset):
        # both social blocks carry the pair weights, interactions weigh 1:
        # read back through the degrees and the operator's entries
        lay = EdgeLayout(tiny_dataset)
        degrees, dinv, op = renormalize(np.array([0.25, 0.75]), lay)
        v = [0.25, 0.75, 0.25, 0.75] + [1.0] * 8
        np.testing.assert_array_equal(
            degrees, np.bincount(lay.rows, weights=v, minlength=lay.node_count))
        entries = np.asarray(op[lay.rows, lay.cols]).ravel()
        np.testing.assert_allclose(entries / (dinv[lay.rows] * dinv[lay.cols]), v,
                                   rtol=1e-15, atol=0)

    def test_layout_cached_per_dataset(self, tiny_dataset):
        assert layout_for(tiny_dataset) is layout_for(tiny_dataset)

    def test_pair_blocks_sum_rows_per_user(self, monkeypatch):
        # a layout plans its blocks once, so each block size gets a fresh
        # one; each block's one-hot matrices sum that block's rows per
        # distinct user
        ds = Dataset(6, 1, train=[], test=[], social=STRADDLE_PAIRS)
        n = len(STRADDLE_PAIRS)
        X = np.random.default_rng(0).standard_normal((n, 2))
        for block in (1, 2, 3, 64):
            monkeypatch.setattr(graph, "PAIR_BLOCK", block)
            lay = EdgeLayout(ds)
            plan = lay.pair_blocks()
            assert lay.pair_blocks() is plan
            assert [p[:2] for p in plan] == [
                (lo, min(lo + block, n)) for lo in range(0, n, block)]
            for lo, hi, users_a, to_a, users_b, to_b in plan:
                for pair_users, users, one_hot in ((lay.social_a, users_a, to_a),
                                                   (lay.social_b, users_b, to_b)):
                    np.testing.assert_array_equal(users, np.unique(pair_users[lo:hi]))
                    want = [X[lo:hi][pair_users[lo:hi] == u].sum(axis=0) for u in users]
                    np.testing.assert_array_equal(one_hot @ X[lo:hi], want)


class TestAgainstDenseOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            M = int(rng.integers(2, 8))
            N = int(rng.integers(1, 8))
            inter, soc = set(), set()
            for u in range(M):
                inter.add((u, int(rng.integers(0, N))))
            while len(soc) < min(3, M - 1):
                a, b = rng.integers(0, M, size=2)
                if a != b:
                    soc.add((min(a, b), max(a, b)))
            ds = Dataset(M, N, sorted(inter), [], sorted(soc))
            w = rng.uniform(0.0, 1.0, size=len(soc))
            adj = build_adjacency(ds, w)
            np.testing.assert_allclose(normalized_dense(adj),
                                       dense_normalized(ds, w),
                                       rtol=0, atol=1e-12)
            E = rng.standard_normal((ds.node_count, 3))
            np.testing.assert_allclose(propagate(adj, E),
                                       dense_normalized(ds, w) @ E,
                                       rtol=0, atol=1e-12)

    def test_propagate_is_linear(self, tiny_dataset):
        rng = np.random.default_rng(3)
        adj = build_adjacency(tiny_dataset, rng.uniform(size=2))
        X = rng.standard_normal((tiny_dataset.node_count, 4))
        Y = rng.standard_normal((tiny_dataset.node_count, 4))
        lhs = propagate(adj, 2.0 * X - 3.0 * Y)
        rhs = 2.0 * propagate(adj, X) - 3.0 * propagate(adj, Y)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            M, N = 6, 5
            inter = sorted({(int(rng.integers(0, M)), int(rng.integers(0, N)))
                            for _ in range(12)})
            soc = sorted({tuple(sorted(rng.integers(0, M, size=2).tolist()))
                          for _ in range(6)} - {(a, a) for a in range(M)})
            ds = Dataset(M, N, inter, [], soc)
            w = rng.uniform(size=len(soc))
            A = normalized_dense(build_adjacency(ds, w))
            # (w*dinv[a])*dinv[b] vs (w*dinv[b])*dinv[a] differ only by
            # rounding in the multiply order
            np.testing.assert_allclose(A, A.T, rtol=0, atol=1e-15)
            lam = np.linalg.eigvalsh(A)
            assert np.max(np.abs(lam)) <= 1.0 + 1e-12

    def test_rebuild_identical(self, tiny_dataset):
        w = np.array([0.3, 0.9])
        a = build_adjacency(tiny_dataset, w)
        b = build_adjacency(tiny_dataset, w)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(a.operator, name),
                                          getattr(b.operator, name))


class TestValidation:
    def test_weight_out_of_range(self, tiny_dataset):
        with pytest.raises(DataError):
            build_adjacency(tiny_dataset, np.array([0.5, 1.5]))
        with pytest.raises(DataError):
            build_adjacency(tiny_dataset, np.array([-0.1, 0.5]))

    def test_nan_weight_rejected(self, tiny_dataset):
        # NaN compares false both ways, so a plain out-of-range test lets it
        # through and it spreads over every neighbour's normalized entries
        for bad in (np.array([np.nan, 0.5]), np.array([0.5, np.inf])):
            with pytest.raises(DataError, match=r"\[0, 1\]"):
                build_adjacency(tiny_dataset, bad)

        class Map:
            pairs = tiny_dataset.social_pairs
            relaxed = np.array([0.5, np.nan])

        with pytest.raises(DataError):
            build_adjacency(tiny_dataset, Map())

    def test_weight_length_mismatch(self, tiny_dataset):
        with pytest.raises(DataError):
            build_adjacency(tiny_dataset, np.array([0.5]))

    def test_renormalize_weight_length_mismatch(self, tiny_dataset):
        lay = layout_for(tiny_dataset)
        for bad in (np.ones(1), np.ones(3), np.ones((2, 1)), np.ones(lay.rows.size)):
            with pytest.raises(DataError, match="social pair count"):
                renormalize(bad, lay)

    def test_confidence_map_pair_mismatch(self, tiny_dataset):
        class Fake:
            pairs = np.array([[0, 2]])
            relaxed = np.array([0.5])

        with pytest.raises(DataError, match="social pairs"):
            build_adjacency(tiny_dataset, Fake())

    def test_propagate_row_mismatch(self, tiny_dataset):
        adj = build_adjacency(tiny_dataset, np.ones(2))
        with pytest.raises(DataError):
            forward(EmbeddingTable(np.zeros((2, 3)), 1), adj)


class TestFloor:
    def test_all_zero_social_isolated_user_stays_finite(self):
        # a user with no interactions and a fully suppressed tie has
        # degree 0; the floor keeps its (empty) row finite, not NaN
        ds = Dataset(2, 1, train=[(0, 0)], test=[], social=[(0, 1)])
        adj = build_adjacency(ds, np.array([0.0]))
        assert np.isfinite(adj.operator.data).all()
        assert np.isfinite(normalized_dense(adj)).all()
