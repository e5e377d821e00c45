"""Joint adjacency assembly: degrees, normalization, propagation."""

import numpy as np
import pytest
import scipy.sparse as sp

from gbsr import autodiff as ad
from gbsr.backbone import EmbeddingTable, aggregation, forward
from gbsr.data import Dataset
from gbsr.errors import DataError
from gbsr.graph import (DEGREE_FLOOR, EdgeLayout, WeightedAdjacency,
                        build_adjacency, layout_for)

INV_SQRT2 = 0.7071067811865476


def normalized_dense(adj):
    """The normalized adjacency as a dense matrix, duplicates summed."""
    n = adj.node_count
    return sp.csr_matrix((adj.normalized_weights, (adj.rows, adj.cols)),
                         shape=(n, n)).toarray()


def propagate(adj, E):
    """One aggregation step of the backbone on plain arrays."""
    step = aggregation(ad.constant(adj.normalized_weights), adj.layout)
    return step(ad.constant(E)).data


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
        adj = build_adjacency(two_user_one_item())
        assert adj.degrees.tolist() == [2.0, 1.0, 1.0]
        dense = normalized_dense(adj)
        expect = np.array([[0.0, INV_SQRT2, INV_SQRT2],
                           [INV_SQRT2, 0.0, 0.0],
                           [INV_SQRT2, 0.0, 0.0]])
        np.testing.assert_allclose(dense, expect, rtol=0, atol=1e-15)

    def test_zero_social_weight_reroutes_mass(self):
        # killing the social tie turns user 0 <-> item into a degree-1/degree-1
        # bond with unit normalized weight; user 1 is isolated
        adj = build_adjacency(two_user_one_item(), np.array([0.0]))
        dense = normalized_dense(adj)
        expect = np.zeros((3, 3))
        expect[0, 2] = expect[2, 0] = 1.0
        np.testing.assert_allclose(dense, expect, rtol=0, atol=1e-15)
        assert adj.degrees.tolist() == [1.0, 0.0, 1.0]

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
        lay = EdgeLayout(tiny_dataset)
        v = lay.values(ad.constant(np.array([0.25, 0.75]))).data
        assert v.tolist() == [0.25, 0.75, 0.25, 0.75] + [1.0] * 8

    def test_layout_cached_per_dataset(self, tiny_dataset):
        assert layout_for(tiny_dataset) is layout_for(tiny_dataset)

    def test_original_values_match_unit_weights(self, tiny_dataset):
        lay = layout_for(tiny_dataset)
        ones = WeightedAdjacency(lay, np.ones(lay.rows.size))
        np.testing.assert_array_equal(lay.original_values().data,
                                      ones.normalized_weights)
        np.testing.assert_allclose(lay.original_normalized_csr().toarray(),
                                   normalized_dense(ones), rtol=0, atol=0)
        assert lay.original_normalized_csr() is lay.original_normalized_csr()
        # the values are computed once and shared read-only across calls
        assert lay.original_values().data is lay.original_values().data
        assert not lay.original_values().data.flags.writeable


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
        np.testing.assert_array_equal(a.normalized_weights, b.normalized_weights)


class TestValidation:
    def test_weight_out_of_range(self, tiny_dataset):
        with pytest.raises(DataError):
            build_adjacency(tiny_dataset, np.array([0.5, 1.5]))
        with pytest.raises(DataError):
            build_adjacency(tiny_dataset, np.array([-0.1, 0.5]))

    def test_weight_length_mismatch(self, tiny_dataset):
        with pytest.raises(DataError):
            build_adjacency(tiny_dataset, np.array([0.5]))

    def test_confidence_map_pair_mismatch(self, tiny_dataset):
        class Fake:
            pairs = np.array([[0, 2]])
            relaxed = np.array([0.5])

        with pytest.raises(DataError, match="social pairs"):
            build_adjacency(tiny_dataset, Fake())

    def test_propagate_row_mismatch(self, tiny_dataset):
        adj = build_adjacency(tiny_dataset)
        with pytest.raises(DataError):
            forward(EmbeddingTable(np.zeros((2, 3)), 1), adj)


class TestFloor:
    def test_all_zero_social_isolated_user_stays_finite(self):
        # a user with no interactions and a fully suppressed tie has
        # degree 0; the floor keeps its (empty) row finite, not NaN
        ds = Dataset(2, 1, train=[(0, 0)], test=[], social=[(0, 1)])
        adj = build_adjacency(ds, np.array([0.0]))
        assert np.isfinite(adj.normalized_weights).all()
        assert np.isfinite(normalized_dense(adj)).all()
