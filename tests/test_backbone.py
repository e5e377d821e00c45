"""Layered propagation, mean readout, and inner-product scoring."""

import numpy as np
import pytest
import scipy.sparse as sp

from gbsr.backbone import MAX_LAYERS, EmbeddingTable, forward, score_all_items
from gbsr.data import Dataset
from gbsr.errors import ConfigError, DataError
from gbsr.graph import build_adjacency


def normalized_matrix(adj):
    n = adj.node_count
    return sp.csr_matrix((adj.normalized_weights, (adj.rows, adj.cols)),
                         shape=(n, n))


class TestHandCases:
    def test_single_bond_one_layer(self):
        # nodes: user0 (a), item0 (b), item1 (c); only u0 - i0 linked
        ds = Dataset(1, 2, train=[(0, 0)], test=[], social=[])
        adj = build_adjacency(ds)
        a, b, c = 1.5, -2.0, 7.0
        reps = forward(EmbeddingTable(np.array([[a], [b], [c]]), 1), adj)
        np.testing.assert_allclose(
            reps.readout,
            [[(a + b) / 2], [(a + b) / 2], [c / 2]], rtol=0, atol=1e-15)
        assert reps.user_count == 1 and reps.item_count == 2

    def test_isolated_nodes_shrink_by_depth(self):
        # no edges at all: every propagation is zero, so the readout is
        # the initial table scaled by 1/(L+1)
        ds = Dataset(2, 2, train=[], test=[], social=[])
        adj = build_adjacency(ds)
        E0 = np.arange(8, dtype=np.float64).reshape(4, 2) + 1.0
        for L in (1, 2, 3):
            reps = forward(EmbeddingTable(E0, L), adj)
            np.testing.assert_allclose(reps.readout, E0 / (L + 1),
                                       rtol=0, atol=0)

    def test_layer_list_contents(self, tiny_dataset):
        adj = build_adjacency(tiny_dataset)
        E0 = np.random.default_rng(0).standard_normal((tiny_dataset.node_count, 3))
        reps = forward(EmbeddingTable(E0, 3), adj)
        assert len(reps.layers) == 4
        assert reps.layers[0] is not None
        np.testing.assert_array_equal(reps.layers[0], E0)
        A = normalized_matrix(adj)
        want = E0.copy()
        for k in range(1, 4):
            want = A @ want
            np.testing.assert_allclose(reps.layers[k], want, rtol=0, atol=1e-12)


class TestAgainstDenseOracle:
    def test_random_graphs(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            M, N = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            inter = sorted({(int(rng.integers(0, M)), int(rng.integers(0, N)))
                            for _ in range(M * 2)})
            soc = sorted({tuple(sorted(map(int, rng.integers(0, M, size=2))))
                          for _ in range(M)} - {(a, a) for a in range(M)})
            ds = Dataset(M, N, inter, [], soc)
            w = rng.uniform(size=len(soc))
            adj = build_adjacency(ds, w)
            A = normalized_matrix(adj).toarray()
            E0 = rng.standard_normal((M + N, 3))
            L = int(rng.integers(1, MAX_LAYERS + 1))
            reps = forward(EmbeddingTable(E0, L), adj)
            states, acc = E0, E0.copy()
            for _ in range(L):
                states = A @ states
                acc += states
            np.testing.assert_allclose(reps.readout, acc / (L + 1),
                                       rtol=0, atol=1e-12)


class TestScoring:
    @pytest.fixture
    def reps(self, tiny_dataset):
        adj = build_adjacency(tiny_dataset)
        E0 = np.random.default_rng(5).standard_normal((tiny_dataset.node_count, 4))
        return forward(EmbeddingTable(E0, 2), adj)

    def test_score_is_readout_inner_product(self, reps):
        for u in range(3):
            row = score_all_items(reps, u)
            for i in range(3):
                want = sum(float(a) * float(b) for a, b in
                           zip(reps.readout[u], reps.readout[3 + i]))
                assert row[i] == pytest.approx(want, abs=1e-15)

    def test_score_all_items_matches_loop(self, reps):
        for u in range(3):
            row = score_all_items(reps, u)
            assert row.shape == (3,)
            for i in range(3):
                assert row[i] == pytest.approx(
                    float(np.dot(reps.readout[u], reps.readout[3 + i])), abs=1e-15)

    def test_range_checks(self, reps):
        for user in (3, -1, 17):
            with pytest.raises(DataError):
                score_all_items(reps, user)


class TestValidation:
    def test_layer_count_bounds(self):
        with pytest.raises(ConfigError):
            EmbeddingTable(np.zeros((3, 2)), 0)
        with pytest.raises(ConfigError):
            EmbeddingTable(np.zeros((3, 2)), MAX_LAYERS + 1)

    def test_matrix_must_be_2d(self):
        with pytest.raises(ConfigError):
            EmbeddingTable(np.zeros(6), 1)

    def test_non_finite_rejected(self):
        bad = np.zeros((3, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ConfigError):
            EmbeddingTable(bad, 1)

    def test_row_count_must_match_graph(self, tiny_dataset):
        adj = build_adjacency(tiny_dataset)
        with pytest.raises(DataError):
            forward(EmbeddingTable(np.zeros((4, 2)), 1), adj)
