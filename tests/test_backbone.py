"""Layered propagation, mean readout, and inner-product scoring."""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import STRADDLE_PAIRS, central_diff, inv_sqrt

from gbsr import autodiff as ad
from gbsr import graph
from gbsr.backbone import EmbeddingTable, forward, propagate
from gbsr.config import MAX_LAYERS
from gbsr.data import Dataset
from gbsr.errors import ConfigError, DataError
from gbsr.evaluation import _buffers, _ranked_block, rank_user
from gbsr.graph import DEGREE_FLOOR, build_adjacency


def original_graph(ds):
    """The adjacency with every social pair at weight 1."""
    return build_adjacency(ds, np.ones(len(ds.social_pairs)))


class TestHandCases:
    def test_single_bond_one_layer(self):
        # nodes: user0 (a), item0 (b), item1 (c); only u0 - i0 linked
        ds = Dataset(1, 2, train=[(0, 0)], test=[], social=[])
        adj = original_graph(ds)
        a, b, c = 1.5, -2.0, 7.0
        reps = forward(EmbeddingTable(np.array([[a], [b], [c]]), 1), adj)
        np.testing.assert_allclose(
            reps.readout,
            [[(a + b) / 2], [(a + b) / 2], [c / 2]], rtol=0, atol=1e-15)
        assert reps.user_count == 1 and reps.readout.shape == (3, 1)

    def test_isolated_nodes_shrink_by_depth(self):
        # no edges at all: every propagation is zero, so the readout is
        # the initial table scaled by 1/(L+1)
        ds = Dataset(2, 2, train=[], test=[], social=[])
        adj = original_graph(ds)
        E0 = np.arange(8, dtype=np.float64).reshape(4, 2) + 1.0
        for L in (1, 2, 3):
            reps = forward(EmbeddingTable(E0, L), adj)
            np.testing.assert_allclose(reps.readout, E0 / (L + 1),
                                       rtol=0, atol=0)

    def test_layer_list_contents(self, tiny_dataset):
        adj = original_graph(tiny_dataset)
        E0 = np.random.default_rng(0).standard_normal((tiny_dataset.node_count, 3))
        reps = forward(EmbeddingTable(E0, 3), adj)
        assert len(reps.layers) == 4
        assert reps.layers[0] is not None
        np.testing.assert_array_equal(reps.layers[0], E0)
        A = adj.operator
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
            A = adj.operator.toarray()
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
    """Scores are readout inner products; rankings order candidates by them."""

    @pytest.fixture
    def reps(self, tiny_dataset):
        adj = original_graph(tiny_dataset)
        E0 = np.random.default_rng(5).standard_normal((tiny_dataset.node_count, 4))
        return forward(EmbeddingTable(E0, 2), adj)

    def test_score_is_readout_inner_product(self, reps, tiny_dataset):
        for u in range(3):
            score = [sum(float(a) * float(b) for a, b in
                         zip(reps.readout[u], reps.readout[3 + i])) for i in range(3)]
            train = set(tiny_dataset.train_items_of(u).tolist())
            want = sorted((i for i in range(3) if i not in train),
                          key=lambda i: (-score[i], i))
            assert rank_user(reps, tiny_dataset, u, 3).tolist() == want

    def test_block_matches_single_user_lists(self, reps, tiny_dataset):
        rows, position, items = _ranked_block(reps.readout, tiny_dataset, 0, 3, 3,
                                              *_buffers(3, tiny_dataset.item_count))
        for u in range(3):
            single = rank_user(reps, tiny_dataset, u, 3)
            assert items[rows == u].tolist() == single.tolist()
            assert position[rows == u].tolist() == list(range(single.size))

    def test_range_checks(self, reps, tiny_dataset):
        for user in (3, -1, 17):
            with pytest.raises(DataError):
                rank_user(reps, tiny_dataset, user, 3)


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
        adj = original_graph(tiny_dataset)
        with pytest.raises(DataError):
            forward(EmbeddingTable(np.zeros((4, 2)), 1), adj)


def generic_readout(rho, E0, layout, layers):
    """The propagation written as a chain of generic tape ops: degrees by
    scatter_sum, the floored inverse root, the normalized values by gathers,
    then one spmm per layer and the mean."""
    n = layout.node_count
    ones = ad.constant(np.ones(2 * layout.interaction_count))
    values = ad.concat([rho, rho, ones])
    degrees = ad.scatter_sum(values, layout.rows, n)
    dinv = inv_sqrt(ad.clip(degrees, DEGREE_FLOOR, np.inf))
    normalized = (values * ad.gather(dinv, layout.rows)) * ad.gather(dinv, layout.cols)
    acc = state = E0
    for _ in range(layers):
        state = ad.spmm(normalized, layout.rows, layout.cols, (n, n), state)
        acc = acc + state
    return acc / float(layers + 1)


def propagation_cases():
    """(name, dataset, social weights): a random graph, one without social
    pairs, and two where user 3's only edges are social and weigh 0 or lie
    below DEGREE_FLOOR in total."""
    rng = np.random.default_rng(8)
    train = sorted({(u, int(rng.integers(0, 4))) for u in range(5)}
                   | {(int(rng.integers(0, 5)), int(rng.integers(0, 4))) for _ in range(6)})
    social = [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]
    floor_ds = Dataset(4, 2, [(0, 0), (1, 1), (2, 0)], [], [(0, 1), (1, 3), (2, 3)])
    return [
        ("random", Dataset(5, 4, train, [], social), rng.uniform(0.1, 0.9, size=5)),
        ("no_social", Dataset(3, 2, [(0, 0), (1, 1), (2, 0)], [], []), np.empty(0)),
        ("zero_weight", floor_ds, np.array([0.6, 0.0, 0.0])),
        ("below_floor", floor_ds, np.array([0.6, 1e-13, 1e-13])),
    ]


class TestPropagateOp:
    """backbone.propagate against central differences, the generic tape
    chain, and a csr_matrix product chain."""

    @pytest.mark.parametrize("layers", range(1, MAX_LAYERS + 1))
    @pytest.mark.parametrize("name,ds,rho", propagation_cases(),
                             ids=[c[0] for c in propagation_cases()])
    def test_gradients(self, name, ds, rho, layers):
        layout = graph.layout_for(ds)
        rng = np.random.default_rng(layers)
        E0 = rng.standard_normal((ds.node_count, 3))
        W = rng.standard_normal((ds.node_count, 3))
        rho = rho.copy()

        def loss(r, e):
            return float((propagate(ad.constant(r), ad.constant(e), layout, layers).data * W).sum())

        rho_t = ad.Tensor(rho, requires_grad=True)
        E_t = ad.Tensor(E0, requires_grad=True)
        (propagate(rho_t, E_t, layout, layers) * W).sum().backward()
        np.testing.assert_allclose(E_t.grad, central_diff(lambda: loss(rho, E0), E0),
                                   rtol=1e-6, atol=1e-8)
        if rho.size:
            # below the floor a weight's value is linear in rho until the
            # degree reaches the floor, so those entries take a tiny step
            tiny = rho < 1e-9
            for k in range(rho.size):
                h = 1e-16 if tiny[k] else 1e-6
                up, down = rho.copy(), rho.copy()
                up[k] += h
                down[k] -= h
                fd = (loss(up, E0) - loss(down, E0)) / (2.0 * h)
                assert rho_t.grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-7), k

        # the same gradients through the generic op chain
        rho_g = ad.Tensor(rho, requires_grad=True)
        E_g = ad.Tensor(E0, requires_grad=True)
        (generic_readout(rho_g, E_g, layout, layers) * W).sum().backward()
        np.testing.assert_allclose(E_t.grad, E_g.grad, rtol=1e-12, atol=1e-14)
        if rho.size:
            np.testing.assert_allclose(rho_t.grad, rho_g.grad, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("layers", range(1, MAX_LAYERS + 1))
    @pytest.mark.parametrize("block", [1, 2, 3, 64, graph.SDDMM_BLOCK])
    def test_rho_gradient_across_pair_blocks(self, monkeypatch, block, layers):
        # the per-pair products walk the pairs in blocks of SDDMM_BLOCK; the
        # cases include the empty pair set
        monkeypatch.setattr(graph, "SDDMM_BLOCK", block)
        straddle = Dataset(6, 3, [(u, u % 3) for u in range(6)], [], STRADDLE_PAIRS)
        rho = np.random.default_rng(block).uniform(0.1, 0.9, size=len(STRADDLE_PAIRS))
        for name, ds, rho in [("straddle", straddle, rho)] + propagation_cases():
            layout = graph.layout_for(ds)
            rng = np.random.default_rng(layers)
            E0 = rng.standard_normal((ds.node_count, 3))
            W = rng.standard_normal((ds.node_count, 3))
            grads = []
            for readout in (propagate, generic_readout):
                rho_t = ad.Tensor(rho, requires_grad=True)
                E_t = ad.Tensor(E0, requires_grad=True)
                out = readout(rho_t, E_t, layout, layers)
                forward = out.data.copy()
                (out * W).sum().backward()
                np.testing.assert_array_equal(out.data, forward, err_msg=name)
                grads.append((rho_t.grad, E_t.grad))
            (rho_f, E_f), (rho_g, E_g) = grads
            np.testing.assert_allclose(E_f, E_g, rtol=1e-12, atol=1e-14, err_msg=name)
            assert rho_f.shape == rho.shape, name
            if rho.size:
                np.testing.assert_allclose(rho_f, rho_g, rtol=1e-12, atol=1e-14,
                                           err_msg=name)

    @pytest.mark.parametrize("layers", range(1, MAX_LAYERS + 1))
    def test_forward_bitwise_equals_csr_chain(self, layers):
        name, ds, rho = propagation_cases()[0]
        layout = graph.layout_for(ds)
        E0 = np.random.default_rng(layers).standard_normal((ds.node_count, 5))
        got = propagate(ad.constant(rho), ad.constant(E0), layout, layers).data

        rows, cols, n = layout.rows, layout.cols, ds.node_count
        w = np.concatenate([rho, rho, np.ones(2 * layout.interaction_count)])
        dinv = np.power(np.maximum(np.bincount(rows, weights=w, minlength=n), 1e-12), -0.5)
        A = sp.csr_matrix(((w * dinv[rows]) * dinv[cols], (rows, cols)), shape=(n, n))
        acc = state = E0
        for _ in range(layers):
            state = A @ state
            acc = acc + state
        np.testing.assert_array_equal(got, acc / float(layers + 1))
