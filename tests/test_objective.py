"""Loss assembly and the recorded gradient pipeline.

The gradient pipeline is checked two independent ways: central differences
on every parameter block, and a value-level comparison against a dense numpy
recomputation written in this file (dense adjacency, explicit centering
matrix), which shares no code with the library's stage functions.
"""

import numpy as np
import pytest

from gbsr import autodiff as ad
from gbsr import backbone, graph, hsic, objective
from gbsr.data import Dataset
from gbsr.denoiser import DenoiserParams, denoise
from gbsr.evaluation import evaluate
from gbsr.errors import ConfigError, DataError, NumericError
from gbsr.objective import (MARGIN_CLAMP, PARAM_BLOCKS, gradients,
                            plain_original_readout)
from gbsr.trainer import TrainConfig

from conftest import central_diff, rel_err


def make_instance(seed=0, M=4, N=3, d=4, social=((0, 1), (1, 2), (2, 3))):
    rng = np.random.default_rng(seed)
    train = sorted({(u, int(rng.integers(0, N))) for u in range(M)}
                   | {(int(rng.integers(0, M)), int(rng.integers(0, N)))
                      for _ in range(M)})
    ds = Dataset(M, N, train, [], sorted(social))
    layout = graph.layout_for(ds)
    E = rng.standard_normal((M + N, d)) * 0.5
    params = DenoiserParams.init(d, rng, scale=0.3, observation_bias=0.1)
    users = np.array([0, 1, 2, 3])
    positives = np.array([t[1] for t in sorted(train)[:M]])
    negatives = (positives + 1) % N
    deltas = rng.uniform(0.05, 0.95, size=layout.social_count)
    return ds, layout, E, params, (users, positives, negatives), deltas


def margin_losses(x, y, **kwargs):
    """Loss breakdown of a batch whose k-th margin is exactly x[k]^2 - x[k]*y[k].

    User k's only train item is item k and item K + k is isolated; with one
    layer and 1-d embeddings x on both ends of each bond and 2y on the
    isolated items, the readouts are x (user and positive) and y (negative).
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    K = x.size
    ds = Dataset(K, 2 * K, [(k, k) for k in range(K)], [], [])
    E = np.concatenate([x, x, 2.0 * y])[:, None]
    params = DenoiserParams.init(1, np.random.default_rng(0))
    batch = (np.arange(K), np.arange(K), K + np.arange(K))
    kwargs = {"layers": 1, "beta": 0.0, "reg_lambda": 0.0, "sigma_sq": 1.0,
              **kwargs}
    return gradients(E, params, graph.layout_for(ds), batch, np.zeros(0), **kwargs)


def dense_losses(ds, E, params, batch, deltas, layers, sigma_sq, normalize=True):
    """rec, ib and reg of one batch with dense numpy and an explicit H."""
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    M, n = ds.user_count, ds.node_count
    a, b = ds.social_pairs[:, 0], ds.social_pairs[:, 1]
    h = np.tanh(np.hstack([E[a], E[b], E[a] * E[b]]) @ params.layer1_weight
                + params.layer1_bias)
    conf = np.clip(sigmoid(h @ params.layer2_weight[:, 0] + params.layer2_bias[0]),
                   1e-6, 1.0 - 1e-6)
    d = np.clip(deltas, 1e-12, 1.0 - 1e-12)
    rho = np.minimum(sigmoid((conf + np.log(d / (1.0 - d))) / params.temperature)
                     + params.observation_bias, 1.0)

    def readout(social_weights):
        A = np.zeros((n, n))
        A[a, b] = A[b, a] = social_weights
        u, i = ds.train_pairs[:, 0], M + ds.train_pairs[:, 1]
        A[u, i] = A[i, u] = 1.0
        dinv = np.maximum(A.sum(axis=1), 1e-12) ** -0.5
        A = dinv[:, None] * A * dinv[None, :]
        states = [E]
        for _ in range(layers):
            states.append(A @ states[-1])
        return sum(states) / (layers + 1)

    def kernel(Z):
        if normalize:
            Z = Z / np.linalg.norm(Z, axis=1, keepdims=True)
        diff = Z[:, None, :] - Z[None, :, :]
        return np.exp(-(diff ** 2).sum(axis=2) / (2.0 * sigma_sq))

    users, pos, neg = batch
    R, R0 = readout(rho), readout(np.ones(len(a)))
    margins = (R[users] * R[M + pos]).sum(axis=1) - (R[users] * R[M + neg]).sum(axis=1)
    rec = float(np.mean(np.log1p(np.exp(-margins))))
    distinct = np.unique(users)
    k = distinct.size
    H = np.eye(k) - np.full((k, k), 1.0 / k)
    ib = float(np.trace(kernel(R[distinct]) @ H @ kernel(R0[distinct]) @ H)) / (k - 1) ** 2
    return rec, ib, float((E * E).sum())


class TestBprLoss:
    def test_unit_margin(self):
        assert margin_losses([1.0], [0.0])[0].rec_loss == 0.31326168751822286

    def test_zero_margin_is_log_two(self):
        assert margin_losses([2.5], [2.5])[0].rec_loss == 0.6931471805599453

    def test_mean_reduction(self):
        # margins 1 and 0
        got = margin_losses([1.0, 3.0], [0.0, 3.0])[0].rec_loss
        assert got == 0.5032044340390841

    def test_wide_margin_clamps(self):
        br, grads = margin_losses([1.0], [-1e6])
        assert br.rec_loss == pytest.approx(0.0, abs=1e-15)
        br, grads = margin_losses([1.0], [1e6])
        assert br.rec_loss == pytest.approx(MARGIN_CLAMP, abs=1e-12)
        # a binding clamp passes no ranking gradient back
        np.testing.assert_array_equal(grads["embeddings"], 0.0)

    def test_shape_validation(self):
        ds, layout, E, params, _, deltas = make_instance()
        kwargs = dict(layers=2, beta=0.0, reg_lambda=0.0, sigma_sq=1.0)
        for bad in ((np.array([0, 1]), np.array([0, 1]), np.array([1])),
                    (np.zeros((2, 2), dtype=int),) * 3):
            with pytest.raises(DataError, match="equal-length"):
                gradients(E, params, layout, bad, deltas, **kwargs)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_scores(self):
        with pytest.raises(NumericError):
            margin_losses([np.nan], [0.0])


class TestTotalLoss:
    def test_grouping_identity(self):
        ds, layout, E, params, batch, deltas = make_instance(seed=1)
        br, _ = gradients(E, params, layout, batch, deltas, layers=2,
                          beta=2.5, reg_lambda=0.01, sigma_sq=1.0,
                          with_grads=False)
        assert br.reg_loss == float((E * E).sum())
        assert br.ib_loss > 0.0
        assert br.total == (br.rec_loss + 0.01 * br.reg_loss) + 2.5 * br.ib_loss

    def test_none_bottleneck_means_zero(self):
        br, _ = margin_losses([1.0], [0.0], beta=0.0, reg_lambda=0.0)
        assert br.ib_loss == 0.0 and br.total == br.rec_loss

    def test_l2_is_sum_of_squares(self):
        ds = Dataset(1, 1, [(0, 0)], [], [])
        E = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = DenoiserParams.init(2, np.random.default_rng(0))
        batch = (np.array([0]), np.array([0]), np.array([0]))
        br, _ = gradients(E, params, graph.layout_for(ds), batch, np.zeros(0),
                          layers=1, beta=0.0, reg_lambda=0.5, sigma_sq=1.0)
        assert br.reg_loss == 30.0

    def test_negative_knobs_rejected(self):
        ds, layout, E, params, batch, deltas = make_instance()
        nan, inf = float("nan"), float("inf")
        # NaN and infinite weights are config errors naming the key: a NaN
        # beta would otherwise drop the bottleneck, and an infinite sigma_sq
        # flatten both kernels to ib_loss 0
        bad = [(name, value) for name in ("beta", "reg_lambda") for value in (-1.0, nan, inf)]
        for name, value in bad + [("sigma_sq", value) for value in (0.0, nan, inf)]:
            knobs = {"beta": 0.5, "reg_lambda": 0.0, "sigma_sq": 1.0, name: value}
            with pytest.raises(ConfigError, match=name):
                gradients(E, params, layout, batch, deltas, layers=2, **knobs)


class TestDualRoute:
    def test_tape_matches_plain_composition(self):
        """Same batch through the tape and through dense_losses; every
        reported component must agree to 1e-12."""
        for seed in range(4):
            ds, layout, E, params, batch, deltas = make_instance(seed=seed)
            br, _ = gradients(E, params, layout, batch, deltas, layers=2,
                              beta=1.7, reg_lambda=0.02, sigma_sq=0.8,
                              with_grads=False)
            rec, ib, reg = dense_losses(ds, E, params, batch, deltas, 2, 0.8)

            assert abs(br.rec_loss - rec) < 1e-12
            assert abs(br.ib_loss - ib) < 1e-12
            assert abs(br.reg_loss - reg) < 1e-12
            assert abs(br.total - ((rec + 0.02 * reg) + 1.7 * ib)) < 1e-12


class TestGradients:
    def test_all_blocks_match_central_differences(self):
        for seed in (0, 3):
            ds, layout, E, params, batch, deltas = make_instance(seed=seed)
            kwargs = dict(layers=2, beta=0.7, reg_lambda=0.01, sigma_sq=1.0)
            _, grads = gradients(E, params, layout, batch, deltas, **kwargs)
            assert set(grads) == set(PARAM_BLOCKS)

            arrays = {"embeddings": E,
                      "layer1_weight": params.layer1_weight,
                      "layer1_bias": params.layer1_bias,
                      "layer2_weight": params.layer2_weight,
                      "layer2_bias": params.layer2_bias}
            for name, arr in arrays.items():
                def f():
                    br, _ = gradients(E, params, layout, batch, deltas,
                                      with_grads=False, **kwargs)
                    return br.total

                # step 1e-5: small enough for truncation, large enough that
                # cancellation noise stays ~1e-11 per evaluation
                fd = central_diff(f, arr, h=1e-5)
                worst = float(rel_err(fd, grads[name]).max())
                assert worst < 1e-4, f"{name}: rel err {worst}"

    def test_reg_only_when_margins_cancel(self):
        # positives == negatives makes every margin exactly zero, so the
        # ranking term is log 2 with a gradient that cancels bitwise and
        # only the L2 anchor drives the embeddings
        ds, layout, E, params, batch, deltas = make_instance()
        users, positives, _ = batch
        same = (users, positives, positives)
        br, grads = gradients(E, params, layout, same, deltas, layers=2,
                              beta=0.0, reg_lambda=0.03, sigma_sq=1.0)
        assert br.rec_loss == 0.6931471805599453
        np.testing.assert_array_equal(grads["embeddings"], 2.0 * 0.03 * E)
        for name in PARAM_BLOCKS[1:]:
            np.testing.assert_array_equal(grads[name],
                                          np.zeros_like(grads[name]))

    def test_beta_zero_skips_kernel_branch(self, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("kernel branch evaluated with beta == 0")

        monkeypatch.setattr(hsic, "bottleneck", boom)
        ds, layout, E, params, batch, deltas = make_instance()
        br, grads = gradients(E, params, layout, batch, deltas, layers=2,
                              beta=0.0, reg_lambda=0.01, sigma_sq=1.0)
        assert br.ib_loss == 0.0
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_detach_original_freezes_that_branch(self, monkeypatch):
        ds, layout, E, params, batch, deltas = make_instance(seed=2)
        kwargs = dict(layers=2, beta=1.3, reg_lambda=0.01, sigma_sq=1.0)
        br_d, g_d = gradients(E, params, layout, batch, deltas,
                              detach_original=True, **kwargs)
        br_f, g_f = gradients(E, params, layout, batch, deltas, **kwargs)
        # same forward value either way
        assert br_d.total == pytest.approx(br_f.total, abs=1e-12)
        # but the embeddings gradient loses the original-branch path
        assert not np.allclose(g_d["embeddings"], g_f["embeddings"],
                               rtol=0, atol=1e-12)

        # detached gradients equal central differences of the function with
        # the original readout pinned at its baseline value
        orig = plain_original_readout(E, layout, 2)
        monkeypatch.setattr(objective, "plain_original_readout",
                            lambda *args: orig)

        def f():
            br, _ = gradients(E, params, layout, batch, deltas,
                              detach_original=True, with_grads=False,
                              **kwargs)
            return br.total

        fd = central_diff(f, E, h=1e-6)
        assert float(rel_err(fd, g_d["embeddings"]).max()) < 1e-4

    def test_override_matches_detach_value(self, monkeypatch):
        # the detached branch is exactly plain_original_readout held constant
        ds, layout, E, params, batch, deltas = make_instance(seed=5)
        kwargs = dict(layers=2, beta=1.0, reg_lambda=0.0, sigma_sq=1.0)
        br_f, _ = gradients(E, params, layout, batch, deltas,
                            with_grads=False, **kwargs)
        orig = plain_original_readout(E, layout, 2)
        monkeypatch.setattr(objective, "plain_original_readout",
                            lambda *args: orig)
        br_o, _ = gradients(E, params, layout, batch, deltas,
                            detach_original=True, with_grads=False, **kwargs)
        monkeypatch.undo()
        br_d, _ = gradients(E, params, layout, batch, deltas,
                            detach_original=True, with_grads=False, **kwargs)
        assert br_o.total == br_d.total
        assert br_d.total == pytest.approx(br_f.total, abs=1e-12)

    def test_kernel_normalize_switch(self):
        ds, layout, E, params, batch, deltas = make_instance(seed=7)
        kwargs = dict(layers=2, beta=1.0, reg_lambda=0.0, sigma_sq=1.0)
        a, _ = gradients(E, params, layout, batch, deltas,
                         kernel_normalize=True, with_grads=False, **kwargs)
        b, _ = gradients(E, params, layout, batch, deltas,
                         kernel_normalize=False, with_grads=False, **kwargs)
        assert a.ib_loss != b.ib_loss

    def test_social_free_graph_still_trains(self):
        ds = Dataset(3, 3, [(0, 0), (1, 1), (2, 2)], [], [])
        layout = graph.layout_for(ds)
        rng = np.random.default_rng(0)
        E = rng.standard_normal((6, 3))
        params = DenoiserParams.init(3, rng)
        batch = (np.array([0, 1]), np.array([0, 1]), np.array([2, 0]))
        br, grads = gradients(E, params, layout, batch, np.zeros(0),
                              layers=2, beta=0.5, reg_lambda=0.01,
                              sigma_sq=1.0)
        assert np.isfinite(br.total)
        assert np.any(grads["embeddings"] != 0.0)
        # no social pairs -> nothing for the confidence head to learn from
        np.testing.assert_array_equal(grads["layer1_weight"], 0.0)


class TestTapeSize:
    """Tape nodes (op results that carry a gradient) recorded by one
    `gradients` call, counted the way the benchmark's traced run counts
    them.  Each all-edge stage and the HSIC bottleneck is one node;
    splitting one back into per-op nodes changes these counts."""

    @pytest.mark.parametrize("detach_original,nodes", [(False, 29), (True, 28)],
                             ids=["paper_config", "detached_config"])
    def test_nodes_per_call(self, monkeypatch, detach_original, nodes):
        make = ad._make
        count = []

        def counting_make(data, parents, backward):
            node = make(data, parents, backward)
            if node.requires_grad:
                count.append(node)
            return node

        monkeypatch.setattr(ad, "_make", counting_make)
        config = TrainConfig(detach_original=detach_original)
        assert config.layers == 3
        ds, layout, E, params, batch, deltas = make_instance()
        gradients(E, params, layout, batch, deltas, layers=config.layers,
                  beta=config.beta, reg_lambda=config.reg_lambda,
                  sigma_sq=config.sigma_sq, detach_original=detach_original,
                  kernel_normalize=config.kernel_normalize)
        assert len(count) == nodes


class TestBackwardOnlyPlan:
    def test_evaluation_leaves_pair_plan_unbuilt(self):
        # the per-block one-hot pair matrices serve only the confidence op's
        # backward: the evaluation path and a loss without gradients never
        # build them, and the first backward does
        _, _, E, params, batch, deltas = make_instance()
        ds = Dataset(4, 3, [(0, 0), (1, 1), (2, 2), (3, 0)], [(0, 1), (1, 2)],
                     [(0, 1), (1, 2), (2, 3)])
        layout = graph.layout_for(ds)
        cmap = denoise(params, E, ds)
        reps = backbone.forward(backbone.EmbeddingTable(E, 2), graph.build_adjacency(ds, cmap))
        evaluate(reps, ds, (1, 2))
        kwargs = {"layers": 2, "beta": 1.0, "reg_lambda": 1e-3, "sigma_sq": 1.0}
        gradients(E, params, layout, batch, deltas, with_grads=False, **kwargs)
        assert layout._pair_blocks is None
        gradients(E, params, layout, batch, deltas, with_grads=True, **kwargs)
        assert layout._pair_blocks is not None


class TestGradientValidation:
    def test_empty_batch(self):
        ds, layout, E, params, _, deltas = make_instance()
        empty = (np.array([], dtype=np.int64),) * 3
        with pytest.raises(DataError):
            gradients(E, params, layout, empty, deltas, layers=2,
                      beta=0.0, reg_lambda=0.0, sigma_sq=1.0)

    def test_user_out_of_range(self):
        ds, layout, E, params, batch, deltas = make_instance()
        bad = (np.array([99]), np.array([0]), np.array([1]))
        with pytest.raises(DataError, match="user"):
            gradients(E, params, layout, bad, deltas, layers=2,
                      beta=0.0, reg_lambda=0.0, sigma_sq=1.0)

    def test_item_out_of_range(self):
        ds, layout, E, params, batch, deltas = make_instance()
        bad = (np.array([0]), np.array([17]), np.array([0]))
        with pytest.raises(DataError, match="item"):
            gradients(E, params, layout, bad, deltas, layers=2,
                      beta=0.0, reg_lambda=0.0, sigma_sq=1.0)

    def test_delta_length_mismatch(self):
        ds, layout, E, params, batch, _ = make_instance()
        with pytest.raises(DataError, match="delta"):
            gradients(E, params, layout, batch, np.zeros(1), layers=2,
                      beta=0.0, reg_lambda=0.0, sigma_sq=1.0)

    def test_bad_knobs(self):
        ds, layout, E, params, batch, deltas = make_instance()
        with pytest.raises(ConfigError):
            gradients(E, params, layout, batch, deltas, layers=2,
                      beta=-1.0, reg_lambda=0.0, sigma_sq=1.0)
        with pytest.raises(ConfigError):
            gradients(E, params, layout, batch, deltas, layers=2,
                      beta=1.0, reg_lambda=0.0, sigma_sq=0.0)

    @pytest.mark.parametrize("rows", [6, 8])
    def test_embedding_rows_not_one_per_node(self, rows):
        ds, layout, E, params, batch, deltas = make_instance()
        wrong = np.resize(E, (rows, E.shape[1]))
        with pytest.raises(DataError, match=f"embedding matrix has {rows} rows but the "
                                            f"graph has {layout.node_count} nodes"):
            gradients(wrong, params, layout, batch, deltas, layers=2,
                      beta=1.0, reg_lambda=0.0, sigma_sq=1.0)

    @pytest.mark.parametrize("shape", [(7, 3), (7, 5), (7,)])
    def test_embedding_width_not_the_heads(self, shape):
        ds, layout, E, params, batch, deltas = make_instance()
        with pytest.raises(ConfigError, match="embedding dimension mismatch: params expect 4"):
            gradients(np.zeros(shape), params, layout, batch, deltas, layers=2,
                      beta=1.0, reg_lambda=0.0, sigma_sq=1.0)

    def test_single_user_batch_with_bottleneck(self):
        ds, layout, E, params, _, deltas = make_instance()
        solo = (np.array([1, 1]), np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(DataError, match="distinct"):
            gradients(E, params, layout, solo, deltas, layers=2,
                      beta=1.0, reg_lambda=0.0, sigma_sq=1.0)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_loss_raises(self):
        ds, layout, E, params, batch, deltas = make_instance()
        E = E.copy()
        E[0, 0] = np.inf
        with pytest.raises(NumericError):
            gradients(E, params, layout, batch, deltas, layers=2,
                      beta=0.0, reg_lambda=0.1, sigma_sq=1.0)
