"""Edge-confidence head and relaxed Bernoulli reweighting."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from conftest import STRADDLE_PAIRS, central_diff

from gbsr import autodiff as ad
from gbsr import graph
from gbsr.data import Dataset
from gbsr.denoiser import (CONFIDENCE_CLAMP, DenoiserParams, EdgeConfidenceMap,
                           confidence_csv, confidences, denoise, relax_sample)
from gbsr.errors import ConfigError, DataError


@pytest.fixture
def params():
    return DenoiserParams.init(4, np.random.default_rng(0), scale=0.1)


def head_of(params):
    return tuple(ad.constant(p) for p in (params.layer1_weight, params.layer1_bias,
                                         params.layer2_weight, params.layer2_bias))


def pair_confidences(params, ea, eb):
    """Confidences of the stacked pairs (ea[k], eb[k]) on constants: user k
    is ea[k], user n + k is eb[k], and (k, n + k) are the social pairs."""
    n = ea.shape[0]
    ds = Dataset(2 * n, 1, train=[], test=[], social=[(k, n + k) for k in range(n)])
    emb = ad.constant(np.concatenate([ea, eb]))
    return confidences(emb, head_of(params), graph.layout_for(ds)).data


def relax(w, delta, temperature):
    """The relaxed sample alone: no observation floor."""
    return relax_sample(ad.constant(w), delta, temperature, 0.0).data


class TestConfidenceHead:
    def test_output_in_open_interval(self, params):
        rng = np.random.default_rng(1)
        w = pair_confidences(params, rng.standard_normal((64, 4)),
                             rng.standard_normal((64, 4)))
        assert w.shape == (64,)
        assert (w > 0.0).all() and (w < 1.0).all()

    def test_batch_matches_single(self, params):
        rng = np.random.default_rng(2)
        ea = rng.standard_normal((5, 4))
        eb = rng.standard_normal((5, 4))
        batch = pair_confidences(params, ea, eb)
        for k in range(5):
            assert pair_confidences(params, ea[k:k + 1], eb[k:k + 1])[0] == batch[k]

    def test_manual_forward(self, params):
        # one pair pushed through the two layers by hand
        rng = np.random.default_rng(3)
        ea, eb = rng.standard_normal(4), rng.standard_normal(4)
        x = np.concatenate([ea, eb, ea * eb])
        h = np.tanh(x @ params.layer1_weight + params.layer1_bias)
        want = expit(float(h @ params.layer2_weight[:, 0]) + float(params.layer2_bias[0]))
        got = pair_confidences(params, ea[None, :], eb[None, :])[0]
        assert got == pytest.approx(want, abs=1e-15)

    def test_dim_mismatch_rejected(self, params):
        ds = Dataset(2, 1, train=[(0, 0)], test=[], social=[(0, 1)])
        with pytest.raises(ConfigError, match="dimension"):
            denoise(params, np.zeros((3, 3)), ds)

    def test_zero_weights_give_half(self):
        p = DenoiserParams(np.zeros((12, 4)), np.zeros(4), np.zeros((4, 1)),
                           np.zeros(1))
        assert pair_confidences(p, np.ones((1, 4)), np.ones((1, 4)))[0] == 0.5


CYCLE = [(0, 1), (0, 2), (1, 3), (2, 3)]


class TestConfidenceOp:
    """The fused confidence op's backward, for all five parents, against
    central differences and against the generic gather/concat/matmul chain,
    with the pairs in one block and walked in blocks of 1, 2 and 3 pairs."""

    @staticmethod
    def check_all_parents(users, social):
        # the two item rows sit in no pair
        ds = Dataset(users, 2, train=[(0, 0)], test=[], social=social)
        layout = graph.layout_for(ds)
        rng = np.random.default_rng(6)
        params = DenoiserParams.init(3, rng, scale=0.5)
        arrays = [rng.standard_normal((ds.node_count, 3)), params.layer1_weight,
                  params.layer1_bias, params.layer2_weight, params.layer2_bias]
        w = rng.standard_normal(len(social))

        def loss():
            consts = [ad.constant(x) for x in arrays]
            return float((confidences(consts[0], consts[1:], layout).data * w).sum())

        fused = [ad.Tensor(x, requires_grad=True) for x in arrays]
        out = confidences(fused[0], fused[1:], layout)
        forward = out.data.copy()
        (out * w).sum().backward()
        # the backward recomputes the hidden layer and leaves the output as it was
        np.testing.assert_array_equal(out.data, forward)
        generic = [ad.Tensor(x, requires_grad=True) for x in arrays]
        E, (W1, b1, W2, b2) = generic[0], generic[1:]
        ea, eb = ad.gather(E, layout.social_a), ad.gather(E, layout.social_b)
        h = ad.tanh(ad.concat([ea, eb, ea * eb], axis=1) @ W1 + b1)
        chain = ad.sigmoid(h @ W2 + b2)
        (chain * w[:, None]).sum().backward()

        block = graph.PAIR_BLOCK
        assert [(lo, hi) for lo, hi, *_ in layout.pair_blocks()] == [
            (lo, min(lo + block, len(social))) for lo in range(0, len(social), block)]
        np.testing.assert_allclose(out.data, chain.data[:, 0], rtol=1e-14, atol=0)
        for k, (x, f, g) in enumerate(zip(arrays, fused, generic)):
            np.testing.assert_allclose(f.grad, central_diff(loss, x), rtol=1e-6,
                                       atol=1e-9, err_msg=f"parent {k}")
            np.testing.assert_allclose(f.grad, g.grad, rtol=1e-12, atol=1e-15,
                                       err_msg=f"parent {k}")
        np.testing.assert_array_equal(fused[0].grad[users:], 0.0)

    def test_all_parents(self):
        self.check_all_parents(4, CYCLE)

    @pytest.mark.parametrize("block", [1, 2, 3, 64, graph.PAIR_BLOCK])
    @pytest.mark.parametrize("name,users,social", [
        ("cycle", 4, CYCLE), ("straddle", 6, STRADDLE_PAIRS), ("no_social", 3, [])],
        ids=["cycle", "straddle", "no_social"])
    def test_all_parents_across_pair_blocks(self, monkeypatch, name, users, social,
                                            block):
        monkeypatch.setattr(graph, "PAIR_BLOCK", block)
        self.check_all_parents(users, social)


    def test_forward_keeps_no_hidden_layer(self):
        # many pairs on few nodes: every pair of 120 users, d = 32.  The
        # hidden layer H alone is pairs x d float64; between the forward and
        # the backward the op holds its output and two users x d products
        users, d = 120, 32
        social = list(combinations(range(users), 2))
        ds = Dataset(users, 1, train=[], test=[], social=social)
        layout = graph.layout_for(ds)
        rng = np.random.default_rng(8)
        E = ad.Tensor(rng.standard_normal((ds.node_count, d)), requires_grad=True)
        head = [ad.Tensor(p, requires_grad=True) for p in (
            rng.standard_normal((3 * d, d)), rng.standard_normal(d),
            rng.standard_normal((d, 1)), rng.standard_normal(1))]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = confidences(E, head, layout)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        out.sum().backward()
        assert E.grad is not None
        assert held < len(social) * d * 8, held / (len(social) * d * 8)


class TestParams:
    def test_init_shapes_and_scale(self):
        p = DenoiserParams.init(16, np.random.default_rng(0), scale=0.01)
        assert p.layer1_weight.shape == (48, 16)
        assert p.layer1_bias.shape == (16,)
        assert p.layer2_weight.shape == (16, 1)
        assert p.layer2_bias.shape == (1,)
        assert np.all(p.layer1_bias == 0.0) and np.all(p.layer2_bias == 0.0)
        assert abs(p.layer1_weight.std() - 0.01) < 0.002
        assert p.dim == 16

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            DenoiserParams(np.zeros((11, 4)), np.zeros(4), np.zeros((4, 1)),
                           np.zeros(1))
        with pytest.raises(ConfigError):
            DenoiserParams(np.zeros((12, 4)), np.zeros(4), np.zeros((5, 1)),
                           np.zeros(1))

    def test_temperature_positive(self):
        # an infinite temperature relaxes every pair to 0.5 + epsilon
        for t in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match=r"temperature must be a number in \(0, inf\)"):
                DenoiserParams(np.zeros((12, 4)), np.zeros(4), np.zeros((4, 1)),
                               np.zeros(1), temperature=t)

    def test_observation_bias_range(self):
        with pytest.raises(ConfigError):
            DenoiserParams(np.zeros((12, 4)), np.zeros(4), np.zeros((4, 1)),
                           np.zeros(1), observation_bias=1.5)

    def test_non_finite_rejected(self):
        w = np.zeros((12, 4))
        w[0, 0] = np.nan
        with pytest.raises(ConfigError):
            DenoiserParams(w, np.zeros(4), np.zeros((4, 1)), np.zeros(1))


class TestRelaxation:
    def test_monotone_in_confidence(self):
        w = np.linspace(0.0, 1.0, 51)
        r = relax(w, 0.3, 0.2)
        assert (np.diff(r) > 0).all()

    def test_monotone_in_noise(self):
        d = np.linspace(0.01, 0.99, 51)
        r = relax(0.7, d, 0.2)
        assert (np.diff(r) > 0).all()

    def test_high_confidence_zero_bias(self):
        # w = 1, delta = 0.5: logit(0.5) = 0, so the relaxed weight is
        # expit(clamped(1)/0.2) = expit(5) up to the 1e-6 clamp
        r = float(relax(1.0, 0.5, 0.2))
        assert r == pytest.approx(0.9933071490757153, abs=1e-6)

    def test_low_confidence_stays_near_half(self):
        r = float(relax(0.0, 0.5, 0.2))
        assert r == pytest.approx(0.5, abs=1e-4)
        assert r > 0.5  # clamp keeps the logit strictly positive

    def test_temperature_sharpens(self):
        soft = float(relax(0.9, 0.5, 1.0))
        sharp = float(relax(0.9, 0.5, 0.05))
        assert sharp > soft

    def test_extreme_noise_saturates(self):
        assert float(relax(0.5, 1e-300, 0.2)) < 1e-10
        assert float(relax(0.5, 1.0, 0.2)) > 1.0 - 1e-10

    def test_bad_temperature(self):
        for t in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match=r"temperature must be a number in \(0, inf\)"):
                relax(0.5, 0.5, t)

    def test_mean_over_noise_matches_quadrature(self):
        # MC average over uniform delta against an adaptive quadrature oracle
        for w, t in [(0.2, 0.2), (0.8, 0.2), (0.5, 1.0)]:
            wc = np.clip(w, CONFIDENCE_CLAMP, 1.0 - CONFIDENCE_CLAMP)
            want, err = quad(
                lambda d: expit((np.log(d / (1.0 - d)) + wc) / t), 0.0, 1.0)
            assert err < 1e-6
            rng = np.random.default_rng(17)
            got = float(np.mean(relax(w, rng.uniform(size=200_000), t)))
            assert got == pytest.approx(want, abs=5e-3)

    def test_relaxed_bounds_any_draw(self):
        rng = np.random.default_rng(9)
        w = ad.constant(rng.uniform(size=50))
        for _ in range(20):
            rho = relax_sample(w, rng.uniform(size=50), 0.2, 0.3).data
            assert (rho >= 0.0).all() and (rho <= 1.0).all()

    def test_floor_clamp_gradient(self):
        # where relax + epsilon > 1 the clamp passes no gradient; below 1 the
        # gradient is the unclamped chain's, d relax / dw = relax (1 - relax) / t
        rng = np.random.default_rng(4)
        w0, delta = rng.uniform(0.05, 0.95, 40), rng.uniform(0.05, 0.95, 40)
        t, eps = 0.2, 0.3
        w = ad.Tensor(w0, requires_grad=True)
        relax_sample(w, delta, t, eps).sum().backward()
        free = ad.Tensor(w0, requires_grad=True)
        relax_sample(free, delta, t, 0.0).sum().backward()
        r = relax(w0, delta, t)
        clamped = r + eps > 1.0
        assert clamped.any() and (~clamped).any()
        np.testing.assert_array_equal(w.grad[clamped], 0.0)
        np.testing.assert_array_equal(w.grad[~clamped], free.grad[~clamped])
        np.testing.assert_allclose(free.grad, r * (1.0 - r) / t, rtol=1e-13)


class TestDenoise:
    def _setup(self, epsilon, seed=0):
        ds = Dataset(3, 3, train=[(0, 0), (1, 1), (2, 2)], test=[],
                     social=[(0, 1), (0, 2), (1, 2)])
        params = DenoiserParams.init(4, np.random.default_rng(seed), scale=0.5,
                                     observation_bias=epsilon)
        emb = np.random.default_rng(seed + 1).standard_normal((3, 4))
        return ds, params, emb

    def test_deterministic_composition(self):
        ds, params, emb = self._setup(epsilon=0.1)
        cmap = denoise(params, emb, ds)
        w = pair_confidences(params, emb[ds.social_pairs[:, 0]],
                             emb[ds.social_pairs[:, 1]])
        rho = np.minimum(relax(w, 0.5, params.temperature) + 0.1, 1.0)
        np.testing.assert_array_equal(cmap.confidence, w)
        np.testing.assert_array_equal(cmap.relaxed, rho)

    def test_unknown_mode(self):
        ds, params, emb = self._setup(epsilon=0.0)
        for mode in ("mean", "stochastic"):
            with pytest.raises(ConfigError, match="mode"):
                denoise(params, emb, ds, mode=mode)

    def test_half_bias_saturates_deterministic(self):
        # with observation floor 0.5 the deterministic relaxed weight is
        # exactly 1 for every edge: relax(w, 0.5) > 0.5 whenever w > 0
        for seed in range(5):
            ds, params, emb = self._setup(epsilon=0.5, seed=seed)
            cmap = denoise(params, emb, ds)
            assert (cmap.relaxed == 1.0).all()


class TestMap:
    def test_misaligned_arrays(self):
        with pytest.raises(DataError):
            EdgeConfidenceMap(np.array([[0, 2]]), np.array([0.3, 0.4]),
                              np.array([0.4]))

    def test_relaxed_bounds_checked(self):
        with pytest.raises(DataError):
            EdgeConfidenceMap(np.array([[0, 2]]), np.array([0.3]),
                              np.array([1.4]))


    def test_non_finite_relaxed_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="relaxed"):
                EdgeConfidenceMap(np.array([[0, 2], [1, 2]]), np.array([0.3, 0.4]),
                                  np.array([0.5, bad]))


class TestCsv:
    def test_header_and_exact_round_trip(self):
        cmap = EdgeConfidenceMap(np.array([[0, 1], [2, 5]]),
                                 np.array([1 / 3, 0.125]),
                                 np.array([2 / 3, 1.0]))
        text = confidence_csv(cmap)
        lines = text.strip().split("\n")
        assert lines[0] == "user_a,user_b,confidence,relaxed_weight"
        a, b, w, rho = lines[1].split(",")
        assert (int(a), int(b)) == (0, 1)
        # repr round-trips doubles bit for bit
        assert float(w) == 1 / 3 and float(rho) == 2 / 3
        assert lines[-1] == (f"# edges=2 mean_confidence={(1 / 3 + 0.125) / 2!r} "
                             f"min=0.125 max={1 / 3!r}")
        assert len(lines) == 4 and text.endswith("\n")

    def test_empty_map_trailer(self):
        cmap = EdgeConfidenceMap(np.empty((0, 2)), np.empty(0), np.empty(0))
        assert confidence_csv(cmap) == "user_a,user_b,confidence,relaxed_weight\n# edges=0\n"
