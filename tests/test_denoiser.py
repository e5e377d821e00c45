"""Edge-confidence head and relaxed Bernoulli reweighting."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from gbsr import autodiff as ad
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
    """Confidences of the stacked pairs (ea[k], eb[k]) on constants."""
    n = ea.shape[0]
    emb = ad.constant(np.concatenate([ea, eb]))
    return confidences(emb, head_of(params), np.arange(n), n + np.arange(n)).data


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
        with pytest.raises(ConfigError):
            DenoiserParams(np.zeros((12, 4)), np.zeros(4), np.zeros((4, 1)),
                           np.zeros(1), temperature=0.0)

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
        with pytest.raises(ConfigError):
            relax(0.5, 0.5, 0.0)

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
        cmap = denoise(params, emb, ds, mode="deterministic")
        w = pair_confidences(params, emb[ds.social_pairs[:, 0]],
                             emb[ds.social_pairs[:, 1]])
        rho = np.minimum(relax(w, 0.5, params.temperature) + 0.1, 1.0)
        np.testing.assert_array_equal(cmap.confidence, w)
        np.testing.assert_array_equal(cmap.relaxed, rho)

    def test_stochastic_draws_one_delta_per_edge(self):
        ds, params, emb = self._setup(epsilon=0.0)
        cmap = denoise(params, emb, ds, mode="stochastic",
                       rng=np.random.default_rng(5))
        delta = np.random.default_rng(5).uniform(size=3)
        want = np.minimum(relax(cmap.confidence, delta,
                                       params.temperature), 1.0)
        np.testing.assert_array_equal(cmap.relaxed, want)

    def test_stochastic_requires_rng(self):
        ds, params, emb = self._setup(epsilon=0.0)
        with pytest.raises(ConfigError, match="rng"):
            denoise(params, emb, ds, mode="stochastic")

    def test_unknown_mode(self):
        ds, params, emb = self._setup(epsilon=0.0)
        with pytest.raises(ConfigError, match="mode"):
            denoise(params, emb, ds, mode="mean")

    def test_half_bias_saturates_deterministic(self):
        # with observation floor 0.5 the deterministic relaxed weight is
        # exactly 1 for every edge: relax(w, 0.5) > 0.5 whenever w > 0
        for seed in range(5):
            ds, params, emb = self._setup(epsilon=0.5, seed=seed)
            cmap = denoise(params, emb, ds, mode="deterministic")
            assert (cmap.relaxed == 1.0).all()

    def test_relaxed_bounds_any_mode(self):
        ds, params, emb = self._setup(epsilon=0.3)
        rng = np.random.default_rng(9)
        for _ in range(20):
            cmap = denoise(params, emb, ds, mode="stochastic", rng=rng)
            assert (cmap.relaxed >= 0.0).all() and (cmap.relaxed <= 1.0).all()


class TestMap:
    def test_misaligned_arrays(self):
        with pytest.raises(DataError):
            EdgeConfidenceMap(np.array([[0, 2]]), np.array([0.3, 0.4]),
                              np.array([0.4]))

    def test_relaxed_bounds_checked(self):
        with pytest.raises(DataError):
            EdgeConfidenceMap(np.array([[0, 2]]), np.array([0.3]),
                              np.array([1.4]))


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
