"""Kernel dependence estimator checked against its definitional trace form."""

import math

import numpy as np
import pytest

from gbsr import autodiff as ad
from gbsr import hsic
from gbsr.errors import ConfigError, DataError
from gbsr.hsic import hsic_estimate, rbf_kernel


def normalize_rows(X):
    return hsic.normalize_rows(ad.constant(X)).data


def bottleneck(X, Y, users, sigma_sq, normalize=True):
    return float(hsic.bottleneck(ad.constant(X), ad.constant(Y), users,
                                 sigma_sq, normalize).data)


def trace_oracle(Kx, Ky):
    """(n-1)^-2 Tr(Kx H Ky H) with H materialized explicitly."""
    n = Kx.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    return np.trace(Kx @ H @ Ky @ H) / (n - 1) ** 2


class TestClosedForm:
    def test_two_point_value(self):
        # points {0, 1}, sigma^2 = 1/2: centered kernels are (1 - e^-1) H,
        # so the estimate is (1 - e^-1)^2 exactly
        X = np.array([[0.0], [1.0]])
        got = hsic_estimate(rbf_kernel(X, 0.5), rbf_kernel(X, 0.5))
        assert got == pytest.approx((1.0 - math.exp(-1.0)) ** 2, abs=1e-15)

    def test_constant_features_give_exact_zero(self):
        X = np.ones((6, 3))
        Y = np.random.default_rng(0).standard_normal((6, 3))
        assert hsic_estimate(rbf_kernel(X, 1.0), rbf_kernel(Y, 1.0)) == 0.0
        assert hsic_estimate(rbf_kernel(Y, 1.0), rbf_kernel(X, 1.0)) == 0.0


class TestAgainstTraceForm:
    def test_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 257))
            d = int(rng.integers(1, 9))
            Kx = rbf_kernel(rng.standard_normal((n, d)), float(rng.uniform(0.2, 3.0)))
            Ky = rbf_kernel(rng.standard_normal((n, d)), float(rng.uniform(0.2, 3.0)))
            got = hsic_estimate(Kx, Ky)
            assert abs(got - trace_oracle(Kx, Ky)) < 1e-10


class TestProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(2)
        Kx = rbf_kernel(rng.standard_normal((20, 4)), 1.0)
        Ky = rbf_kernel(rng.standard_normal((20, 4)), 0.7)
        assert hsic_estimate(Kx, Ky) == hsic_estimate(Ky, Kx)

    def test_self_dependence_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            K = rbf_kernel(rng.standard_normal((15, 3)), 1.0)
            assert hsic_estimate(K, K) >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 5))
        Y = rng.standard_normal((30, 5))
        perm = rng.permutation(30)
        a = hsic_estimate(rbf_kernel(X, 1.0), rbf_kernel(Y, 1.0))
        b = hsic_estimate(rbf_kernel(X[perm], 1.0), rbf_kernel(Y[perm], 1.0))
        assert a == pytest.approx(b, abs=1e-12)

    def test_identical_inputs_strongly_dependent(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 3))
        Z = rng.standard_normal((40, 3))
        same = hsic_estimate(rbf_kernel(X, 1.0), rbf_kernel(X, 1.0))
        cross = hsic_estimate(rbf_kernel(X, 1.0), rbf_kernel(Z, 1.0))
        assert same > cross

    def test_plain_arrays_accepted(self):
        rng = np.random.default_rng(6)
        Kx = rbf_kernel(rng.standard_normal((8, 2)), 1.0)
        Ky = rbf_kernel(rng.standard_normal((8, 2)), 1.0)
        assert hsic_estimate(Kx.tolist(), Ky.tolist()) == hsic_estimate(Kx, Ky)


class TestKernel:
    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(7)
        K = rbf_kernel(rng.standard_normal((50, 6)) * 100.0, 0.3)
        assert (np.diag(K) == 1.0).all()

    def test_symmetric_positive_entries(self):
        rng = np.random.default_rng(8)
        K = rbf_kernel(rng.standard_normal((20, 4)), 1.0)
        np.testing.assert_allclose(K, K.T, rtol=0, atol=1e-15)
        assert (K > 0.0).all() and (K <= 1.0).all()

    def test_distance_scaling(self):
        # two points distance 2 apart: off-diagonal is exp(-4 / (2 sigma^2))
        X = np.array([[0.0], [2.0]])
        K = rbf_kernel(X, 2.0)
        assert K[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_input_validation(self):
        with pytest.raises(DataError):
            rbf_kernel(np.zeros((1, 3)), 1.0)
        with pytest.raises(DataError):
            rbf_kernel(np.zeros(5), 1.0)
        with pytest.raises(ConfigError):
            rbf_kernel(np.zeros((3, 2)), 0.0)


class TestEstimatorValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            hsic_estimate(np.eye(3), np.eye(4))

    def test_non_square(self):
        with pytest.raises(DataError):
            hsic_estimate(np.zeros((3, 4)), np.zeros((3, 4)))

    def test_too_small(self):
        with pytest.raises(DataError):
            hsic_estimate(np.ones((1, 1)), np.ones((1, 1)))


class TestNormalizeRows:
    def test_unit_norms(self):
        rng = np.random.default_rng(9)
        X = normalize_rows(rng.standard_normal((10, 4)) * 50.0)
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0,
                                   rtol=0, atol=1e-12)

    def test_zero_row_stays_zero(self):
        X = np.zeros((3, 4))
        X[1] = [3.0, 0.0, 4.0, 0.0]
        out = normalize_rows(X)
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_allclose(out[1], [0.6, 0.0, 0.8, 0.0],
                                   rtol=0, atol=1e-12)


class TestBottleneckLoss:
    def test_duplicates_collapse(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((6, 3))
        Y = rng.standard_normal((6, 3))
        a = bottleneck(X, Y, np.array([0, 2, 5]), 1.0)
        b = bottleneck(X, Y, np.array([5, 0, 2, 2, 0, 5]), 1.0)
        assert a == b

    def test_scale_invariant_when_normalized(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal((5, 3))
        u = np.arange(5)
        a = bottleneck(X, Y, u, 1.0, normalize=True)
        b = bottleneck(X * 1000.0, Y * 0.001, u, 1.0, normalize=True)
        assert a == pytest.approx(b, abs=1e-12)

    def test_normalize_switch_changes_value(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((5, 3)) * 3.0
        Y = rng.standard_normal((5, 3)) * 3.0
        u = np.arange(5)
        assert (bottleneck(X, Y, u, 1.0, normalize=True)
                != bottleneck(X, Y, u, 1.0, normalize=False))

    def test_matches_direct_composition(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((8, 4))
        Y = rng.standard_normal((8, 4))
        users = np.array([1, 3, 6])
        want = hsic_estimate(rbf_kernel(normalize_rows(X[users]), 0.8),
                             rbf_kernel(normalize_rows(Y[users]), 0.8))
        assert bottleneck(X, Y, users, 0.8) == want

    def test_needs_two_distinct_users(self):
        X = np.zeros((4, 2))
        with pytest.raises(DataError, match="distinct"):
            bottleneck(X, X, np.array([2, 2, 2]), 1.0)
