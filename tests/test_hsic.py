"""Kernel dependence estimator checked against its definitional trace form,
and the bottleneck op against central differences and the generic tape
chain it replaces."""

import math

import numpy as np
import pytest

from conftest import central_diff

from gbsr import autodiff as ad
from gbsr import hsic
from gbsr.errors import ConfigError, DataError
from gbsr.hsic import hsic_estimate, rbf_kernel


def normalize_rows(X):
    return hsic._normalize_rows(X)[0]


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
        runs = []
        for users in (np.array([0, 2, 5]), np.array([5, 0, 2, 2, 0, 5])):
            Xt = ad.Tensor(X, requires_grad=True)
            Yt = ad.Tensor(Y, requires_grad=True)
            out = hsic.bottleneck(Xt, Yt, users, 1.0)
            out.backward()
            runs.append((float(out.data), Xt.grad, Yt.grad))
        (a, gxa, gya), (b, gxb, gyb) = runs
        assert a == b
        np.testing.assert_array_equal(gxa, gxb)
        np.testing.assert_array_equal(gya, gyb)

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


def chain_bottleneck(X, Y, batch_users, sigma_sq, normalize=True):
    """The bottleneck as a chain of generic tape ops, one node per step."""
    def unit_rows(Z):
        return Z * ((Z * Z).sum(axis=1, keepdims=True) + 1e-24) ** -0.5

    def kernel(Z):
        n = Z.shape[0]
        sq = (Z * Z).sum(axis=1, keepdims=True)
        d2 = ad.maximum(sq + sq.T - (Z @ Z.T) * 2.0, 0.0)
        d2 = d2 * (np.ones((n, n)) - np.eye(n))
        return ad.exp(-d2 / (2.0 * sigma_sq))

    def center(K):
        return K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()

    users = np.unique(batch_users)
    X, Y = ad.gather(X, users), ad.gather(Y, users)
    if normalize:
        X, Y = unit_rows(X), unit_rows(Y)
    n = users.size
    return (center(kernel(X)) * center(kernel(Y))).sum() / float((n - 1) ** 2)


def op_and_chain_gradients(X, Y, users, sigma_sq, normalize, y_grad=True):
    """(value, X grad, Y grad) of 1.7 * HSIC through the op, then the chain."""
    out = []
    for f in (hsic.bottleneck, chain_bottleneck):
        Xt = ad.Tensor(X, requires_grad=True)
        Yt = ad.Tensor(Y, requires_grad=y_grad)
        loss = f(Xt, Yt, users, sigma_sq, normalize) * 1.7
        loss.backward()
        out.append((float(loss.data), Xt.grad, Yt.grad))
    return out


def assert_blocks_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestBottleneckOp:
    @pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
    def test_central_differences(self, normalize):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((7, 3))
        Y = rng.standard_normal((7, 3))
        users = np.array([0, 2, 3, 5, 6])

        def loss():
            return bottleneck(X, Y, users, 0.9, normalize)

        Xt = ad.Tensor(X, requires_grad=True)
        Yt = ad.Tensor(Y, requires_grad=True)
        hsic.bottleneck(Xt, Yt, users, 0.9, normalize).backward()
        for got, arr in ((Xt.grad, X), (Yt.grad, Y)):
            want = central_diff(loss, arr)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)
            # rows outside the batch get exactly nothing
            np.testing.assert_array_equal(got[[1, 4]], 0.0)

    @pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
    def test_matches_generic_chain(self, normalize):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((60, 8)) * 2.0
        Y = rng.standard_normal((60, 8))
        users = rng.integers(0, 60, size=80)  # duplicated batch users
        (v, gx, gy), (cv, cgx, cgy) = op_and_chain_gradients(X, Y, users, 1.3, normalize)
        assert v == cv
        assert_blocks_close(gx, cgx)
        assert_blocks_close(gy, cgy)

    def test_clamped_distances_match_chain(self):
        # rows equal up to a last-bit perturbation: some squared distances
        # come out negative and are clamped, so their entries pass nothing
        rng = np.random.default_rng(23)
        base = rng.standard_normal((1, 6))
        X = base * (1.0 + rng.integers(-4, 5, size=(12, 1)) * 2.0 ** -52)
        X[6:] = rng.standard_normal((6, 6))
        Y = rng.standard_normal((12, 6))
        users = np.arange(12)
        Z = normalize_rows(X)
        sq = (Z * Z).sum(axis=1, keepdims=True)
        d2 = sq + sq.T - (Z @ Z.T) * 2.0
        np.fill_diagonal(d2, 0.0)
        assert (d2 < 0.0).any()
        (v, gx, gy), (cv, cgx, cgy) = op_and_chain_gradients(X, Y, users, 0.5, True)
        assert v == cv
        assert_blocks_close(gx, cgx)
        assert_blocks_close(gy, cgy)

    def test_constant_y_gets_no_gradient(self):
        # the detached original branch: Y is a constant of the tape
        rng = np.random.default_rng(24)
        X = rng.standard_normal((30, 5))
        Y = rng.standard_normal((30, 5))
        users = rng.integers(0, 30, size=25)
        (v, gx, gy), (cv, cgx, cgy) = op_and_chain_gradients(
            X, Y, users, 1.1, True, y_grad=False)
        assert gy is None and cgy is None
        assert v == cv
        assert_blocks_close(gx, cgx)

    def test_same_tensor_on_both_sides(self):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((10, 4))
        users = np.arange(10)
        grads = []
        for f in (hsic.bottleneck, chain_bottleneck):
            Xt = ad.Tensor(X, requires_grad=True)
            f(Xt, Xt, users, 0.8, True).backward()
            grads.append(Xt.grad)
        assert_blocks_close(*grads)
