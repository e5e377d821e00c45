"""Kernel dependence estimator checked against its definitional trace form,
and the bottleneck op against central differences and the generic tape
chain it replaces."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import central_diff, inv_sqrt, transpose

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
        return Z * inv_sqrt((Z * Z).sum(axis=1, keepdims=True) + 1e-24)

    def kernel(Z):
        n = Z.shape[0]
        sq = (Z * Z).sum(axis=1, keepdims=True)
        d2 = ad.clip(sq + transpose(sq) - (Z @ transpose(Z)) * 2.0, 0.0, np.inf)
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
        assert abs(v - cv) <= 1e-13 * abs(cv)
        assert_blocks_close(gx, cgx)
        assert_blocks_close(gy, cgy)

    def test_clamped_distances_match_chain(self):
        # rows equal up to a last-bit perturbation: some squared distances
        # come out negative and are clamped, in the op and in the chain; the
        # rows of such a pair agree to the last bit, so its gradient term is
        # ~1e-16 of the block whether or not it is dropped
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
        assert abs(v - cv) <= 1e-13 * abs(cv)
        assert_blocks_close(gx, cgx)
        assert_blocks_close(gy, cgy)

    def test_clamped_distances_pass_the_exact_gradient(self):
        # rows about 1e-9 apart: their squared distances, ~1e-18, come out of
        # the op's augmented product below 0 for some pairs and are clamped,
        # while each pair's gradient term G_ij (x_i - x_j) is ~1e-9 of the
        # block; the reference takes distances and differences row by row,
        # without cancellation, so an op that dropped the clamped entries'
        # terms would miss it by far more than the tolerance
        rng = np.random.default_rng(26)
        X = rng.standard_normal((1, 6)) + rng.standard_normal((12, 6)) * 1e-9
        X[6:] = rng.standard_normal((6, 6))
        Y = rng.standard_normal((12, 6))
        n, sigma_sq = 12, 0.5
        Xn, Yn = normalize_rows(X), normalize_rows(Y)
        half = -0.5 * (Xn * Xn).sum(axis=1, keepdims=True)
        one = np.ones_like(half)
        exponent = (np.hstack([Xn, half, one]) / sigma_sq) @ np.hstack([Xn, one, half]).T
        np.fill_diagonal(exponent, 0.0)
        assert (exponent > 0.0).sum() >= 4

        H = np.eye(n) - 1.0 / n
        Kx, Ky = (np.exp(-((Z[:, None] - Z[None]) ** 2).sum(axis=2) / (2.0 * sigma_sq))
                  for Z in (Xn, Yn))
        D = (H @ Ky @ H) / (n - 1) ** 2 * Kx * (-1.0 / (2.0 * sigma_sq))
        np.fill_diagonal(D, 0.0)
        gXn = 2.0 * ((D + D.T)[:, :, None] * (Xn[:, None] - Xn[None])).sum(axis=1)
        r = 1.0 / np.sqrt((X * X).sum(axis=1, keepdims=True) + 1e-24)
        want = r * gXn - X * r ** 3 * (gXn * X).sum(axis=1, keepdims=True)

        Xt = ad.Tensor(X, requires_grad=True)
        hsic.bottleneck(Xt, ad.constant(Y), np.arange(n), sigma_sq, True).backward()
        assert_blocks_close(Xt.grad, want)

    def test_constant_y_gets_no_gradient(self):
        # the detached original branch: Y is a constant of the tape
        rng = np.random.default_rng(24)
        X = rng.standard_normal((30, 5))
        Y = rng.standard_normal((30, 5))
        users = rng.integers(0, 30, size=25)
        (v, gx, gy), (cv, cgx, cgy) = op_and_chain_gradients(
            X, Y, users, 1.1, True, y_grad=False)
        assert gy is None and cgy is None
        assert abs(v - cv) <= 1e-13 * abs(cv)
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


def dense_reference(X, Y, users, sigma_sq, normalize):
    """(value, X grad, Y grad) of HSIC with H materialized: the kernels are
    centered as H K H, and the squared-distance gradient is symmetrized
    instead of assuming a symmetric kernel."""
    users = np.unique(users)
    n = users.size
    H = np.eye(n) - 1.0 / n

    def kernel(Z):
        r = 1.0 / np.sqrt((Z * Z).sum(axis=1, keepdims=True) + 1e-24)
        Zn = Z * r if normalize else Z
        sq = (Zn * Zn).sum(axis=1, keepdims=True)
        d2 = sq + sq.T - 2.0 * (Zn @ Zn.T)
        np.fill_diagonal(d2, 0.0)
        assert (d2 + np.eye(n) > 0.0).all()  # nothing clamped at this input
        return Zn, r, np.exp(-d2 / (2.0 * sigma_sq))

    (Xn, rx, Kx), (Yn, ry, Ky) = kernel(X[users]), kernel(Y[users])
    Kxc, Kyc = H @ Kx @ H, H @ Ky @ H
    value = np.trace(Kx @ Kyc) / (n - 1) ** 2

    def grad(T, Zn, r, K, other_c):
        # d HSIC / d d2_ij, zero on the diagonal, where d2 is constant
        D = (other_c / (n - 1) ** 2) * K * (-1.0 / (2.0 * sigma_sq))
        np.fill_diagonal(D, 0.0)
        S = D + D.T
        gZn = 2.0 * (S.sum(axis=1, keepdims=True) * Zn - S @ Zn)
        Z = T[users]
        gZ = (r * gZn - Z * r ** 3 * (gZn * Z).sum(axis=1, keepdims=True)
              if normalize else gZn)
        full = np.zeros_like(T)
        full[users] = gZ
        return full

    return value, grad(X, Xn, rx, Kx, Kyc), grad(Y, Yn, ry, Ky, Kxc)


class TestBottleneckAtBenchSize:
    """The op at a training batch's size: ~1300 distinct users, d = 64."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((1400, 64)) * 0.125
        Y = rng.standard_normal((1400, 64)) * 0.125 + X
        perm = rng.permutation(1400)
        users = rng.permutation(np.concatenate([perm[:1300], perm[:300]]))
        return X, Y, users, {normalize: dense_reference(X, Y, users, 0.7, normalize)
                             for normalize in (True, False)}

    @pytest.mark.parametrize("y_grad", [True, False], ids=["y_grad", "y_constant"])
    @pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
    def test_matches_explicit_centering(self, case, normalize, y_grad):
        X, Y, users, refs = case
        want, want_gx, want_gy = refs[normalize]
        Xt = ad.Tensor(X, requires_grad=True)
        Yt = ad.Tensor(Y, requires_grad=y_grad)
        out = hsic.bottleneck(Xt, Yt, users, 0.7, normalize)
        out.backward()
        assert abs(float(out.data) - want) <= 1e-12 * abs(want)
        assert_blocks_close(Xt.grad, want_gx, rtol=1e-12)
        if y_grad:
            assert_blocks_close(Yt.grad, want_gy, rtol=1e-12)
        else:
            assert Yt.grad is None
        outside = np.setdiff1d(np.arange(1400), users)
        assert outside.size == 100
        np.testing.assert_array_equal(Xt.grad[outside], 0.0)


class TestBottleneckMemory:
    def test_no_n_by_n_temporaries(self):
        # one forward plus backward holds the two centered kernels, which
        # the backward overwrites with the routes' G, and one row chunk:
        # 2 units of n^2 float64 plus small arrays (2.31 measured); one more
        # n x n temporary alive at the peak fails, and kernels built with
        # separate Gram, distance and centered arrays peaked at 5.19
        n = 400
        rng = np.random.default_rng(31)
        Xt = ad.Tensor(rng.standard_normal((n, 8)), requires_grad=True)
        Yt = ad.Tensor(rng.standard_normal((n, 8)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            hsic.bottleneck(Xt, Yt, np.arange(n), 1.0).backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (n * n * 8) < 3.0

    @pytest.mark.parametrize("y_grad", [True, False], ids=["two_routes", "one_route"])
    def test_backward_makes_no_n_by_n_buffer(self, y_grad):
        # each route's G is written into its own kernel's buffer, a row
        # chunk at a time; a separate n x n gradient buffer alone is n^2
        # float64
        n = 600
        rng = np.random.default_rng(32)
        Xt = ad.Tensor(rng.standard_normal((n, 8)), requires_grad=True)
        Yt = ad.Tensor(rng.standard_normal((n, 8)), requires_grad=y_grad)
        out = hsic.bottleneck(Xt, Yt, np.arange(n), 1.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (Yt.grad is not None) == y_grad
        assert peak < n * n * 8, peak / (n * n * 8)
