"""Per-op gradient checks for the tape engine, each against central differences."""

import numpy as np
import pytest

from conftest import central_diff

from gbsr import autodiff as ad


def check_op(build, shapes, seed=0, rtol=1e-5, atol=1e-8, h=1e-6):
    """build(*tensors) must return a scalar tensor; checks every input's grad."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    assert out.data.ndim == 0
    out.backward()
    for k, arr in enumerate(arrays):
        def f():
            fresh = [ad.Tensor(a) for a in arrays]
            return float(build(*fresh).data)
        numeric = central_diff(f, arr, h=h)
        analytic = tensors[k].grad
        assert analytic is not None, f"input {k} got no gradient"
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol,
                                   err_msg=f"input {k}")


class TestArithmetic:
    def test_add_broadcast(self):
        check_op(lambda a, b: (a + b).sum(), [(3, 4), (4,)])

    def test_add_scalar_broadcast(self):
        check_op(lambda a, b: (a + b).sum(), [(3, 4), ()])

    def test_sub_broadcast(self):
        check_op(lambda a, b: (a - b).sum(), [(2, 5), (2, 1)])

    def test_mul_broadcast(self):
        check_op(lambda a, b: (a * b).sum(), [(3, 4), (3, 1)])

    def test_mul_by_ndarray_left(self):
        c = np.array([2.0, -1.0, 0.5])
        check_op(lambda a: (c * a).sum(), [(3,)])

    def test_neg(self):
        check_op(lambda a: (-a).sum(), [(3, 2)])

    def test_div_scalar(self):
        check_op(lambda a: (a / 3.7).sum(), [(4,)])

    def test_matmul(self):
        check_op(lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)])


class TestReductions:
    def test_sum_all(self):
        check_op(lambda a: a.sum(), [(3, 4)])

    def test_sum_axis0(self):
        w = np.array([1.0, -2.0, 0.5, 3.0])
        check_op(lambda a: (a.sum(axis=0) * w).sum(), [(3, 4)])

    def test_sum_axis_keepdims(self):
        check_op(lambda a: (a * a.sum(axis=1, keepdims=True)).sum(), [(3, 4)])

    def test_mean_all(self):
        check_op(lambda a: a.mean(), [(5,)])

    def test_mean_axis(self):
        check_op(lambda a: (a.mean(axis=0) * a.mean(axis=0)).sum(), [(4, 3)])


class TestNonlinearities:
    def test_sigmoid(self):
        check_op(lambda a: ad.sigmoid(a).sum(), [(7,)])

    def test_tanh(self):
        check_op(lambda a: ad.tanh(a).sum(), [(7,)])

    def test_exp(self):
        check_op(lambda a: ad.exp(a).sum(), [(7,)])

    def test_softplus(self):
        check_op(lambda a: ad.softplus(a).sum(), [(7,)])

    def test_softplus_large_inputs_finite(self):
        t = ad.Tensor(np.array([-500.0, 500.0]), requires_grad=True)
        out = ad.softplus(t).sum()
        out.backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(t.grad))

    def test_clip_interior(self):
        # inputs drawn N(0,1): clip at +-5 never binds, gradient passes
        check_op(lambda a: ad.clip(a, -5.0, 5.0).sum(), [(6,)])

    def test_clip_binding_zeroes_gradient(self):
        t = ad.Tensor(np.array([-3.0, 0.0, 3.0]), requires_grad=True)
        ad.clip(t, -1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])


class TestStructure:
    def test_gather(self):
        idx = np.array([2, 0, 2, 1])
        w = np.arange(1.0, 5.0)[:, None]
        check_op(lambda a: (ad.gather(a, idx) * w).sum(), [(3, 2)])

    def test_gather_repeated_rows_accumulate(self):
        t = ad.Tensor(np.zeros((2, 1)), requires_grad=True)
        ad.gather(t, np.array([0, 0, 0])).sum().backward()
        np.testing.assert_array_equal(t.grad, [[3.0], [0.0]])

    def test_gather_backward_bitwise_equals_add_at(self):
        # a batch's shape: many repeated rows whose gradients span magnitudes,
        # so a different summation order would show in the last bits
        rng = np.random.default_rng(7)
        index = rng.integers(0, 300, size=2048)
        g = rng.standard_normal((2048, 16)) * 10.0 ** rng.integers(-8, 8, size=(2048, 1))
        t = ad.Tensor(rng.standard_normal((300, 16)), requires_grad=True)
        out = ad.gather(t, index)
        (got,) = out._backward(g)
        want = np.zeros_like(t.data)
        np.add.at(want, index, g)
        assert np.bincount(index).max() > 10
        np.testing.assert_array_equal(got, want)

    def test_scatter_sum(self):
        idx = np.array([0, 2, 2, 1, 0])
        w = np.array([1.0, -1.0, 2.0])
        check_op(lambda a: (ad.scatter_sum(a, idx, 3) * w).sum(), [(5,)])

    def test_concat_axis0(self):
        w = np.arange(1.0, 8.0)
        check_op(lambda a, b: (ad.concat([a, b], axis=0) * w).sum(), [(3,), (4,)])

    def test_concat_axis1(self):
        w = np.arange(1.0, 11.0).reshape(2, 5)
        check_op(lambda a, b: (ad.concat([a, b], axis=1) * w).sum(),
                 [(2, 2), (2, 3)])

    def test_spmm_dense_and_values(self):
        rows = np.array([0, 1, 2, 2])
        cols = np.array([1, 0, 2, 0])
        w = np.arange(1.0, 7.0).reshape(3, 2)
        check_op(lambda v, e: ((ad.spmm(v, rows, cols, (3, 3), e)) * w).sum(),
                 [(4,), (3, 2)])

    def test_spmm_matches_dense_forward(self):
        rng = np.random.default_rng(5)
        rows = np.array([0, 0, 3, 2])
        cols = np.array([1, 2, 0, 3])
        vals = rng.normal(size=4)
        E = rng.normal(size=(4, 3))
        A = np.zeros((4, 4))
        A[rows, cols] = vals
        out = ad.spmm(ad.Tensor(vals), rows, cols, (4, 4), ad.Tensor(E))
        np.testing.assert_allclose(out.data, A @ E, atol=1e-14)


class TestAccumulation:
    """A node's first gradient is assigned and later ones are added out of
    place, so no gradient array is ever written through: values must match
    central differences, and no two leaves may end up holding one array."""

    @pytest.mark.parametrize("case", ["x_plus_x", "a_minus_a", "read_by_three",
                                      "add_hands_one_array_to_both"])
    def test_gradients_and_no_shared_buffers(self, case):
        w = np.array([[1.5, -2.0, 0.5], [0.25, 3.0, -1.0]])
        c = np.array([[2.0, -0.5, 1.0], [-3.0, 0.75, 0.5]])

        def build(a, b):
            if case == "x_plus_x":
                return ((a + a) * w).sum() + b.sum() * 0.0
            if case == "a_minus_a":
                return ((a - a) * w).sum() + ((a * c) * (b + 1.0)).sum()
            if case == "read_by_three":
                t = a * c
                return (t * w).sum() + ad.tanh(t).sum() + (t * b).sum()
            # `__add__` passes the same upstream array to both parents;
            # each parent then receives another gradient that must not
            # leak into the other
            return ((a + b) * w).sum() + (a * c).sum() + (b * b).sum()

        check_op(build, [(2, 3), (2, 3)], seed=4)
        rng = np.random.default_rng(4)
        leaves = [ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
                  for _ in range(2)]
        build(*leaves).backward()
        assert leaves[0].grad is not leaves[1].grad


class TestGraphMechanics:
    def test_reused_node_accumulates(self):
        # diamond: y = x*x + x, gradient 2x + 1
        t = ad.Tensor(np.array([3.0]), requires_grad=True)
        ((t * t) + t).sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_composite_expression(self):
        def build(a, b):
            h = ad.tanh(a @ b)
            s = ad.sigmoid(h.sum(axis=1))
            return (s * s).sum()
        check_op(build, [(4, 3), (3, 2)], seed=3)

    def test_constant_gets_no_gradient(self):
        c = ad.constant(np.ones(3))
        t = ad.Tensor(np.ones(3), requires_grad=True)
        (c * t).sum().backward()
        assert c.grad is None
        np.testing.assert_array_equal(t.grad, np.ones(3))

    def test_detach_blocks_flow(self):
        # a constant copy of a tensor's data is how a branch is held fixed
        t = ad.Tensor(np.array([2.0]), requires_grad=True)
        (ad.constant(t.data) * t).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0])  # not 2x = 4

    def test_backward_requires_scalar(self):
        t = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_tape_is_single_use(self):
        t = ad.Tensor(np.array([3.0]), requires_grad=True)
        y = t * t
        loss = y.sum()
        loss.backward()
        assert y._backward is None and loss._backward is None
        with pytest.raises(RuntimeError):
            loss.backward()
        # a new root over a spent node is refused before any gradient moves
        with pytest.raises(RuntimeError):
            (y + t).sum().backward()
        np.testing.assert_array_equal(t.grad, [6.0])

    # a backward returns one gradient per parent, in a tuple; the tape
    # refuses anything else rather than accumulate a wrong gradient

    @pytest.mark.parametrize("shape", [(3,), (1,), ()])
    def test_backward_returning_a_bare_array_raises(self, shape):
        # `return g * 2.0` where `return g * 2.0,` was meant; a (1,) array
        # has one entry and a 0-d one has no length, so a count check alone
        # would pass or fail with another error
        t = ad.Tensor(np.ones(shape), requires_grad=True)
        out = ad._make(t.data * 2.0, (t,), lambda g: g * 2.0)
        with pytest.raises(ValueError):
            out.sum().backward()

    def test_backward_returning_too_few_gradients_raises(self):
        a, b = (ad.Tensor(np.ones(3), requires_grad=True) for _ in range(2))
        out = ad._make(a.data + b.data, (a, b), lambda g: (g,))
        with pytest.raises(ValueError):
            out.sum().backward()

    def test_backward_returning_a_wrong_shape_raises(self):
        t = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        out = ad._make(t.data.sum(axis=0), (t,), lambda g: (g,))
        with pytest.raises(ValueError):
            out.sum().backward()

    def test_ndarray_left_op_defers_to_tensor(self):
        t = ad.Tensor(np.ones(3), requires_grad=True)
        out = np.array([1.0, 2.0, 3.0]) + t
        assert isinstance(out, ad.Tensor)
        out.sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones(3))

    def test_float64_everywhere(self):
        t = ad.Tensor(np.array([1, 2], dtype=np.int64))
        assert t.data.dtype == np.float64
