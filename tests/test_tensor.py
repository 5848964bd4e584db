"""Tensor engine tests: forward values, error contracts, gradient checks."""

import math
import zlib

import numpy as np
import pytest

from syngcn.tensor import (
    GraphError,
    ShapeError,
    Tensor,
    add,
    backward,
    concat,
    concat_rows,
    gather_rows,
    matmul,
    mul,
    pad_rows,
    relu,
    reshape,
    slice_rows,
    softmax,
    softmax_cross_entropy,
    sum_all,
    transpose,
)

from helpers import check_gradients, finite_difference, max_rel_err, rand_tensor
from reference_lstm import sigmoid, tanh


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_allclose(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_dot_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = rand_tensor(rng, (4, 3))
        b = rand_tensor(rng, (3, 5))
        c = Tensor(rng.uniform(-1.0, 1.0, size=(4, 5)))  # fixed cotangent

        err = check_gradients(lambda: sum_all(mul(matmul(a, b), c)), [a, b])
        assert err < 1e-6


class TestElementwise:
    def test_relu_definition(self):
        np.testing.assert_allclose(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_relu_backward_gates(self):
        x = Tensor([-2.0, 3.0, -0.5, 1.0], requires_grad=True)
        backward(sum_all(relu(x)))
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0, 1.0])

    def test_scalar_broadcast(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        backward(sum_all(mul(x, 3.0)))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 3.0))
        np.testing.assert_allclose(add(2.0, Tensor([1.0, 2.0])).data, [3.0, 4.0])

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestConcat:
    def test_one_dimensional(self):
        np.testing.assert_allclose(concat(Tensor([1.0, 2.0]), Tensor([3.0]), axis=0).data, [1.0, 2.0, 3.0])

    def test_shape_law_axis_one(self):
        out = concat(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3))), axis=1)
        assert out.shape == (2, 6)

    def test_gradient_splits_to_both_inputs(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        backward(sum_all(concat(a, b, axis=1)))
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_mismatched_off_axis_dims_rejected(self):
        with pytest.raises(ShapeError):
            concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), axis=1)
        with pytest.raises(ShapeError):
            concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), axis=2)

    def test_concat_rows_stacks_and_splits(self):
        blocks = [Tensor(np.full((n, 2), float(n)), requires_grad=True) for n in (1, 3, 2)]
        out = concat_rows(blocks)
        assert out.shape == (6, 2)
        backward(sum_all(mul(out, 2.0)))
        for block in blocks:
            np.testing.assert_allclose(block.grad, np.full(block.shape, 2.0))


class TestSoftmaxCrossEntropy:
    def test_uniform_two_logits(self):
        assert softmax_cross_entropy(Tensor([0.0, 0.0]), 0).item() == pytest.approx(math.log(2.0))

    def test_large_logit_no_overflow(self):
        loss = softmax_cross_entropy(Tensor([1000.0, 0.0]), 0)
        assert math.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor([0.0, 0.0]), 2)
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor([0.0, 0.0]), -1)

    def test_backward_is_softmax_minus_onehot(self):
        logits = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        backward(softmax_cross_entropy(logits, 1))
        expected = softmax(logits.data).copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            logits = rand_tensor(rng, (7,), low=-3.0, high=3.0)
            label = int(rng.integers(7))
            worst = max(worst, check_gradients(lambda: softmax_cross_entropy(logits, label), [logits]))
        assert worst < 1e-5

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        z = rng.uniform(-50.0, 50.0, size=(40, 7))
        z[0, 0] = 1e4  # extreme logit must not overflow
        p = softmax(z)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(40), atol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(sum_all(w))
        np.testing.assert_allclose(w.grad, np.ones((2, 3)))

    def test_square_gives_two_w(self):
        w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(sum_all(mul(w, w)))
        np.testing.assert_allclose(w.grad, [2.0, -4.0, 6.0])

    def test_fan_out_accumulates(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        backward(sum_all(add(w, w)))
        np.testing.assert_allclose(w.grad, [2.0, 2.0])

    def test_k_uses_accumulate_k_contributions(self):
        for k in (3, 5, 8):
            w = Tensor([1.5, -0.5], requires_grad=True)
            total = w
            for _ in range(k - 1):
                total = add(total, w)
            backward(sum_all(total))
            np.testing.assert_allclose(w.grad, [float(k), float(k)])

    def test_non_scalar_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            backward(add(w, w))

    def test_detached_loss_rejected(self):
        with pytest.raises(GraphError):
            backward(sum_all(Tensor([1.0, 2.0])))

    def test_double_backward_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = sum_all(mul(w, w))
        backward(loss)
        with pytest.raises(GraphError):
            backward(loss)

    def test_backward_through_shared_subgraph_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        z = mul(w, w)
        backward(sum_all(z))
        with pytest.raises(GraphError):
            backward(sum_all(z))  # new root, same interior node

    def test_fresh_graphs_accumulate_into_leaves(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        backward(sum_all(mul(w, w)))
        backward(sum_all(mul(w, w)))
        np.testing.assert_allclose(w.grad, [4.0, 8.0])

    def test_grad_shape_matches_data(self):
        w = Tensor(np.zeros((3, 4)), requires_grad=True)
        backward(sum_all(matmul(w, Tensor(np.ones((4, 2))))))
        assert w.grad.shape == w.data.shape

    def test_constants_stay_gradless(self):
        w = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        backward(sum_all(mul(w, c)))
        assert c.grad is None


def _safe_relu_input(rng, shape):
    # Keep samples away from the kink so finite differences stay valid.
    x = rng.uniform(-1.0, 1.0, size=shape)
    x[np.abs(x) < 1e-3] += 0.5
    return Tensor(x, requires_grad=True)


def _op_cases():
    """(name, tolerance, builder) for each differentiable op.

    Each builder returns (loss_fn, params); losses contract the op output
    against a fixed random cotangent so every element's gradient differs.
    """

    def with_cotangent(rng, out_shape, fn, params):
        c = Tensor(rng.uniform(-1.0, 1.0, size=out_shape))
        return (lambda: sum_all(mul(fn(), c))), params

    def case_matmul(rng):
        a, b = rand_tensor(rng, (4, 3)), rand_tensor(rng, (3, 5))
        return with_cotangent(rng, (4, 5), lambda: matmul(a, b), [a, b])

    def case_add(rng):
        a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (3, 4))
        return with_cotangent(rng, (3, 4), lambda: add(a, b), [a, b])

    def case_add_scalar(rng):
        a, s = rand_tensor(rng, (3, 4)), rand_tensor(rng, ())
        return with_cotangent(rng, (3, 4), lambda: add(a, s), [a, s])

    def case_mul(rng):
        a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (3, 4))
        return with_cotangent(rng, (3, 4), lambda: mul(a, b), [a, b])

    def case_mul_scalar(rng):
        a, s = rand_tensor(rng, (3, 4)), rand_tensor(rng, ())
        return with_cotangent(rng, (3, 4), lambda: mul(s, a), [a, s])

    def case_relu(rng):
        x = _safe_relu_input(rng, (4, 3))
        return with_cotangent(rng, (4, 3), lambda: relu(x), [x])

    # sigmoid and tanh are the reference LSTM's own tape ops; the
    # oracle for LstmCell.run is only as good as their gradients.
    def case_sigmoid(rng):
        x = rand_tensor(rng, (4, 3), low=-3.0, high=3.0)
        return with_cotangent(rng, (4, 3), lambda: sigmoid(x), [x])

    def case_tanh(rng):
        x = rand_tensor(rng, (4, 3), low=-3.0, high=3.0)
        return with_cotangent(rng, (4, 3), lambda: tanh(x), [x])

    def case_concat_axis0(rng):
        a, b = rand_tensor(rng, (2, 3)), rand_tensor(rng, (4, 3))
        return with_cotangent(rng, (6, 3), lambda: concat(a, b, axis=0), [a, b])

    def case_concat_axis1(rng):
        a, b = rand_tensor(rng, (2, 3)), rand_tensor(rng, (2, 2))
        return with_cotangent(rng, (2, 5), lambda: concat(a, b, axis=1), [a, b])

    def case_concat_rows(rng):
        blocks = [rand_tensor(rng, (n, 3)) for n in (1, 2, 3)]
        return with_cotangent(rng, (6, 3), lambda: concat_rows(blocks), blocks)

    def case_slice_rows(rng):
        a = rand_tensor(rng, (6, 3))
        return with_cotangent(rng, (3, 3), lambda: slice_rows(a, 1, 4), [a])

    def case_pad_rows(rng):
        a = rand_tensor(rng, (3, 4))
        return with_cotangent(rng, (6, 4), lambda: pad_rows(a, 6), [a])

    def case_gather_rows(rng):
        table = rand_tensor(rng, (5, 3))
        idx = rng.integers(0, 5, size=7)  # repeats exercise scatter-add
        return with_cotangent(rng, (7, 3), lambda: gather_rows(table, idx), [table])

    def case_transpose(rng):
        a = rand_tensor(rng, (3, 5))
        return with_cotangent(rng, (5, 3), lambda: transpose(a), [a])

    def case_reshape(rng):
        a = rand_tensor(rng, (3, 4))
        return with_cotangent(rng, (2, 6), lambda: reshape(a, (2, 6)), [a])

    def case_cross_entropy(rng):
        logits = rand_tensor(rng, (7,), low=-3.0, high=3.0)
        label = int(rng.integers(7))
        return (lambda: softmax_cross_entropy(logits, label)), [logits]

    return [
        ("matmul", 1e-6, case_matmul),
        ("add", 1e-4, case_add),
        ("add_scalar", 1e-4, case_add_scalar),
        ("mul", 1e-4, case_mul),
        ("mul_scalar", 1e-4, case_mul_scalar),
        ("relu", 1e-4, case_relu),
        ("sigmoid", 1e-4, case_sigmoid),
        ("tanh", 1e-6, case_tanh),
        ("concat_axis0", 1e-4, case_concat_axis0),
        ("concat_axis1", 1e-4, case_concat_axis1),
        ("concat_rows", 1e-4, case_concat_rows),
        ("slice_rows", 1e-4, case_slice_rows),
        ("pad_rows", 1e-4, case_pad_rows),
        ("gather_rows", 1e-4, case_gather_rows),
        ("transpose", 1e-4, case_transpose),
        ("reshape", 1e-4, case_reshape),
        ("softmax_cross_entropy", 1e-5, case_cross_entropy),
    ]


@pytest.mark.parametrize("name,tol,builder", _op_cases(), ids=[c[0] for c in _op_cases()])
def test_gradient_property(name, tol, builder):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for _ in range(100):
        build, params = builder(rng)
        worst = max(worst, check_gradients(build, params))
    assert worst < tol, f"{name}: worst rel err {worst:.3e}"


def test_finite_difference_helper_self_check():
    # d/dx of x^2 at 3 is 6; sanity-check the oracle itself.
    x = Tensor([3.0], requires_grad=True)
    (num,) = finite_difference(lambda: float(x.data[0] ** 2), [x])
    np.testing.assert_allclose(num, [6.0], rtol=1e-8)
    assert max_rel_err([6.0], num) < 1e-8


def test_shape_data_invariant():
    rng = np.random.default_rng(3)
    for shape in ((2, 3), (1, 7), (5,), ()):
        t = rand_tensor(rng, shape)
        assert int(np.prod(t.shape)) == t.size
