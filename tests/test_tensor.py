"""Unit tests for the reverse-mode autodiff tensor."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad


def numeric_gradient(function, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of an array."""

    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gradient_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(array)
        flat[index] = original - epsilon
        lower = function(array)
        flat[index] = original
        gradient_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


class TestTensorBasics:
    def test_construction_from_list(self):
        tensor = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 2)
        assert tensor.dtype == np.float64
        assert not tensor.requires_grad

    def test_construction_from_tensor_shares_semantics(self):
        source = Tensor([1.0, 2.0])
        copy = Tensor(source)
        assert np.allclose(copy.data, source.data)

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_len_and_size(self):
        tensor = Tensor(np.zeros((4, 5)))
        assert len(tensor) == 4
        assert tensor.size == 20
        assert tensor.ndim == 2

    def test_detach_and_copy(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        detached = tensor.detach()
        assert not detached.requires_grad
        cloned = tensor.copy()
        cloned.data[0] = 99.0
        assert tensor.data[0] == 1.0

    def test_zero_grad(self):
        tensor = Tensor([2.0], requires_grad=True)
        (tensor * tensor).sum().backward()
        assert tensor.grad is not None
        tensor.zero_grad()
        assert tensor.grad is None

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(2).data.sum() == 2.0
        assert Tensor.randn(3, 2, rng=np.random.default_rng(0)).shape == (3, 2)

    def test_backward_requires_scalar(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (tensor * 2).backward()

    def test_backward_requires_grad(self):
        tensor = Tensor([1.0])
        with pytest.raises(RuntimeError):
            tensor.backward()


class TestArithmeticGradients:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3.0, 4.0])
        assert np.allclose(b.grad, [1.0, 2.0])

    def test_sub_and_neg_backward(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).sum().backward()
        assert np.allclose(a.grad, [1.0])
        assert np.allclose(b.grad, [-1.0])
        c = Tensor([3.0], requires_grad=True)
        (-c).sum().backward()
        assert np.allclose(c.grad, [-1.0])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.5])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).sum().backward()
        assert np.allclose(a.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_radd_rsub_rmul_rdiv(self):
        a = Tensor([2.0])
        assert np.allclose((1.0 + a).data, [3.0])
        assert np.allclose((5.0 - a).data, [3.0])
        assert np.allclose((3.0 * a).data, [6.0])
        assert np.allclose((8.0 / a).data, [4.0])

    def test_matmul_backward(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 2)) @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ np.ones((2, 2)))

    def test_broadcast_add_unbroadcasts_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_broadcast_mul_with_keepdims_axis(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        b = Tensor(np.full((2, 1, 4), 2.0), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert b.grad.shape == (2, 1, 4)
        assert np.allclose(b.grad, 3.0)


class TestNonlinearityGradients:
    @pytest.mark.parametrize(
        "method",
        ["exp", "log", "sqrt", "abs", "relu", "tanh", "sigmoid"],
    )
    def test_elementwise_gradients_match_numeric(self, method):
        rng = np.random.default_rng(0)
        data = rng.uniform(0.2, 2.0, size=(3, 4))

        tensor = Tensor(data.copy(), requires_grad=True)
        getattr(tensor, method)().sum().backward()

        def scalar(array):
            return float(getattr(Tensor(array), method)().sum().item())

        expected = numeric_gradient(scalar, data.copy())
        assert np.allclose(tensor.grad, expected, atol=1e-4)

    def test_relu_zero_below(self):
        tensor = Tensor([-1.0, 2.0], requires_grad=True)
        tensor.relu().sum().backward()
        assert np.allclose(tensor.grad, [0.0, 1.0])

    def test_clip_gradient_mask(self):
        tensor = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        tensor.clip(0.0, 1.0).sum().backward()
        assert np.allclose(tensor.grad, [0.0, 1.0, 0.0])
        assert np.allclose(tensor.clip(0.0, 1.0).data, [0.0, 0.5, 1.0])

    def test_maximum_and_minimum(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        a.maximum(b).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0])
        assert np.allclose(b.grad, [1.0, 0.0])
        c = Tensor([1.0, 5.0], requires_grad=True)
        d = Tensor([3.0, 2.0], requires_grad=True)
        c.minimum(d).sum().backward()
        assert np.allclose(c.grad, [1.0, 0.0])
        assert np.allclose(d.grad, [0.0, 1.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        tensor = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        result = tensor.sum(axis=1, keepdims=True)
        assert result.shape == (2, 1)
        result.sum().backward()
        assert np.allclose(tensor.grad, 1.0)

    def test_sum_over_multiple_axes(self):
        tensor = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        result = tensor.sum(axis=(0, 2))
        assert result.shape == (3,)
        assert np.allclose(result.data, 8.0)
        result.sum().backward()
        assert np.allclose(tensor.grad, 1.0)

    def test_mean_gradient(self):
        tensor = Tensor(np.ones((4, 5)), requires_grad=True)
        tensor.mean().backward()
        assert np.allclose(tensor.grad, 1.0 / 20)

    def test_mean_axis(self):
        tensor = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.allclose(tensor.mean(axis=0).data, [1.5, 2.5, 3.5])

    def test_max_global_and_axis(self):
        tensor = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
        tensor.max().backward()
        assert tensor.grad[0, 1] == 1.0
        assert tensor.grad.sum() == 1.0
        tensor2 = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
        result = tensor2.max(axis=1)
        assert np.allclose(result.data, [5.0, 3.0])
        result.sum().backward()
        assert np.allclose(tensor2.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_norms(self):
        tensor = Tensor([3.0, -4.0])
        assert tensor.norm(2.0).item() == pytest.approx(5.0)
        assert tensor.norm(1.0).item() == pytest.approx(7.0)
        assert tensor.norm(np.inf).item() == pytest.approx(4.0)
        assert tensor.norm(3.0).item() == pytest.approx((27 + 64) ** (1 / 3.0))


class TestShapeOps:
    def test_reshape_backward(self):
        tensor = Tensor(np.arange(6.0), requires_grad=True)
        tensor.reshape(2, 3).sum().backward()
        assert tensor.grad.shape == (6,)

    def test_reshape_accepts_tuple(self):
        tensor = Tensor(np.arange(6.0))
        assert tensor.reshape((3, 2)).shape == (3, 2)

    def test_transpose_roundtrip(self):
        tensor = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        transposed = tensor.transpose(2, 0, 1)
        assert transposed.shape == (4, 2, 3)
        transposed.sum().backward()
        assert tensor.grad.shape == (2, 3, 4)

    def test_default_transpose_reverses_axes(self):
        tensor = Tensor(np.zeros((2, 3, 4)))
        assert tensor.T.shape == (4, 3, 2)

    def test_flatten(self):
        assert Tensor(np.zeros((2, 3))).flatten().shape == (6,)

    def test_getitem_backward(self):
        tensor = Tensor(np.arange(10.0), requires_grad=True)
        tensor[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        assert np.allclose(tensor.grad, expected)

    def test_pad2d(self):
        tensor = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        padded = tensor.pad2d(1)
        assert padded.shape == (1, 1, 4, 4)
        assert padded.data.sum() == pytest.approx(4.0)
        padded.sum().backward()
        assert np.allclose(tensor.grad, 1.0)

    def test_pad2d_zero_is_identity(self):
        tensor = Tensor(np.ones((1, 1, 2, 2)))
        assert tensor.pad2d(0) is tensor

    def test_stack_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        stacked = Tensor.stack([a, b], axis=0)
        assert stacked.shape == (2, 2)
        stacked.sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_concatenate_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        joined = Tensor.concatenate([a, b], axis=0)
        assert joined.shape == (5, 2)
        (joined * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)


class TestGraphMechanics:
    def test_gradient_accumulates_over_reuse(self):
        tensor = Tensor([2.0], requires_grad=True)
        (tensor * tensor + tensor).sum().backward()
        # d/dx (x^2 + x) = 2x + 1 = 5
        assert np.allclose(tensor.grad, [5.0])

    def test_diamond_graph(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a + b).sum().backward()
        assert np.allclose(x.grad, [5.0])

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(500):
            y = y + 1.0
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])

    def test_no_grad_disables_graph(self):
        with no_grad():
            assert not is_grad_enabled()
            x = Tensor([1.0], requires_grad=True)
            y = x * 2.0
            assert not x.requires_grad
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_nested_restores(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_constant_branch_receives_no_gradient(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        (x * c).sum().backward()
        assert c.grad is None

    def test_graph_is_freed_without_the_cyclic_collector(self):
        # A node must not reference itself through its backward function:
        # graphs (im2col columns included) would then live until a cyclic
        # collection.  Tensor has __slots__, so watch the array instead.
        gc.disable()
        try:
            x = Tensor(np.ones((4, 4)), requires_grad=True)
            hidden = x * 2.0
            loss = (hidden * hidden).sum()
            loss.backward()
            watched = weakref.ref(hidden.data)
            del hidden, loss
            assert watched() is None
        finally:
            gc.enable()
