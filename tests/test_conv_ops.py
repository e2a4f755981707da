"""Unit tests for convolution and pooling primitives."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage, signal

from repro.nn.conv import avg_pool2d, col2im, conv2d, depthwise_conv2d, im2col, max_pool2d
from repro.nn.tensor import Tensor


def numeric_grad(loss_fn, array, epsilon=1e-6):
    gradient = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = loss_fn()
        flat[index] = original - epsilon
        lower = loss_fn()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


class TestIm2Col:
    def test_shapes(self):
        images = np.arange(2 * 3 * 6 * 6, dtype=np.float64).reshape(2, 3, 6, 6)
        cols, out_h, out_w = im2col(images, kernel=3, stride=1, pad=1)
        assert cols.shape == (2, 3, 3, 3, 6, 6)
        assert (out_h, out_w) == (6, 6)

    def test_stride_reduces_output(self):
        images = np.zeros((1, 1, 8, 8))
        _, out_h, out_w = im2col(images, kernel=2, stride=2, pad=0)
        assert (out_h, out_w) == (4, 4)

    def test_col2im_adjointness(self):
        # <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint property).
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 5, 5))
        cols, out_h, out_w = im2col(x, kernel=3, stride=1, pad=1)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kernel=3, stride=1, pad=1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConv2D:
    def test_matches_scipy_correlate(self):
        rng = np.random.default_rng(1)
        image = rng.standard_normal((1, 1, 7, 7))
        kernel = rng.standard_normal((1, 1, 3, 3))
        output = conv2d(Tensor(image), Tensor(kernel), padding=1).data[0, 0]
        expected = ndimage.correlate(image[0, 0], kernel[0, 0], mode="constant", cval=0.0)
        assert np.allclose(output, expected, atol=1e-10)

    def test_multichannel_output_sums_channels(self):
        rng = np.random.default_rng(2)
        image = rng.standard_normal((1, 3, 5, 5))
        kernel = rng.standard_normal((2, 3, 3, 3))
        output = conv2d(Tensor(image), Tensor(kernel), padding=0).data
        expected = np.zeros_like(output)
        for out_channel in range(2):
            acc = np.zeros((3, 3))
            for in_channel in range(3):
                acc += signal.correlate2d(
                    image[0, in_channel], kernel[out_channel, in_channel], mode="valid"
                )
            expected[0, out_channel] = acc
        assert np.allclose(output, expected, atol=1e-10)

    def test_bias_added_per_channel(self):
        image = np.zeros((1, 1, 4, 4))
        kernel = np.zeros((2, 1, 3, 3))
        bias = np.array([1.5, -2.0])
        output = conv2d(Tensor(image), Tensor(kernel), Tensor(bias), padding=1).data
        assert np.allclose(output[0, 0], 1.5)
        assert np.allclose(output[0, 1], -2.0)

    def test_stride_output_shape(self):
        image = np.zeros((1, 1, 8, 8))
        kernel = np.zeros((4, 1, 3, 3))
        output = conv2d(Tensor(image), Tensor(kernel), stride=2, padding=1)
        assert output.shape == (1, 4, 4, 4)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_rejects_non_square_kernel(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 2))))

    def test_weight_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        image = rng.standard_normal((2, 2, 5, 5))
        kernel = rng.standard_normal((3, 2, 3, 3)) * 0.3
        bias = rng.standard_normal(3) * 0.1

        weight_tensor = Tensor(kernel.copy(), requires_grad=True)
        bias_tensor = Tensor(bias.copy(), requires_grad=True)
        image_tensor = Tensor(image.copy(), requires_grad=True)
        output = conv2d(image_tensor, weight_tensor, bias_tensor, padding=1)
        (output * output).sum().backward()

        def loss():
            out = conv2d(Tensor(image), Tensor(kernel), Tensor(bias), padding=1)
            return float((out.data ** 2).sum())

        numeric_w = numeric_grad(loss, kernel)
        numeric_b = numeric_grad(loss, bias)
        numeric_x = numeric_grad(loss, image)
        assert np.allclose(weight_tensor.grad, numeric_w, atol=1e-4)
        assert np.allclose(bias_tensor.grad, numeric_b, atol=1e-4)
        assert np.allclose(image_tensor.grad, numeric_x, atol=1e-4)


#: Absolute and relative tolerance of the float64 depthwise reference checks.
DEPTHWISE_TOLERANCE = 1e-10

#: (kernel, padding) pairs: no padding and "same" padding, once each.
DEPTHWISE_GEOMETRIES = [(k, p) for k in (1, 3, 5, 7) for p in sorted({0, k // 2})]


def depthwise_reference(image, weight, bias, grad_output, stride, padding):
    """Per-tap loop reference for depthwise conv and its gradients.

    Returns ``(output, grad_input, grad_weight, grad_bias)`` for the loss
    ``sum(output * grad_output)``.
    """

    kernel = weight.shape[-1]
    padded = np.pad(image, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (padded.shape[2] - kernel) // stride + 1
    out_w = (padded.shape[3] - kernel) // stride + 1

    def window(array, r, s):
        return array[
            :, :, r : r + stride * (out_h - 1) + 1 : stride, s : s + stride * (out_w - 1) + 1 : stride
        ]

    output = np.zeros(image.shape[:2] + (out_h, out_w))
    for r in range(kernel):
        for s in range(kernel):
            output += window(padded, r, s) * weight[None, :, r, s, None, None]
    if bias is not None:
        output += bias[None, :, None, None]

    grad_padded = np.zeros_like(padded)
    grad_weight = np.zeros_like(weight)
    for r in range(kernel):
        for s in range(kernel):
            window(grad_padded, r, s)[...] += grad_output * weight[None, :, r, s, None, None]
            grad_weight[:, r, s] = (window(padded, r, s) * grad_output).sum(axis=(0, 2, 3))
    height, width = image.shape[2:]
    grad_input = grad_padded[:, :, padding : padding + height, padding : padding + width]
    grad_bias = None if bias is None else grad_output.sum(axis=(0, 2, 3))
    return output, grad_input, grad_weight, grad_bias


def assert_depthwise_close(actual, expected):
    np.testing.assert_allclose(
        actual, expected, rtol=DEPTHWISE_TOLERANCE, atol=DEPTHWISE_TOLERANCE
    )


class TestDepthwiseConv2D:
    def test_channels_filtered_independently(self):
        image = np.zeros((1, 2, 5, 5))
        image[0, 0, 2, 2] = 1.0
        image[0, 1, 2, 2] = 1.0
        weight = np.zeros((2, 3, 3))
        weight[0] = 1.0  # box filter on channel 0 only
        output = depthwise_conv2d(Tensor(image), Tensor(weight), padding=1).data
        assert output[0, 0].sum() == pytest.approx(9.0 * 1.0 / 9.0 * 9)  # impulse spread
        assert np.allclose(output[0, 1], 0.0)

    def test_box_blur_preserves_mean(self):
        rng = np.random.default_rng(4)
        image = rng.uniform(size=(1, 3, 8, 8))
        weight = np.full((3, 3, 3), 1.0 / 9.0)
        output = depthwise_conv2d(Tensor(image), Tensor(weight), padding=1).data
        # Interior pixels are exact local means, so global mean is close.
        assert output.mean() == pytest.approx(image.mean(), rel=0.2)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            depthwise_conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 3, 3))))

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(5)
        image = rng.standard_normal((1, 2, 6, 6))
        weight = rng.standard_normal((2, 3, 3)) * 0.4

        image_tensor = Tensor(image.copy(), requires_grad=True)
        weight_tensor = Tensor(weight.copy(), requires_grad=True)
        output = depthwise_conv2d(image_tensor, weight_tensor, padding=1)
        (output * output).sum().backward()

        def loss():
            out = depthwise_conv2d(Tensor(image), Tensor(weight), padding=1)
            return float((out.data ** 2).sum())

        assert np.allclose(weight_tensor.grad, numeric_grad(loss, weight), atol=1e-4)
        assert np.allclose(image_tensor.grad, numeric_grad(loss, image), atol=1e-4)

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("channels", [1, 3, 16])
    @pytest.mark.parametrize("kernel,padding", DEPTHWISE_GEOMETRIES)
    def test_matches_per_tap_reference(self, kernel, padding, channels, stride, with_bias):
        rng = np.random.default_rng(kernel * 1000 + channels * 10 + stride)
        image = rng.standard_normal((2, channels, 9, 12))
        weight = rng.standard_normal((channels, kernel, kernel))
        bias = rng.standard_normal(channels) if with_bias else None

        image_tensor = Tensor(image, requires_grad=True)
        weight_tensor = Tensor(weight, requires_grad=True)
        bias_tensor = Tensor(bias, requires_grad=True) if with_bias else None
        output = depthwise_conv2d(
            image_tensor, weight_tensor, bias_tensor, stride=stride, padding=padding
        )
        grad_output = rng.standard_normal(output.shape)
        output.backward(grad_output)

        expected = depthwise_reference(image, weight, bias, grad_output, stride, padding)
        assert output.shape == expected[0].shape
        assert_depthwise_close(output.data, expected[0])
        assert_depthwise_close(image_tensor.grad, expected[1])
        assert_depthwise_close(weight_tensor.grad, expected[2])
        if with_bias:
            assert_depthwise_close(bias_tensor.grad, expected[3])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_frozen_weight_gets_no_gradient(self, stride):
        rng = np.random.default_rng(6)
        image = rng.standard_normal((3, 16, 9, 12))
        weight = rng.standard_normal((16, 7, 7))

        image_tensor = Tensor(image, requires_grad=True)
        weight_tensor = Tensor(weight, requires_grad=False)
        output = depthwise_conv2d(image_tensor, weight_tensor, stride=stride, padding=3)
        grad_output = rng.standard_normal(output.shape)
        output.backward(grad_output)

        expected = depthwise_reference(image, weight, None, grad_output, stride, 3)
        assert weight_tensor.grad is None
        assert_depthwise_close(output.data, expected[0])
        assert_depthwise_close(image_tensor.grad, expected[1])


class TestPooling:
    def test_max_pool_values(self):
        image = np.array(
            [[[[1.0, 2.0, 5.0, 1.0], [3.0, 4.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0], [0.0, 1.0, 3.0, 9.0]]]]
        )
        output = max_pool2d(Tensor(image), kernel=2).data
        assert np.allclose(output[0, 0], [[4.0, 5.0], [1.0, 9.0]])

    def test_max_pool_gradient_goes_to_argmax(self):
        image = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        tensor = Tensor(image, requires_grad=True)
        max_pool2d(tensor, kernel=2).sum().backward()
        assert np.allclose(tensor.grad, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_avg_pool_values_and_gradient(self):
        image = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        tensor = Tensor(image, requires_grad=True)
        output = avg_pool2d(tensor, kernel=2)
        assert output.data[0, 0, 0, 0] == pytest.approx(2.5)
        output.sum().backward()
        assert np.allclose(tensor.grad, 0.25)

    def test_pool_output_shapes(self):
        image = Tensor(np.zeros((2, 3, 8, 8)))
        assert max_pool2d(image, 2).shape == (2, 3, 4, 4)
        assert avg_pool2d(image, 4).shape == (2, 3, 2, 2)
