"""Convolution and pooling primitives on the autodiff :class:`Tensor`.

All spatial operators use the ``NCHW`` layout (batch, channels, height,
width).  Both convolutions lower to dense matrix multiplications through
BLAS, which keeps the pure-NumPy substrate fast enough to train the small
LISA-CNN classifiers used in the BlurNet experiments and to attack them.

The public functions are:

* :func:`conv2d` -- standard cross-correlation with ``(C_out, C_in, K, K)``
  weights, lowered to ``K * K`` patch columns by :func:`im2col` (and back
  by :func:`col2im` for the input gradient).
* :func:`depthwise_conv2d` -- per-channel convolution used by the BlurNet
  filter layer (``(C, K, K)`` weights, one kernel per channel), lowered to
  banded matrix products over the ``K`` padded input rows under each
  output row.
* :func:`max_pool2d` / :func:`avg_pool2d` -- spatial pooling over
  :func:`im2col` windows.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "avg_pool2d",
]


def _output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window."""

    return (size + 2 * pad - kernel) // stride + 1


def im2col(
    images: np.ndarray, kernel: int, stride: int = 1, pad: int = 0
) -> Tuple[np.ndarray, int, int]:
    """Lower image patches into columns.

    Parameters
    ----------
    images:
        Array of shape ``(N, C, H, W)``.
    kernel:
        Square kernel size.
    stride:
        Window stride.
    pad:
        Symmetric zero padding applied to H and W.

    Returns
    -------
    cols, out_h, out_w:
        ``cols`` has shape ``(N, C, kernel, kernel, out_h, out_w)``.
    """

    batch, channels, height, width = images.shape
    out_h = _output_size(height, kernel, stride, pad)
    out_w = _output_size(width, kernel, stride, pad)

    padded = np.pad(
        images, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant"
    )
    cols = np.empty((batch, channels, kernel, kernel, out_h, out_w), dtype=images.dtype)
    for row in range(kernel):
        row_end = row + stride * out_h
        for col in range(kernel):
            col_end = col + stride * out_w
            cols[:, :, row, col, :, :] = padded[:, :, row:row_end:stride, col:col_end:stride]
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col` -- scatter-add columns back to image space."""

    batch, channels, height, width = input_shape
    out_h = _output_size(height, kernel, stride, pad)
    out_w = _output_size(width, kernel, stride, pad)

    padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad), dtype=cols.dtype)
    for row in range(kernel):
        row_end = row + stride * out_h
        for col in range(kernel):
            col_end = col + stride * out_w
            padded[:, :, row:row_end:stride, col:col_end:stride] += cols[:, :, row, col, :, :]
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


def conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation.

    Parameters
    ----------
    inputs:
        Tensor of shape ``(N, C_in, H, W)``.
    weight:
        Tensor of shape ``(C_out, C_in, K, K)``.
    bias:
        Optional tensor of shape ``(C_out,)``.
    stride, padding:
        Standard convolution hyper-parameters.
    """

    batch, in_channels, height, width = inputs.shape
    out_channels, weight_in_channels, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if weight_in_channels != in_channels:
        raise ValueError(
            f"weight expects {weight_in_channels} input channels, got {in_channels}"
        )

    cols, out_h, out_w = im2col(inputs.data, kernel, stride, padding)
    # (N, C*K*K, out_h*out_w)
    cols_matrix = cols.reshape(batch, in_channels * kernel * kernel, out_h * out_w)
    weight_matrix = weight.data.reshape(out_channels, in_channels * kernel * kernel)

    # All three contractions of the conv (forward, grad-weight, grad-input)
    # are batched matrix products, so route them through BLAS via
    # ``np.matmul`` -- several times faster than the equivalent einsum.
    output = np.matmul(weight_matrix, cols_matrix)
    output = output.reshape(batch, out_channels, out_h, out_w)
    if bias is not None:
        output = output + bias.data.reshape(1, out_channels, 1, 1)

    parents = [inputs, weight] if bias is None else [inputs, weight, bias]

    def backward(out: Tensor) -> None:
        grad_output = out.grad.reshape(batch, out_channels, out_h * out_w)
        if weight.requires_grad:
            grad_weight = np.matmul(
                grad_output, cols_matrix.transpose(0, 2, 1)
            ).sum(axis=0)
            weight._accumulate(grad_weight.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if inputs.requires_grad:
            grad_cols = np.matmul(weight_matrix.T, grad_output)
            grad_cols = grad_cols.reshape(batch, in_channels, kernel, kernel, out_h, out_w)
            inputs._accumulate(
                col2im(grad_cols, inputs.shape, kernel, stride, padding)
            )

    return Tensor._make(output, parents, backward, name="conv2d")


def depthwise_conv2d(
    inputs: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Depthwise 2-D convolution (one kernel per channel).

    This is the filtering primitive at the heart of BlurNet: a fixed or
    learned blur kernel is applied independently to every feature-map
    channel.

    The op is lowered to banded matrix products batched over channels.
    Each output row reads ``K`` full rows of the zero-padded input; those
    are gathered side by side into a ``(C, N * out_h, K * W_pad)`` matrix
    and multiplied by a ``(C, K * W_pad, out_w)`` band whose column ``j``
    holds tap ``(r, s)`` at row ``r * W_pad + j * stride + s``.
    Grad-input is the same product against the transposed band, summed
    back over the ``K`` row shifts; grad-weight is read off the ``K``
    diagonals of ``rows^T @ grad``.  Unlike an im2col lowering this copies
    the input ``K`` times rather than ``K * K`` times, and the row gather is
    kept for backward only when the weight needs a gradient.

    Parameters
    ----------
    inputs:
        Tensor of shape ``(N, C, H, W)``.
    weight:
        Tensor of shape ``(C, K, K)``.
    bias:
        Optional tensor of shape ``(C,)``.
    stride, padding:
        Standard convolution hyper-parameters.
    """

    batch, channels, height, width = inputs.shape
    weight_channels, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if weight_channels != channels:
        raise ValueError(
            f"depthwise weight expects {weight_channels} channels, got {channels}"
        )

    out_h = _output_size(height, kernel, stride, padding)
    out_w = _output_size(width, kernel, stride, padding)
    padded_h, padded_w = height + 2 * padding, width + 2 * padding

    # Channels lead, so each channel is one matrix product over all images.
    padded = np.zeros((channels, batch, padded_h, padded_w))
    padded[:, :, padding : padding + height, padding : padding + width] = (
        inputs.data.transpose(1, 0, 2, 3)
    )
    # The K input rows under an output row are one contiguous run of padded.
    windows = sliding_window_view(padded, (kernel, padded_w), axis=(2, 3))
    rows = windows[:, :, ::stride, 0].reshape(channels, batch * out_h, kernel * padded_w)

    # Tap (r, s) meets output column j at row r * W_pad + j * stride + s.
    shift = np.arange(kernel).reshape(kernel, 1, 1)
    tap = np.arange(kernel).reshape(1, kernel, 1)
    column = np.arange(out_w).reshape(1, 1, out_w)
    tap_rows = shift * padded_w + column * stride + tap
    tap_cols = np.broadcast_to(column, tap_rows.shape)
    band = np.zeros((channels, kernel * padded_w, out_w))
    band[:, tap_rows, tap_cols] = weight.data[:, :, :, None]

    output = np.matmul(rows, band).reshape(channels, batch, out_h, out_w)
    output = np.ascontiguousarray(output.transpose(1, 0, 2, 3))
    if bias is not None:
        output = output + bias.data.reshape(1, channels, 1, 1)

    parents = [inputs, weight] if bias is None else [inputs, weight, bias]
    # Only grad-weight reads the row gather, and RP2 and the frozen blurs
    # never train the taps, so they do not keep it alive until backward.
    saved_rows = rows if weight.requires_grad else None

    def backward(out: Tensor) -> None:
        grad_output = out.grad.transpose(1, 0, 2, 3).reshape(channels, batch * out_h, out_w)
        if saved_rows is not None:
            grad_band = np.matmul(saved_rows.transpose(0, 2, 1), grad_output)
            weight._accumulate(grad_band[:, tap_rows, tap_cols].sum(axis=-1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)))
        if inputs.requires_grad:
            # One product per row shift keeps each scatter-add contiguous;
            # shift r lands on padded rows r, r + stride, ...
            band_shifts = band.reshape(channels, kernel, padded_w, out_w)
            row_span = stride * (out_h - 1) + 1
            grad_padded = np.zeros((channels, batch, padded_h, padded_w))
            for r in range(kernel):
                grad_rows = np.matmul(grad_output, band_shifts[:, r].transpose(0, 2, 1))
                grad_padded[:, :, r : r + row_span : stride] += grad_rows.reshape(
                    channels, batch, out_h, padded_w
                )
            grad_input = grad_padded[
                :, :, padding : padding + height, padding : padding + width
            ]
            inputs._accumulate(grad_input.transpose(1, 0, 2, 3))

    return Tensor._make(output, parents, backward, name="depthwise_conv2d")


def max_pool2d(inputs: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""

    stride = stride if stride is not None else kernel
    batch, channels, height, width = inputs.shape
    cols, out_h, out_w = im2col(inputs.data, kernel, stride, 0)
    windows = cols.reshape(batch, channels, kernel * kernel, out_h, out_w)
    argmax = windows.argmax(axis=2)
    output = windows.max(axis=2)

    def backward(out: Tensor) -> None:
        if not inputs.requires_grad:
            return
        grad_windows = np.zeros_like(windows)
        n_idx, c_idx, h_idx, w_idx = np.indices((batch, channels, out_h, out_w))
        grad_windows[n_idx, c_idx, argmax, h_idx, w_idx] = out.grad
        grad_cols = grad_windows.reshape(batch, channels, kernel, kernel, out_h, out_w)
        inputs._accumulate(col2im(grad_cols, inputs.shape, kernel, stride, 0))

    return Tensor._make(output, (inputs,), backward, name="max_pool2d")


def avg_pool2d(inputs: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling over non-overlapping (or strided) windows."""

    stride = stride if stride is not None else kernel
    batch, channels, height, width = inputs.shape
    cols, out_h, out_w = im2col(inputs.data, kernel, stride, 0)
    windows = cols.reshape(batch, channels, kernel * kernel, out_h, out_w)
    output = windows.mean(axis=2)

    def backward(out: Tensor) -> None:
        if not inputs.requires_grad:
            return
        grad_windows = np.broadcast_to(
            out.grad[:, :, None, :, :] / (kernel * kernel), windows.shape
        ).copy()
        grad_cols = grad_windows.reshape(batch, channels, kernel, kernel, out_h, out_w)
        inputs._accumulate(col2im(grad_cols, inputs.shape, kernel, stride, 0))

    return Tensor._make(output, (inputs,), backward, name="avg_pool2d")
