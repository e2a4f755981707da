"""Batched ``no_grad`` inference helpers and the compiled inference engine.

Training and attack code run the autodiff forward pass (float64 tensors, a
graph node per operation).  Gradient-free work does not need any of that,
so this module provides two progressively faster ways to run pure
inference:

* :func:`batched_forward` -- chunk a large input through the regular
  :class:`~repro.nn.layers.Sequential` forward under ``no_grad`` with
  bounded peak memory.  Exact same arithmetic as training-time inference.
* :class:`InferenceEngine` -- a *compiled* forward pass: the layer sequence
  is lowered once into a list of closures over float32 copies of the
  weights.  Convolutions become a single BLAS matmul over an im2col
  lowering, the whole pipeline runs in NHWC layout (so conv outputs need no
  transpose copy), bias-add and a following ReLU are fused in place on the
  matmul result, and every large intermediate (padded inputs, im2col
  patches, layer outputs) lives in a preallocated per-thread workspace that
  is reused across calls -- the hot loop allocates nothing after the first
  batch of a given shape.

The engine snapshots the model's parameters at compile time; call
:meth:`InferenceEngine.refresh` after mutating weights in place.  Code that
does not want to manage engine lifetimes should use :func:`cached_engine`,
which keeps one compiled engine per model and recompiles automatically when
the model's parameter arrays are *replaced* (an optimizer step, a
state-dict load) -- see :func:`weights_fingerprint` for the staleness rule.

Thread-safety: a compiled engine holds no shared mutable per-call state --
workspace buffers are per-thread -- so :meth:`InferenceEngine.forward` /
``predict*`` may run concurrently from several threads (the serving shards
rely on this); :meth:`refresh` is the only mutating operation and must not
race in-flight forwards.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    Sequential,
)
from .tensor import Tensor, no_grad

__all__ = [
    "batched_forward",
    "batched_predict_proba",
    "softmax_probabilities",
    "InferenceEngine",
    "compile_inference",
    "cached_engine",
    "invalidate_cached_engine",
    "weights_fingerprint",
]


def softmax_probabilities(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis of a plain array."""

    shifted = logits - logits.max(axis=-1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=-1, keepdims=True)


def batched_forward(model: Sequential, images: np.ndarray, batch_size: int = 128) -> np.ndarray:
    """Exact ``no_grad`` forward of ``images`` through ``model`` in chunks.

    Peak memory is bounded by ``batch_size`` regardless of ``len(images)``.
    Returns the raw logits as a plain NumPy array.
    """

    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    model.eval()
    outputs: List[np.ndarray] = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            chunk = Tensor(images[start : start + batch_size])
            outputs.append(model(chunk).data)
    return np.concatenate(outputs, axis=0)


def batched_predict_proba(
    model: Sequential, images: np.ndarray, batch_size: int = 128
) -> np.ndarray:
    """Softmax class probabilities of ``model`` on ``images``, chunked."""

    return softmax_probabilities(batched_forward(model, images, batch_size))


#: A compiled layer op: ``op(x, buffers) -> y`` where ``buffers`` is the
#: calling thread's workspace dictionary.
_Op = Callable[[np.ndarray, Dict[object, np.ndarray]], np.ndarray]


def _workspace(
    buffers: Dict[object, np.ndarray], key: object, shape: Tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """Return a reusable scratch array of ``shape`` from this thread's pool.

    Buffers are keyed per compiled op, so consecutive layers never alias;
    a shape change (e.g. the last partial chunk of a stream) replaces the
    buffer for that op.
    """

    buffer = buffers.get(key)
    if buffer is None or buffer.shape != shape:
        buffer = np.empty(shape, dtype)
        buffers[key] = buffer
    return buffer


def _pad_nhwc(
    x: np.ndarray,
    pad: int,
    buffers: Dict[object, np.ndarray],
    key: object,
    dtype: np.dtype,
) -> np.ndarray:
    """Zero-pad the two spatial axes of an NHWC array into a reused buffer."""

    if not pad:
        return x
    batch, height, width, channels = x.shape
    padded = _workspace(
        buffers, key, (batch, height + 2 * pad, width + 2 * pad, channels), dtype
    )
    padded[:, :pad].fill(0.0)
    padded[:, -pad:].fill(0.0)
    padded[:, pad:-pad, :pad].fill(0.0)
    padded[:, pad:-pad, -pad:].fill(0.0)
    padded[:, pad : pad + height, pad : pad + width] = x
    return padded


def _rank_one_factors(
    weights: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Split ``(C, K, K)`` depthwise taps into per-channel outer products.

    Returns ``(column_factors, row_factors)``, each ``(C, K)``, with
    ``weights[c] == outer(column_factors[c], row_factors[c])`` up to float64
    rounding, or ``None`` when some channel's kernel is not rank 1.
    """

    left, singular, right = np.linalg.svd(weights)
    if (singular[:, 1:] > 1e-12 * singular[:, :1]).any():
        return None
    scale = np.sqrt(singular[:, 0:1])
    return left[:, :, 0] * scale, right[:, 0, :] * scale


def _shift_accumulate(
    source: np.ndarray,
    taps: List[Tuple[int, int, np.ndarray]],
    spatial: Tuple[int, int],
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """``out = sum(tap * window)`` over ``(row, col, tap)`` shifts of ``source``.

    Each window starts at ``(row, col)`` on the ``spatial`` axes and has
    ``out``'s spatial extent.
    """

    height, width = out.shape[spatial[0]], out.shape[spatial[1]]
    for position, (row, col, tap) in enumerate(taps):
        window: List[slice] = [slice(None)] * source.ndim
        window[spatial[0]] = slice(row, row + height)
        window[spatial[1]] = slice(col, col + width)
        shifted = source[tuple(window)]
        if position == 0:
            np.multiply(shifted, tap, out=out)
        else:
            np.multiply(shifted, tap, out=scratch)
            out += scratch


def _pad_spatial(
    x: np.ndarray,
    axes: Tuple[int, int],
    pad: int,
    buffers: Dict[object, np.ndarray],
    key: object,
    dtype: np.dtype,
) -> np.ndarray:
    """Zero-pad two arbitrary spatial axes of ``x`` into a reused buffer."""

    if not pad:
        return x
    shape = list(x.shape)
    shape[axes[0]] += 2 * pad
    shape[axes[1]] += 2 * pad
    padded = _workspace(buffers, key, tuple(shape), dtype)
    padded.fill(0.0)
    interior: List[slice] = [slice(None)] * x.ndim
    interior[axes[0]] = slice(pad, pad + x.shape[axes[0]])
    interior[axes[1]] = slice(pad, pad + x.shape[axes[1]])
    padded[tuple(interior)] = x
    return padded


def _nhwc_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """``(N, out_h, out_w, C, K, K)`` sliding windows of an NHWC array."""

    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(1, 2))
    if stride != 1:
        windows = windows[:, ::stride, ::stride]
    return windows


class InferenceEngine:
    """Compiled, gradient-free forward pass of a :class:`Sequential` model.

    The constructor walks the layer list once and emits one closure per
    layer over float32 snapshots of the parameters.  Supported layers are
    everything :func:`repro.models.lisa_cnn.build_lisa_cnn` can produce
    (convolutions, depthwise/blur filters, pooling, dense, dropout); any
    unrecognized layer falls back to its exact tensor forward, so the
    engine never changes semantics -- only speed and dtype (float32).

    Three compile-time optimizations make this the hot path of both
    :mod:`repro.serve` and the gradient-free experiment evaluations:

    * **NHWC pipeline** -- all spatial intermediates are channel-last, so
      the im2col patch gather is a straight contiguous copy and the conv
      matmul result *is* the next layer's input (no transpose copies).
    * **Fused conv+bias+ReLU** -- a ReLU directly following a convolution
      or dense layer is folded into the matmul epilogue in place.
    * **Workspace reuse** -- padded inputs, patch matrices and outputs are
      preallocated per thread and reused across calls, keyed by input
      shape; steady-state forwards allocate nothing.

    Execution is thread-safe (workspaces are per-thread; the weight
    snapshots are frozen); :meth:`refresh` is not and must be called while
    no forwards are in flight.

    Parameters
    ----------
    model:
        The model to compile.  It is put in ``eval`` mode.
    dtype:
        Computation dtype of the compiled path (float32 by default; use
        ``np.float64`` for bit-faithful logits at reduced speed).
    """

    def __init__(self, model: Sequential, dtype: np.dtype = np.float32) -> None:
        # The model is held weakly: the compiled ops own float32 snapshots
        # of the weights, so the engine stays usable after the model is
        # garbage-collected (only refresh() needs the live model).  This
        # also lets the cached_engine registry drop entries for dead
        # models instead of keeping every model ever compiled alive.
        self._model_ref = weakref.ref(model)
        self.dtype = np.dtype(dtype)
        self._ops: List[_Op] = []
        self._local = threading.local()
        self.refresh()

    @property
    def model(self) -> Sequential:
        """The compiled model (weakly referenced; raises once collected)."""

        model = self._model_ref()
        if model is None:
            raise RuntimeError(
                "the model behind this engine has been garbage-collected; "
                "compiled forwards still work but refresh() is impossible"
            )
        return model

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def refresh(self) -> "InferenceEngine":
        """Re-snapshot the model's weights and rebuild the compiled ops."""

        self.model.eval()
        layers = self._flatten(self.model)
        ops: List[_Op] = []
        index = 0
        while index < len(layers):
            layer = layers[index]
            fuse_relu = (
                isinstance(layer, (Conv2D, Dense))
                and index + 1 < len(layers)
                and isinstance(layers[index + 1], ReLU)
            )
            ops.append(self._compile_layer(layer, len(ops), fuse_relu))
            index += 2 if fuse_relu else 1
        self._ops = ops
        return self

    @staticmethod
    def _flatten(model: Sequential) -> List[Layer]:
        layers: List[Layer] = []
        for layer in model.layers:
            if isinstance(layer, Sequential):
                layers.extend(InferenceEngine._flatten(layer))
            else:
                layers.append(layer)
        return layers

    def _compile_layer(self, layer: Layer, index: int, fuse_relu: bool) -> _Op:
        dtype = self.dtype

        if isinstance(layer, Conv2D):
            kernel, stride, pad = layer.kernel_size, layer.stride, layer.padding
            out_channels = layer.out_channels
            # (K*K*C_in, C_out): patch rows flatten in (KH, KW, C) order --
            # channels innermost -- so the im2col gather below copies
            # contiguous C-length runs (the (C, K, K) order would leave no
            # contiguous run at all) and the contraction is one BLAS
            # matmul against this row-permuted weight.
            weight = np.ascontiguousarray(
                layer.weight.data.transpose(2, 3, 1, 0).reshape(-1, out_channels),
                dtype=dtype,
            )
            bias = layer.bias.data.astype(dtype)

            def conv_op(x: np.ndarray, buffers: Dict[object, np.ndarray]) -> np.ndarray:
                padded = _pad_nhwc(x, pad, buffers, (index, "pad"), dtype)
                windows = _nhwc_windows(padded, kernel, stride)
                batch, out_h, out_w = windows.shape[:3]
                # (N, OH, OW, C, KH, KW) view -> (N, OH, OW, KH, KW, C)
                # gather: source and destination both run C floats at a time.
                windows = windows.transpose(0, 1, 2, 4, 5, 3)
                patches = _workspace(
                    buffers, (index, "patches"), windows.shape, dtype
                )
                np.copyto(patches, windows)
                flat = patches.reshape(batch * out_h * out_w, -1)
                out = _workspace(
                    buffers, (index, "out"), (flat.shape[0], out_channels), dtype
                )
                np.matmul(flat, weight, out=out)
                out += bias
                if fuse_relu:
                    np.maximum(out, 0.0, out=out)
                return out.reshape(batch, out_h, out_w, out_channels)

            return conv_op

        # DepthwiseConv2D and the frozen blur layers (InputBlur /
        # FeatureMapBlur) share the (C, K, K)-weight depthwise shape.
        weight_tensor = getattr(layer, "weight", None)
        if (
            isinstance(layer, DepthwiseConv2D)
            or (
                weight_tensor is not None
                and isinstance(weight_tensor, Tensor)
                and weight_tensor.data.ndim == 3
                and hasattr(layer, "padding")
                and hasattr(layer, "kernel_size")
            )
        ):
            kernel = layer.kernel_size
            pad = layer.padding
            channels = weight_tensor.data.shape[0]
            # One tap vector per kernel offset: the depthwise convolution
            # becomes K*K shift-multiply-accumulate passes over contiguous
            # memory (much faster than contracting a strided 6-D window
            # view).  Wide feature maps run directly in the engine's NHWC
            # layout; narrow ones (the RGB input blur) would leave only
            # C-element contiguous runs there, so they hop to channels-first
            # for the passes -- two small layout copies buy fully
            # vectorized inner loops.
            channels_first = channels < 8
            tap_shape = (channels, 1, 1) if channels_first else (channels,)

            def tap(values: np.ndarray) -> np.ndarray:
                return values.astype(dtype).reshape(tap_shape)

            # Box and Gaussian blurs are rank 1 in every channel: they run as
            # K passes along the rows, then K along the columns, instead of
            # K*K passes.
            factors = _rank_one_factors(weight_tensor.data)
            if factors is None:
                taps = [
                    (row, col, tap(weight_tensor.data[:, row, col]))
                    for row in range(kernel)
                    for col in range(kernel)
                ]
            else:
                column_factors, row_factors = factors
                row_taps = [(0, col, tap(row_factors[:, col])) for col in range(kernel)]
                column_taps = [(row, 0, tap(column_factors[:, row])) for row in range(kernel)]

            def depthwise_op(x: np.ndarray, buffers: Dict[object, np.ndarray]) -> np.ndarray:
                batch, height, width, _ = x.shape
                if channels_first:
                    planar = _workspace(
                        buffers, (index, "nchw"), (batch, channels, height, width), dtype
                    )
                    np.copyto(planar, x.transpose(0, 3, 1, 2))
                    source = planar
                    spatial = (2, 3)
                else:
                    source = x
                    spatial = (1, 2)
                padded = _pad_spatial(
                    source, spatial, pad, buffers, (index, "pad"), dtype
                )
                out_h = padded.shape[spatial[0]] - kernel + 1
                out_w = padded.shape[spatial[1]] - kernel + 1
                if channels_first:
                    shape = (batch, channels, out_h, out_w)
                else:
                    shape = (batch, out_h, out_w, channels)
                out = _workspace(buffers, (index, "out"), shape, dtype)
                scratch = _workspace(buffers, (index, "tmp"), shape, dtype)
                if factors is None:
                    _shift_accumulate(padded, taps, spatial, out, scratch)
                else:
                    # Row pass: full padded height, output width.
                    row_shape = list(shape)
                    row_shape[spatial[0]] = padded.shape[spatial[0]]
                    row_shape = tuple(row_shape)
                    row_out = _workspace(buffers, (index, "rows"), row_shape, dtype)
                    row_scratch = _workspace(buffers, (index, "rows_tmp"), row_shape, dtype)
                    _shift_accumulate(padded, row_taps, spatial, row_out, row_scratch)
                    _shift_accumulate(row_out, column_taps, spatial, out, scratch)
                if channels_first:
                    back = _workspace(
                        buffers, (index, "nhwc"), (batch, out_h, out_w, channels), dtype
                    )
                    np.copyto(back, out.transpose(0, 2, 3, 1))
                    return back
                return out

            return depthwise_op

        if isinstance(layer, ReLU):
            # Standalone ReLU (not folded into a conv/dense epilogue): the
            # input is always an engine-owned workspace, so clip in place.
            def relu_op(x: np.ndarray, buffers: Dict[object, np.ndarray]) -> np.ndarray:
                return np.maximum(x, 0.0, out=x)

            return relu_op

        if isinstance(layer, (MaxPool2D, AvgPool2D)):
            kernel, stride = layer.kernel_size, layer.stride
            take_max = isinstance(layer, MaxPool2D)

            def pool_op(x: np.ndarray, buffers: Dict[object, np.ndarray]) -> np.ndarray:
                batch, height, width, channels = x.shape
                if stride == kernel and height % kernel == 0 and width % kernel == 0:
                    # Non-overlapping windows: reduce K*K strided shifts of
                    # the input pairwise instead of a multi-axis reduction
                    # over a 6-D reshape (several times faster).
                    out = _workspace(
                        buffers,
                        (index, "out"),
                        (batch, height // kernel, width // kernel, channels),
                        dtype,
                    )
                    shifts = [
                        x[:, row::kernel, col::kernel]
                        for row in range(kernel)
                        for col in range(kernel)
                    ]
                    np.copyto(out, shifts[0])
                    for shifted in shifts[1:]:
                        if take_max:
                            np.maximum(out, shifted, out=out)
                        else:
                            np.add(out, shifted, out=out)
                    if not take_max:
                        out *= 1.0 / (kernel * kernel)
                    return out
                windows = _nhwc_windows(x, kernel, stride)
                return windows.max(axis=(4, 5)) if take_max else windows.mean(axis=(4, 5))

            return pool_op

        if isinstance(layer, Flatten):
            # The engine runs NHWC internally but dense weights were trained
            # against the NCHW flatten order, so restore it here (the final
            # feature map is small -- this is the only layout copy besides
            # the input conversion).
            def flatten_op(x: np.ndarray, buffers: Dict[object, np.ndarray]) -> np.ndarray:
                if x.ndim == 2:
                    return x
                batch, height, width, channels = x.shape
                out = _workspace(
                    buffers, (index, "flat"), (batch, channels, height, width), dtype
                )
                np.copyto(out, x.transpose(0, 3, 1, 2))
                return out.reshape(batch, -1)

            return flatten_op

        if isinstance(layer, Dropout):
            return lambda x, buffers: x  # identity in eval mode

        if isinstance(layer, Dense):
            dense_weight = layer.weight.data.astype(dtype)
            dense_bias = layer.bias.data.astype(dtype)

            def dense_op(x: np.ndarray, buffers: Dict[object, np.ndarray]) -> np.ndarray:
                out = _workspace(
                    buffers, (index, "out"), (x.shape[0], dense_weight.shape[1]), dtype
                )
                np.matmul(x, dense_weight, out=out)
                out += dense_bias
                if fuse_relu:
                    np.maximum(out, 0.0, out=out)
                return out

            return dense_op

        # Unknown layer: exact tensor fallback (float64 round trip, NCHW).
        def fallback_op(x: np.ndarray, buffers: Dict[object, np.ndarray]) -> np.ndarray:
            if x.ndim == 4:
                x = x.transpose(0, 3, 1, 2)
            with no_grad():
                result = layer(Tensor(np.asarray(x, dtype=np.float64))).data
            result = result.astype(dtype)
            if result.ndim == 4:
                result = np.ascontiguousarray(result.transpose(0, 2, 3, 1))
            return result

        return fallback_op

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _buffers(self) -> Dict[object, np.ndarray]:
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = {}
            self._local.buffers = buffers
        return buffers

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Run one compiled forward pass; returns logits for the whole batch.

        The result is a fresh array (never a view of the reusable
        workspace), so callers may hold it across subsequent forwards.
        """

        x = np.asarray(images, dtype=self.dtype)
        if x.ndim == 3:
            x = x[None]
        buffers = self._buffers()
        if x.ndim == 4:
            # NCHW -> NHWC entry conversion (the one unavoidable layout copy).
            entry = _workspace(
                buffers, "entry", (x.shape[0], x.shape[2], x.shape[3], x.shape[1]), self.dtype
            )
            np.copyto(entry, x.transpose(0, 2, 3, 1))
            x = entry
        for op in self._ops:
            x = op(x, buffers)
        return np.array(x, dtype=self.dtype)

    def predict_logits(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Logits for ``images`` computed in chunks of ``batch_size``."""

        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        outputs = [
            self.forward(images[start : start + batch_size])
            for start in range(0, len(images), batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def predict_proba(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Softmax class probabilities, chunked."""

        return softmax_probabilities(self.predict_logits(images, batch_size))

    def predict(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Arg-max class predictions, chunked."""

        return self.predict_logits(images, batch_size).argmax(axis=-1)


def compile_inference(model: Sequential, dtype: np.dtype = np.float32) -> InferenceEngine:
    """Compile ``model`` into an :class:`InferenceEngine` (convenience wrapper)."""

    return InferenceEngine(model, dtype=dtype)


# ----------------------------------------------------------------------
# Per-model engine cache
# ----------------------------------------------------------------------

def weights_fingerprint(model: Sequential) -> Tuple[int, ...]:
    """Advisory identity fingerprint of the model's current parameter arrays.

    Every code path that replaces weights -- an optimizer step
    (:meth:`repro.nn.optim.Adam.step` reassigns ``parameter.data``), a
    state-dict load (:func:`repro.nn.serialization.load_state_dict` copies
    into fresh arrays) -- changes the identity of at least one parameter
    array, so comparing fingerprints detects staleness in O(#params) time
    without touching the weight values.  Two caveats: ``id`` values can be
    recycled after the old arrays are freed (which is why
    :func:`cached_engine` validates with weak references to the arrays
    themselves instead of this tuple), and *in-place* mutation
    (``parameter.data[:] = ...``) is invisible to it -- call
    :func:`invalidate_cached_engine` (or :meth:`InferenceEngine.refresh`)
    after doing that.
    """

    return tuple(id(parameter.data) for parameter in model.parameters())


_ENGINE_CACHE: "weakref.WeakKeyDictionary[Sequential, Tuple[Tuple[weakref.ref, ...], InferenceEngine]]" = (
    weakref.WeakKeyDictionary()
)
_ENGINE_CACHE_LOCK = threading.Lock()


def cached_engine(model: Sequential, dtype: np.dtype = np.float32) -> InferenceEngine:
    """One shared compiled engine per model, recompiled when weights change.

    This is the standard gradient-free execution path: the first call for a
    model compiles an :class:`InferenceEngine` (float32 by default) and
    caches it against the model object; later calls return the cached
    engine after checking that every parameter array is *the same object*
    it was compiled from (weak references, so recycled ``id`` values can
    never cause a stale hit) -- a model that was trained further or had a
    state dict loaded in the meantime is transparently recompiled.  The
    cache holds only weak references to models and their arrays (the
    engine itself references its model weakly too), so it never keeps a
    model alive; entries for collected models evict themselves.

    Callers that need a private engine, a different dtype, or manual
    refresh control should construct :class:`InferenceEngine` directly.
    """

    dtype = np.dtype(dtype)
    parameters = model.parameters()
    with _ENGINE_CACHE_LOCK:
        entry = _ENGINE_CACHE.get(model)
        if entry is not None:
            array_refs, engine = entry
            if (
                engine.dtype == dtype
                and len(array_refs) == len(parameters)
                and all(
                    ref() is parameter.data
                    for ref, parameter in zip(array_refs, parameters)
                )
            ):
                return engine
        engine = InferenceEngine(model, dtype=dtype)
        _ENGINE_CACHE[model] = (
            tuple(weakref.ref(parameter.data) for parameter in parameters),
            engine,
        )
        return engine


def invalidate_cached_engine(model: Sequential) -> None:
    """Drop the cached compiled engine of ``model`` (if any).

    Needed only after *in-place* weight mutation, which
    :func:`weights_fingerprint` cannot see; array-replacing updates
    (optimizer steps, state-dict loads) invalidate automatically.
    """

    with _ENGINE_CACHE_LOCK:
        _ENGINE_CACHE.pop(model, None)
