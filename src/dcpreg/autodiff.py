"""Minimal reverse-mode automatic differentiation over dense arrays.

A :class:`Tape` records primitive operations while active; ``backward``
replays the record in exact reverse order, so gradient accumulation is
deterministic (two identical passes produce bitwise-identical gradients).
Tensors carry a fixed precision (float32 or float64) chosen at
construction; mixing precisions in one operation is an error.

The primitive set is exactly what the registration network needs,
including a 3x3-SVD rigid alignment head with an analytic backward rule.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import csc_matrix

from . import geometry as geo
from .errors import (
    GradientSingularityError,
    InsufficientDataError,
    InvalidAxisError,
    InvalidInputError,
    ShapeError,
)

SUPPORTED_DTYPES = (np.float32, np.float64)

BN_EPS = 1e-5
LN_EPS = 1e-6
# Minimum separation of singular-value magnitudes for the SVD differential.
SVD_GAP_TOL = 1e-8


class Tensor:
    """Dense array with an optional gradient slot.

    ``grad`` accumulates across backward passes; callers reset it with
    :meth:`zero_grad` between optimization steps.
    """

    __slots__ = ("data", "requires_grad", "grad", "_in_graph")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
        if np.dtype(dtype) not in (np.float32, np.float64):
            raise InvalidInputError(f"unsupported dtype {dtype}; use float32 or float64")
        self.data = np.asarray(arr, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._in_graph = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


@dataclass
class TapeEntry:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_fn: Callable[[np.ndarray], tuple]


@dataclass
class Tape:
    """Ordered record of executed primitives for one forward pass."""

    entries: list[TapeEntry] = field(default_factory=list)

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack().pop()

    def backward(self, output: Tensor) -> None:
        backward(self, output)


_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t._in_graph


def _record(op: str, inputs: tuple[Tensor, ...], output: Tensor, backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(_tracked(t) for t in inputs):
        output._in_graph = True
        tape.entries.append(TapeEntry(op, inputs, output, backward_fn))
    return output


def _check_same_dtype(*tensors: Tensor) -> None:
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise InvalidInputError(f"mixed tensor dtypes {sorted(str(d) for d in dtypes)}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(tape: Tape, output: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from output.

    Repeated calls accumulate into existing ``grad`` buffers.
    """
    if output.ndim != 0:
        raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
    buffers: dict[int, np.ndarray] = {id(output): np.ones((), dtype=output.dtype)}

    def credit(t: Tensor, g: np.ndarray | None) -> None:
        if g is None:
            return
        key = id(t)
        if key in buffers:
            buffers[key] = buffers[key] + g
        else:
            buffers[key] = g

    seen: dict[int, Tensor] = {id(output): output}
    for entry in reversed(tape.entries):
        g_out = buffers.get(id(entry.output))
        if g_out is None:
            continue
        grads = entry.backward_fn(g_out)
        for t, g in zip(entry.inputs, grads):
            credit(t, g)
            seen[id(t)] = t

    for t in seen.values():
        if t.requires_grad:
            g = buffers.get(id(t))
            if g is None:
                continue
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad = t.grad + np.asarray(g, dtype=t.dtype).reshape(t.shape)


# ---------------------------------------------------------------------------
# Elementwise and structural primitives
# ---------------------------------------------------------------------------

def _broadcast_shape(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    _broadcast_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", (a, b), out, bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    _broadcast_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", (a, b), out, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    _broadcast_shape(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", (a, b), out, bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with broadcasting over leading batch dimensions."""
    _check_same_dtype(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def bw(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        if b.ndim == 2 and a.ndim > 2:
            # Flattened GEMM instead of a batched product plus reduction.
            a2 = a.data.reshape(-1, a.shape[-1])
            g2 = np.ascontiguousarray(g).reshape(-1, g.shape[-1])
            gb = a2.T @ g2
        else:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return _unbroadcast(ga, a.shape), gb

    return _record("matmul", (a, b), out, bw)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))

    def bw(g):
        return (g * (out.data > 0),)

    return _record("relu", (x,), out, bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    _broadcast_shape(a, b, "div")
    out = Tensor(a.data / b.data)

    def bw(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        )

    return _record("div", (a, b), out, bw)


def sqrt(x: Tensor) -> Tensor:
    root = np.sqrt(x.data)
    out = Tensor(root)

    def bw(g):
        return (g * 0.5 / root,)

    return _record("sqrt", (x,), out, bw)


def _check_axis(x: Tensor, axis: int, op: str) -> int:
    if not -x.ndim <= axis < x.ndim:
        raise InvalidAxisError(f"{op}: axis {axis} out of range for shape {x.shape}")
    axis %= x.ndim
    if x.shape[axis] == 0:
        raise InvalidAxisError(f"{op}: axis {axis} of shape {x.shape} is empty")
    return axis


def _softmax(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of ``x`` along ``axis`` in one buffer (``out``, which may be
    ``x``): shift by the maximum, exponentiate and divide, each in place."""
    y = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def softmax(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(x, axis, "softmax")
    y = _softmax(x.data, axis)
    out = Tensor(y)

    def bw(g):
        gx = g - (g * y).sum(axis=axis, keepdims=True)
        gx *= y
        return (gx,)

    return _record("softmax", (x,), out, bw)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention, concatenated over heads.

    ``q`` is (n, d), ``k`` and ``v`` are (m, d); head ``h`` owns columns
    ``h*dk:(h+1)*dk`` with ``dk = d // heads``. The output is (n, d), head
    ``h`` holding ``softmax(q_h k_h^T / sqrt(dk)) v_h``.

    The forward makes one (heads, n, m) buffer and runs every step in it:
    ``a = q_h @ k_h^T``, then ``a *= 1/sqrt(dk)`` (cast to the tensor
    dtype), then the softmax over each row (subtract the row max, exp,
    divide by the row sum), then ``a @ v_h``. These are the operations of
    the reshape/transpose/matmul/mul/softmax/matmul composition, on the
    same head views and in the same order; writing each result in place
    does not change its rounding, so the output is equal to that
    composition bit for bit.

    The backward is analytic and keeps only ``a``: with ``g_h`` the output
    gradient of head ``h`` and ``c_h = a @ v_h``, ``dV = a^T g_h``,
    ``dS = (g_h v_h^T - rowsum(g_h * c_h)) * a / sqrt(dk)`` (the row sum of
    ``(g_h v_h^T) * a`` equals that of ``g_h * c_h``), ``dQ = dS k_h`` and
    ``dK = dS^T q_h``.
    """
    _check_same_dtype(q, k, v)
    if heads < 1:
        raise InvalidInputError(f"attention: heads must be at least 1, got {heads}")
    if q.ndim != 2 or k.ndim != 2 or k.shape != v.shape or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: need q (n, d) and k, v (m, d), got {q.shape}, {k.shape}, {v.shape}")
    (n, d), m = q.shape, k.shape[0]
    if m == 0 or d == 0 or d % heads:
        raise ShapeError(f"attention: needs m >= 1 keys and d >= 1 divisible by {heads} heads, got {k.shape}")
    dk = d // heads

    def split(x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], heads, dk).transpose(1, 0, 2)  # (heads, rows, dk) view

    def merge(x: np.ndarray) -> np.ndarray:
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = np.asarray(1.0 / np.sqrt(dk), dtype=q.dtype)
    a = qh @ kh.transpose(0, 2, 1)
    a *= scale
    _softmax(a, -1, out=a)
    ctx = a @ vh
    out = Tensor(merge(ctx))

    def bw(g):
        gh = split(g)
        gv = np.swapaxes(a, 1, 2) @ gh
        ds = gh @ vh.transpose(0, 2, 1)
        ds -= (gh * ctx).sum(axis=-1, keepdims=True)
        ds *= a
        ds *= scale
        return merge(ds @ kh), merge(np.swapaxes(ds, 1, 2) @ qh), merge(gv)

    return _record("attention", (q, k, v), out, bw)


def max_reduce(x: Tensor, axis: int) -> Tensor:
    """Max along one axis; gradient flows to the first (lowest-index) argmax.

    The argmax is found in the backward pass, so a forward that is never
    differentiated pays only for the max.
    """
    axis = _check_axis(x, axis, "max_reduce")
    out = Tensor(x.data.max(axis=axis))

    def bw(g):
        argmax = np.argmax(x.data, axis=axis)
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(argmax, axis), np.expand_dims(g, axis), axis)
        return (gx,)

    return _record("max_reduce", (x,), out, bw)


def mean_reduce(x: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        out = Tensor(np.asarray(x.data.mean()))
        size = x.data.size

        def bw(g):
            return (np.full_like(x.data, 1.0 / size) * g,)

        return _record("mean_reduce", (x,), out, bw)
    axis = _check_axis(x, axis, "mean_reduce")
    out = Tensor(x.data.mean(axis=axis))
    n = x.shape[axis]

    def bw_axis(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _record("mean_reduce", (x,), out, bw_axis)


def sum_reduce(x: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        out = Tensor(np.asarray(x.data.sum()))

        def bw(g):
            return (np.full_like(x.data, 1.0) * g,)

        return _record("sum_reduce", (x,), out, bw)
    axis = _check_axis(x, axis, "sum_reduce")
    out = Tensor(x.data.sum(axis=axis))
    n = x.shape[axis]

    def bw_axis(g):
        return (np.repeat(np.expand_dims(g, axis), n, axis=axis),)

    return _record("sum_reduce", (x,), out, bw_axis)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise InvalidInputError("concat needs at least one tensor")
    _check_same_dtype(*tensors)
    axis = _check_axis(tensors[0], axis, "concat")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return _record("concat", tensors, out, bw)


def gather(x: Tensor, index) -> Tensor:
    """Index-select rows: output shape ``index.shape + x.shape[1:]``.

    Backward scatter-adds, so repeated indices accumulate gradient.
    """
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise InvalidInputError("gather index must be integral")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"gather index out of range for leading dim {x.shape[0]}")
    out = Tensor(x.data[idx])

    def bw(g):
        tail = int(np.prod(x.shape[1:], dtype=np.int64)) if x.ndim > 1 else 1
        g2 = np.ascontiguousarray(g, dtype=x.dtype).reshape(idx.size, tail)
        # Column j of the (rows, picks) accumulator holds a single 1 at row idx[j].
        scatter = csc_matrix(
            (np.ones(idx.size, dtype=x.dtype), idx.ravel(), np.arange(idx.size + 1)),
            shape=(x.shape[0], idx.size),
        )
        summed = scatter @ g2
        return (np.asarray(summed).reshape(x.shape),)

    return _record("gather", (x,), out, bw)


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def bw(g):
        return (np.transpose(g, inv),)

    return _record("transpose", (x,), out, bw)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bw(g):
        return (g.reshape(x.shape),)

    return _record("reshape", (x,), out, bw)


def broadcast_to(x: Tensor, shape) -> Tensor:
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError:
        raise ShapeError(f"cannot broadcast {x.shape} to {tuple(shape)}") from None
    out = Tensor(np.ascontiguousarray(data))

    def bw(g):
        return (_unbroadcast(g, x.shape),)

    return _record("broadcast_to", (x,), out, bw)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused ``x @ w + b`` over the last axis of ``x``."""
    _check_same_dtype(x, w, b)
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"affine: incompatible shapes x={x.shape}, w={w.shape}, b={b.shape}")
    y = x.data @ w.data
    y += b.data
    out = Tensor(y)

    def bw(g):
        gx = g @ w.data.T
        x2 = x.data.reshape(-1, x.shape[-1])
        g2 = g.reshape(-1, w.shape[1])
        return gx, x2.T @ g2, g2.sum(axis=0)

    return _record("affine", (x, w, b), out, bw)


# ---------------------------------------------------------------------------
# Normalization layers
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Running statistics for one batch-normalization site."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = BN_EPS

    @staticmethod
    def create(channels: int, dtype=np.float64, momentum: float = 0.1) -> "BatchNormState":
        return BatchNormState(
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
            momentum=momentum,
        )


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Normalize per channel (last axis) over all leading axes.

    Training mode uses batch statistics (biased variance) and updates the
    running statistics in place with the configured momentum; inference
    mode normalizes with the stored running statistics.
    """
    _check_same_dtype(x, gamma, beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta must be ({c},), got {gamma.shape}/{beta.shape}")
    axes = tuple(range(x.ndim - 1))
    n = int(np.prod([x.shape[i] for i in axes])) if axes else 1
    eps = state.eps

    if training:
        if n < 2:
            raise InvalidInputError("batch_norm training mode needs >= 2 samples per channel")
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        state.running_mean = ((1.0 - state.momentum) * state.running_mean + state.momentum * mu).astype(
            state.running_mean.dtype
        )
        state.running_var = ((1.0 - state.momentum) * state.running_var + state.momentum * var).astype(
            state.running_var.dtype
        )
    else:
        mu = state.running_mean.astype(x.dtype)
        var = state.running_var.astype(x.dtype)

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out = Tensor(gamma.data * xhat + beta.data)

    if training:

        def bw(g):
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=axes)
            m2 = (dxhat * xhat).mean(axis=axes)
            gx = inv_std * (dxhat - m1 - xhat * m2)
            return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    else:

        def bw(g):
            return g * gamma.data * inv_std, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _record("batch_norm", (x, gamma, beta), out, bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LN_EPS) -> Tensor:
    """Normalize each row over the last axis with learned gain and bias."""
    _check_same_dtype(x, gain, bias)
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"layer_norm: gain/bias must be ({c},), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out = Tensor(gain.data * xhat + bias.data)
    lead_axes = tuple(range(x.ndim - 1))

    def bw(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv_std * (dxhat - m1 - xhat * m2)
        return gx, (g * xhat).sum(axis=lead_axes), g.sum(axis=lead_axes)

    return _record("layer_norm", (x, gain, bias), out, bw)


# ---------------------------------------------------------------------------
# Differentiable rigid alignment head
# ---------------------------------------------------------------------------

def _svd_gap_check(s: np.ndarray) -> None:
    mags = np.sort(np.abs(s))
    gaps = (mags[1] - mags[0], mags[2] - mags[1])
    if min(gaps) < SVD_GAP_TOL:
        raise GradientSingularityError(
            f"singular values {s} too close for a stable SVD differential (gap < {SVD_GAP_TOL})"
        )


def svd_rotation(h: Tensor) -> Tensor:
    """Best-fit proper rotation of a 3x3 cross-covariance, differentiable.

    Forward matches the closed-form alignment rotation ``V @ U.T`` with the
    signed-singular-value convention. Backward uses the analytic SVD
    differential and fails loudly when singular values nearly coincide.
    """
    if h.shape != (3, 3):
        raise ShapeError(f"svd_rotation expects a 3x3 input, got {h.shape}")
    u, s, v = geo.svd3(np.asarray(h.data, dtype=np.float64))
    out = Tensor((v @ u.T).astype(h.dtype))

    def bw(g):
        _svd_gap_check(s)
        gr = np.asarray(g, dtype=np.float64)
        u_bar = gr.T @ v  # d(V U^T)/dU adjoint
        v_bar = gr @ u
        a_sym = 0.5 * (u.T @ u_bar - u_bar.T @ u)
        b_sym = 0.5 * (v.T @ v_bar - v_bar.T @ v)
        s2 = s * s
        denom = s2[None, :] - s2[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.where(np.eye(3, dtype=bool), 0.0, 1.0 / denom)
        q = 2.0 * (a_sym * e) @ np.diag(s) + 2.0 * np.diag(s) @ (b_sym * e)
        gh = u @ q @ v.T
        return (gh.astype(h.dtype),)

    return _record("svd_rotation", (h,), out, bw)


def svd_rigid_head(src: Tensor, dst: Tensor) -> tuple[Tensor, Tensor]:
    """Differentiable closed-form alignment of matched point tensors.

    Returns ``(rotation, translation)`` such that ``rotation @ x + t``
    best aligns ``src`` to ``dst`` in the least-squares sense; gradients
    of any scalar loss flow into both point sets.
    """
    _check_same_dtype(src, dst)
    if src.ndim != 2 or src.shape[1] != 3 or src.shape != dst.shape:
        raise ShapeError(f"svd_rigid_head expects matching (N, 3) tensors, got {src.shape} and {dst.shape}")
    if src.shape[0] < 3:
        raise InsufficientDataError(f"alignment needs at least 3 point pairs, got {src.shape[0]}")
    cx = reshape(mean_reduce(src, axis=0), (1, 3))
    cy = reshape(mean_reduce(dst, axis=0), (1, 3))
    xc = sub(src, cx)
    yc = sub(dst, cy)
    h = matmul(transpose(xc), yc)
    r = svd_rotation(h)
    rotated_cx = transpose(matmul(r, transpose(cx)))
    t = reshape(sub(cy, rotated_cx), (3,))
    return r, t
