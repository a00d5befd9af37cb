"""Minimal reverse-mode automatic differentiation over dense arrays.

A :class:`Tape` records primitive operations while active; ``backward``
replays the record in exact reverse order, so gradient accumulation is
deterministic (two identical passes produce bitwise-identical gradients),
frees each intermediate gradient once its producing entry has run, and
returns the gradients of the leaves; no tensor stores one. A recorded
call is a training step: batch norm uses batch statistics and moves its
running statistics only then, and a call no tape records runs inference.
Tensors carry a fixed precision (float32 or float64) chosen at
construction; mixing precisions in one operation is an error.

The primitive set is exactly what the registration network needs,
including a 3x3-SVD rigid alignment head with an analytic backward rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from . import geometry as geo
from .errors import (
    GradientSingularityError,
    InsufficientDataError,
    InvalidAxisError,
    InvalidInputError,
    ShapeError,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LN_EPS = 1e-6
# Least |s_i + s_j|, i != j, of H's signed singular values for svd_rotation's
# backward. Absolute: H sums products of centred unit-sphere coordinates over
# a pair's n points, so its singular values run up to about n; H = 0 raises.
SVD_GAP_TOL = 1e-8
# Bytes that an untaped attention forward's scores, and an edge
# convolution's gathered rows (taped or not), take up at a time: a share of
# one core's L2 cache, so the passes over a tile after the first find it
# there.
TILE_BYTES = 256 * 1024


class Tensor:
    """Dense array; ``requires_grad`` marks a leaf whose gradient
    :func:`backward` returns. Tensors hash by identity."""

    __slots__ = ("data", "requires_grad", "_in_graph")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
        if np.dtype(dtype) not in (np.float32, np.float64):
            raise InvalidInputError(f"unsupported dtype {dtype}; use float32 or float64")
        self.data = np.asarray(arr, dtype=dtype)
        self.requires_grad = bool(requires_grad)
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
    """Ordered record of executed primitives for one forward pass. Entering
    a tape pushes it on the module list ``_TAPES``, one for all threads,
    and leaving pops it; the innermost tape records."""

    entries: list[TapeEntry] = field(default_factory=list)

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPES.pop()


_TAPES: list[Tape] = []


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t._in_graph


def _will_record(*inputs: Tensor) -> bool:
    """Whether :func:`_record` puts an operation on ``inputs`` on the tape."""
    return bool(_TAPES) and any(_tracked(t) for t in inputs)


def _record(op: str, inputs: tuple[Tensor, ...], output: Tensor, backward_fn) -> Tensor:
    if _will_record(*inputs):
        output._in_graph = True
        _TAPES[-1].entries.append(TapeEntry(op, inputs, output, backward_fn))
    return output


def _tile_rows(width: int, dtype) -> int:
    """Rows of ``width`` elements of ``dtype`` that fit one tile, at least 1."""
    return max(1, TILE_BYTES // max(1, width * np.dtype(dtype).itemsize))


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


def backward(tape: Tape, output: Tensor) -> dict[Tensor, np.ndarray]:
    """The gradient of the scalar ``output`` with respect to each
    requires_grad tensor it reaches on ``tape``, keyed by that tensor.

    Each entry takes its output's gradient out of the buffers, so only the
    gradients not yet spent stay alive.
    """
    if output.ndim != 0:
        raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
    buffers: dict[int, np.ndarray] = {id(output): np.ones((), dtype=output.dtype)}
    leaves: dict[int, Tensor] = {id(output): output} if output.requires_grad else {}
    for entry in reversed(tape.entries):
        g_out = buffers.pop(id(entry.output), None)
        if g_out is None:
            continue
        for t, g in zip(entry.inputs, entry.backward_fn(g_out)):
            key = id(t)
            if t.requires_grad:
                leaves[key] = t
            if g is not None:
                buffers[key] = buffers[key] + g if key in buffers else g
    return {t: np.asarray(buffers[key], dtype=t.dtype).reshape(t.shape) for key, t in leaves.items() if key in buffers}


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
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

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


def _check_axis(x: Tensor, axis: int, op: str) -> int:
    if not -x.ndim <= axis < x.ndim:
        raise InvalidAxisError(f"{op}: axis {axis} out of range for shape {x.shape}")
    axis %= x.ndim
    if x.shape[axis] == 0:
        raise InvalidAxisError(f"{op}: axis {axis} of shape {x.shape} is empty")
    return axis


def _softmax(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of ``x`` along ``axis`` in one buffer (``out``, which may be
    ``x``): shift by the maximum, exponentiate and divide, each in place.
    ``np.fmax.reduce``, a faster maximum than ``ndarray.max``, skips NaN,
    but ``x - m`` and the sum still make a row with a NaN all NaN."""
    y = np.subtract(x, np.fmax.reduce(x, axis=axis, keepdims=True), out=out)
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

    ``q`` is (..., n, d), ``k`` and ``v`` are (..., m, d) with the same
    leading axes (a batch of pairs, say), each index attending on its own;
    head ``h`` owns columns ``h*dk:(h+1)*dk`` with ``dk = d // heads``. The
    output is (..., n, d), head ``h`` holding ``softmax(q_h k_h^T / sqrt(dk))
    v_h``. A leading axis of size 1 gives the 2-D result bit for bit: each
    product is the same GEMM on the same data.

    The forward runs every step of a score block in one buffer: ``a = q_h
    @ k_h^T``, then ``a *= 1/sqrt(dk)`` (cast to the tensor dtype), then the
    softmax over each row (subtract the row max, exp, divide by the row
    sum), then ``a @ v_h``, written straight into the head's columns of the
    output. These are the operations of the
    reshape/transpose/matmul/mul/softmax/matmul composition, on the same
    head views and in the same order; writing each result in place does not
    change its rounding, so the output is equal to that composition bit for
    bit.

    Tiles. A call no tape records works on one ``TILE_BYTES`` buffer,
    reused: it holds the scores of as many (batch index, head) slices as fit
    (whole heads of several batch indices, or some heads of one; always at
    least one slice), and the scale and softmax run over blocks of as many
    whole score rows as fit a tile, so each block's passes after the GEMM
    find it in cache. A recorded call takes the whole (..., heads, n, m)
    array as its one tile and one block, since the backward needs every
    score. Each row and each slice sees the same operations either way, so
    the two are equal bit for bit.

    The backward is analytic and keeps only ``a``: with ``g_h`` the output
    gradient of head ``h`` and ``c_h = a @ v_h``, ``dV = a^T g_h``,
    ``dS = (g_h v_h^T - rowsum(g_h * c_h)) * a / sqrt(dk)`` (the row sum of
    ``(g_h v_h^T) * a`` equals that of ``g_h * c_h``), ``dQ = dS k_h`` and
    ``dK = dS^T q_h``.
    """
    _check_same_dtype(q, k, v)
    if heads < 1:
        raise InvalidInputError(f"attention: heads must be at least 1, got {heads}")
    if (
        q.ndim < 2
        or k.shape != v.shape
        or q.shape[:-2] != k.shape[:-2]
        or q.shape[-1] != k.shape[-1]
    ):
        raise ShapeError(
            f"attention: need q (..., n, d) and k, v (..., m, d), got {q.shape}, {k.shape}, {v.shape}"
        )
    (n, d), m = q.shape[-2:], k.shape[-2]
    if m == 0 or d == 0 or d % heads:
        raise ShapeError(f"attention: needs m >= 1 keys and d >= 1 divisible by {heads} heads, got {k.shape}")
    dk = d // heads
    lead = q.shape[:-2]
    b = math.prod(lead)

    def split(x: np.ndarray) -> np.ndarray:
        # (b, heads, rows, dk) view
        return x.reshape((b, x.shape[-2], heads, dk)).swapaxes(1, 2)

    def merge(x: np.ndarray) -> np.ndarray:
        return x.swapaxes(1, 2).reshape(lead + (x.shape[2], d))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = np.asarray(1.0 / np.sqrt(dk), dtype=q.dtype)
    out = np.empty((b, n, d), dtype=q.dtype)
    ctx = split(out)
    if _will_record(q, k, v):  # the backward reads every score: one tile, one block
        per_tile, block = max(1, b * heads), max(1, b * heads * n)
    else:
        per_tile, block = _tile_rows(n * m, q.dtype), _tile_rows(m, q.dtype)
    nh, nb = min(heads, per_tile), max(1, per_tile // heads)
    scores = np.empty(min(nb, b) * nh * n * m, dtype=q.dtype)
    for b0 in range(0, b, nb):
        for h0 in range(0, heads, nh):
            qs, ks, vs, cs = (x[b0 : b0 + nb, h0 : h0 + nh] for x in (qh, kh, vh, ctx))
            a = scores[: qs.shape[0] * qs.shape[1] * n * m].reshape(qs.shape[:2] + (n, m))
            np.matmul(qs, ks.swapaxes(-1, -2), out=a)
            rows = a.reshape(-1, m)
            for r0 in range(0, len(rows), block):
                tile = rows[r0 : r0 + block]
                tile *= scale
                _softmax(tile, -1, out=tile)
            np.matmul(a, vs, out=cs)

    def bw(g):
        a = scores.reshape(b, heads, n, m)  # a recorded call's one tile
        gh = split(g)
        gv = a.swapaxes(-1, -2) @ gh
        ds = gh @ vh.swapaxes(-1, -2)
        ds -= (gh * ctx).sum(axis=-1, keepdims=True)
        ds *= a
        ds *= scale
        return merge(ds @ kh), merge(ds.swapaxes(-1, -2) @ qh), merge(gv)

    out = Tensor(out.reshape(q.shape))
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


def mean_reduce(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(x, axis, "mean_reduce")
    out = Tensor(x.data.mean(axis=axis))
    n = x.shape[axis]

    def bw(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _record("mean_reduce", (x,), out, bw)


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

    Backward scatter-adds, so repeated indices accumulate gradient. The
    model does not call it; ``benchmark/tracing.OPS`` traces it by name.
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


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(x.data, axes))
    inv = tuple(np.argsort(axes))

    def bw(g):
        return (np.transpose(g, inv),)

    return _record("transpose", (x,), out, bw)


def swap_last(x: Tensor) -> Tensor:
    """Transpose of each matrix in ``x``: its last two axes swapped."""
    return transpose(x, tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2))


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def bw(g):
        return (g.reshape(x.shape),)

    return _record("reshape", (x,), out, bw)


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fused ``x @ w + b`` over the last axis of ``x``, as one GEMM on the
    rows of ``x`` flattened over its leading axes. ``b`` None adds no bias
    and records ``x`` and ``w`` alone, with the gradients of a zero bias."""
    inputs = (x, w) if b is None else (x, w, b)
    _check_same_dtype(*inputs)
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"affine: incompatible shapes x={x.shape}, w={w.shape}, b={getattr(b, 'shape', None)}")
    x2 = x.data.reshape(-1, x.shape[-1])
    y = x2 @ w.data
    if b is not None:
        y += b.data
    out = Tensor(y.reshape(x.shape[:-1] + (w.shape[1],)))

    def bw(g):
        g2 = g.reshape(-1, w.shape[1])
        grads = (g2 @ w.data.T).reshape(x.shape), x2.T @ g2
        return grads if b is None else grads + (g2.sum(axis=0),)

    return _record("affine", inputs, out, bw)


# ---------------------------------------------------------------------------
# Normalization layers
# ---------------------------------------------------------------------------

@dataclass
class BatchNormState:
    """Running statistics for one batch-normalization site."""

    running_mean: np.ndarray
    running_var: np.ndarray

    def update(self, mu: np.ndarray, var: np.ndarray) -> None:
        """Move the running statistics by ``BN_MOMENTUM`` toward one batch's
        ``mu`` and ``var``."""
        m = BN_MOMENTUM
        self.running_mean = ((1.0 - m) * self.running_mean + m * mu).astype(self.running_mean.dtype)
        self.running_var = ((1.0 - m) * self.running_var + m * var).astype(self.running_var.dtype)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState) -> Tensor:
    """Normalize per channel (last axis) over all leading axes.

    A recorded call uses batch statistics (biased variance) and moves the
    running statistics in place by ``BN_MOMENTUM``; a call no tape records
    normalizes with the stored running statistics.
    """
    _check_same_dtype(x, gamma, beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta must be ({c},), got {gamma.shape}/{beta.shape}")
    axes = tuple(range(x.ndim - 1))
    n = int(np.prod([x.shape[i] for i in axes])) if axes else 1

    if _will_record(x, gamma, beta):
        if n < 2:
            raise InvalidInputError("batch_norm training mode needs >= 2 samples per channel")
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        state.update(mu, var)
    else:
        mu = state.running_mean.astype(x.dtype)
        var = state.running_var.astype(x.dtype)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mu) * inv_std
    out = Tensor(gamma.data * xhat + beta.data)

    def bw(g):
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=axes)
        m2 = (dxhat * xhat).mean(axis=axes)
        gx = inv_std * (dxhat - m1 - xhat * m2)
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _record("batch_norm", (x, gamma, beta), out, bw)


def edgeconv_bn_max(
    center: Tensor,
    per_point: Tensor,
    indices,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
) -> Tensor:
    """Edge-convolution batch norm, ReLU and neighbor max in one step.

    Edge ``(i, t)`` joins row ``i`` of ``center`` (N, c) to row
    ``j = indices[i, t]`` of ``per_point`` (M, c); its pre-activation is
    ``h = center_i + per_point_j``. The output (N, c) is
    ``max_t relu(bn(h))``, with batch norm over all N*k edges, and no
    (N, k, c) pre-activation is ever built.

    Statistics. A recorded call takes mu and var over the edges from O(N*c)
    moments, in float64 on centred values: with ``d`` the in-degrees of
    ``per_point`` rows, ``a = center - mean(center)`` and ``b = per_point -
    sum(d * per_point) / (N*k)``, every edge has ``h - mu = a_i + b_j``, so
    ``N*k * var = k*sum(a^2) + 2*sum(a * (A b)) + sum(d * b^2)``, where
    ``A b`` sums ``b`` over each row's neighbors. It then moves the running
    statistics as :func:`batch_norm` does. A call no tape records uses the
    running statistics.

    Forward. With mu and var fixed, batch norm and ReLU are monotone per
    channel, non-decreasing where gamma > 0 and non-increasing where gamma
    < 0, and so is each IEEE-rounded step of them. So the max over edges is
    ``relu(bn(center_i + pick_i))`` with ``pick = s * max_t(s * per_point_j)``
    and ``s = sign(gamma)`` (negation is exact), equal bit for bit to the
    per-edge form at the same mu and var. Where gamma is 0 (either sign)
    every edge gives the same output, and ``pick`` is neighbor 0's row, the
    edge a per-edge ``max_reduce`` would pick; that edge's normalised value
    is what the gradient of gamma sees.

    Tiles. After the statistics, every call runs one loop over tiles of as
    many rows as fit ``TILE_BYTES``: each neighbor slot of a tile is
    gathered with ``ndarray.take`` from a contiguous copy of the transposed
    index columns, into a reused buffer (slot 0 from ``per_point``, kept
    for the gamma = 0 channels and multiplied by ``s``; later slots from
    ``s * per_point``), and the max, ``pick``, ``xhat`` and ``y`` are
    computed tile by tile, while the gathered rows are in cache. Only a
    recorded call keeps ``xhat`` and the argmax slots whole, for the
    backward. Each element sees the same operations in the same order as
    in the untiled form, so the output is equal bit for bit.

    Backward. The gradient reaches the argmax edge of each (i, channel):
    the first slot whose ``s * per_point_j`` reaches the max, which a
    recorded call's loop keeps (slot 0 where the max is NaN or gamma is 0).
    It also reaches the two batch-norm mean terms, which summed per point
    are ``k*m1``, ``d*m1`` and ``m2`` times ``k*a + A b``, ``A^T a + d*b``.
    One ``np.bincount`` scatters the argmax terms onto ``per_point`` rows.
    """
    _check_same_dtype(center, per_point, gamma, beta)
    idx = np.asarray(indices)
    if center.ndim != 2 or per_point.ndim != 2 or center.shape[1] != per_point.shape[1]:
        raise ShapeError(
            f"edgeconv_bn_max: need center (N, c) and per_point (M, c), got {center.shape}, {per_point.shape}"
        )
    (n, c), m = center.shape, per_point.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"edgeconv_bn_max: gamma/beta must be ({c},), got {gamma.shape}/{beta.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise InvalidInputError("edgeconv_bn_max indices must be integral")
    if idx.ndim != 2 or idx.shape[0] != n or idx.shape[1] < 1:
        raise ShapeError(f"edgeconv_bn_max: indices must be ({n}, k >= 1), got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise ShapeError(f"edgeconv_bn_max: indices out of range for {m} per_point rows")
    k = idx.shape[1]
    edges = n * k
    training = _will_record(center, per_point, gamma, beta)  # its backward reads slot and xhat whole
    if training:
        if edges < 2:
            raise InvalidInputError("edgeconv_bn_max training mode needs >= 2 edges per channel")
        degree = np.bincount(idx.ravel(), minlength=m).astype(np.float64)
        adjacency = csr_matrix((np.ones(edges), idx.ravel(), np.arange(0, edges + 1, k)), shape=(n, m))
        c64 = center.data.astype(np.float64)
        p64 = per_point.data.astype(np.float64)
        mu_c = c64.mean(axis=0)
        mu_p = degree @ p64 / edges
        a = c64 - mu_c
        b = p64 - mu_p
        ab = adjacency @ b
        # Clamped: rounding can take a near-zero variance just below 0.
        var64 = np.maximum(k * (a * a).sum(axis=0) + 2.0 * (a * ab).sum(axis=0) + degree @ (b * b), 0.0)
        var64 /= edges
        mu64 = mu_c + mu_p
        state.update(mu64, var64)
        mu, var = mu64.astype(center.dtype), var64.astype(center.dtype)
    else:
        mu = state.running_mean.astype(center.dtype)
        var = state.running_var.astype(center.dtype)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)

    s = np.sign(gamma.data)
    zero = s == 0
    signed = per_point.data * s
    # Rows of the transposed table: one contiguous index run per slot and
    # tile. take's mode="clip" writes straight into ``out`` ("raise" would
    # buffer it); every index is in range, as checked above.
    cols = np.ascontiguousarray(idx.T)
    rows = _tile_rows(c, center.dtype)
    tile_rows = min(rows, n)
    xhat = np.empty((n if training else tile_rows, c), dtype=center.dtype)
    slot = np.zeros((n, c), dtype=np.min_scalar_type(k - 1)) if training else None
    spick, first, got, pick = (np.empty((tile_rows, c), dtype=center.dtype) for _ in range(4))
    y = np.empty((n, c), dtype=center.dtype)
    for r0 in range(0, n, rows):
        col, yt = cols[:, r0 : r0 + rows], y[r0 : r0 + rows]
        sp, f, g, p = (buf[: len(yt)] for buf in (spick, first, got, pick))
        xh, sl = (xhat[r0 : r0 + rows], slot[r0 : r0 + rows]) if training else (xhat[: len(yt)], None)
        np.multiply(per_point.data.take(col[0], axis=0, out=f, mode="clip"), s, out=sp)
        for t in range(1, k):
            signed.take(col[t], axis=0, out=g, mode="clip")
            if training:
                np.maximum(sl, (g > sp) * slot.dtype.type(t), out=sl)
            np.maximum(sp, g, out=sp)
        if training:
            sl[np.isnan(sp)] = 0
        np.multiply(sp, s, out=p)
        np.copyto(p, f, where=zero)
        np.add(center.data[r0 : r0 + rows], p, out=xh)
        xh -= mu
        xh *= inv_std
        np.multiply(gamma.data, xh, out=yt)
        yt += beta.data
        np.maximum(yt, 0, out=yt)
    out = Tensor(y)

    def bw(g):
        dxhat = g * (y > 0)
        g_gamma, g_beta = (dxhat * xhat).sum(axis=0), dxhat.sum(axis=0)
        dxhat *= gamma.data
        direct = dxhat * inv_std
        flat = (np.take_along_axis(idx, slot, axis=1) * c + np.arange(c)).ravel()
        g_p = np.bincount(flat, weights=direct.ravel(), minlength=m * c).reshape(m, c)
        m1 = dxhat.sum(axis=0, dtype=np.float64) / edges
        m2 = (dxhat * xhat).sum(axis=0, dtype=np.float64) / edges
        inv64 = inv_std.astype(np.float64)
        g_c = direct - inv64 * (k * m1 + m2 * inv64 * (k * a + ab))
        g_p -= inv64 * (degree[:, None] * m1 + m2 * inv64 * (adjacency.T @ a + degree[:, None] * b))
        return g_c.astype(center.dtype), g_p.astype(per_point.dtype), g_gamma, g_beta

    return _record("edgeconv_bn_max", (center, per_point, gamma, beta), out, bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row over the last axis with learned gain and bias."""
    _check_same_dtype(x, gain, bias)
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"layer_norm: gain/bias must be ({c},), got {gain.shape}/{bias.shape}")
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xc * xc).sum(axis=-1, keepdims=True) / c  # x.var, bit for bit
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = np.multiply(xc, inv_std, out=xc)
    y = gain.data * xhat
    y += bias.data
    out = Tensor(y)
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
    """Raise if in any pair (rows of ``s``, one per pair of the batch) two
    signed singular values sum to less than ``SVD_GAP_TOL``, naming each such
    pair, its singular values and that sum. As s1 >= s2 >= |s3|, the least
    sum is s2 + s3: 0 when H has rank below 2, or is reflected with s3 = -s2."""
    sums = s[:, 1] + s[:, 2]
    collapsed = np.flatnonzero(sums < SVD_GAP_TOL)
    if collapsed.size:
        pairs = "; ".join(f"pair {i} of {len(s)}: singular values {s[i]}, s2 + s3 = {sums[i]:.2g}" for i in collapsed)
        raise GradientSingularityError(
            f"two singular values sum to nearly 0 (< {SVD_GAP_TOL}), where the rotation has no derivative: {pairs}"
        )


def svd_rotation(h: Tensor) -> Tensor:
    """Best-fit proper rotation of each 3x3 cross-covariance in a (B, 3, 3)
    stack, differentiable.

    Forward matches the closed-form alignment rotation ``V @ U.T`` with the
    signed-singular-value convention, the orthogonal polar factor of ``H.T``.
    Its differential divides only by s_i + s_j, i != j (Papadopoulo and
    Lourakis, ECCV 2000), so equal or zero singular values are fine; backward
    fails loudly, naming the pair, only where some s_i + s_j is nearly 0.
    """
    if h.ndim != 3 or h.shape[1:] != (3, 3):
        raise ShapeError(f"svd_rotation expects a (B, 3, 3) stack, got {h.shape}")
    u, s, v = geo.svd3(h.data)
    ut, vt = np.swapaxes(u, -1, -2), np.swapaxes(v, -1, -2)
    out = Tensor((v @ ut).astype(h.dtype))

    def bw(g):
        _svd_gap_check(s)
        m = ut @ np.swapaxes(g, -1, -2) @ v
        # K's diagonal is 0, not 1 / (2 s_i): s3 may be 0, and M - M^T has none.
        with np.errstate(divide="ignore"):
            k = np.where(np.eye(3, dtype=bool), 0.0, 1.0 / (s[..., :, None] + s[..., None, :]))
        gh = u @ (k * (m - np.swapaxes(m, -1, -2))) @ vt
        return (gh.astype(h.dtype),)

    return _record("svd_rotation", (h,), out, bw)


def svd_rigid_head(src: Tensor, dst: Tensor) -> tuple[Tensor, Tensor]:
    """Differentiable closed-form alignment of matched point tensors.

    ``src`` and ``dst`` are (B, N, 3), a batch of B pairs. Returns
    ``(rotation, translation)``, (B, 3, 3) and (B, 3), such that
    ``rotation @ x + t`` best aligns ``src`` to ``dst`` in the least-squares
    sense, per pair; gradients of any scalar loss flow into both point sets.
    """
    _check_same_dtype(src, dst)
    if src.ndim != 3 or src.shape[2] != 3 or src.shape != dst.shape:
        raise ShapeError(f"svd_rigid_head expects matching (B, N, 3) tensors, got {src.shape} and {dst.shape}")
    b, n = src.shape[:2]
    if n < 3:
        raise InsufficientDataError(f"alignment needs at least 3 point pairs, got {n}")
    cx = reshape(mean_reduce(src, axis=1), (b, 1, 3))
    cy = reshape(mean_reduce(dst, axis=1), (b, 1, 3))
    h = matmul(swap_last(sub(src, cx)), sub(dst, cy))
    r = svd_rotation(h)
    t = reshape(sub(cy, matmul(cx, swap_last(r))), (b, 3))
    return r, t
