"""The learned registration model.

Pipeline: per-point embeddings (point-wise MLP or edge-convolution graph
network), optional cross-cloud attention residual, soft pointer matching,
soft correspondence averaging, and a rigid head (differentiable SVD by
default, quaternion MLP as the ablation variant). DCP-v1 skips the
attention stage; DCP-v2 includes it.

Every stage takes a batch of B pairs of n source and m target points (see
:func:`cloud_stack`): embeddings (B, n, d) and (B, m, d), match (B, n, m),
soft targets (B, n, 3), rotations (B, 3, 3), translations (B, 3).
:func:`dcp_predict` registers one pair as a batch of one. An inference
forward that no tape records, on sources and targets of one size, embeds
its 2B clouds in one :func:`embed_cloud` call and computes the attention
residual of both directions as one stack (:func:`_one_stack`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad
from . import geometry as geo
from .errors import DegenerateOutputError, InvalidInputError, ShapeError

DGCNN_DEFAULT_WIDTHS = (64, 64, 128, 256)
POINTNET_DEFAULT_WIDTHS = (64, 64, 64, 128)


@dataclass(frozen=True)
class ModelConfig:
    embedding: str = "dgcnn"  # "dgcnn" | "pointnet"
    widths: tuple[int, ...] | None = None  # None -> embedding default
    emb_dims: int = 512
    attention: bool = True  # True -> DCP-v2, False -> DCP-v1
    heads: int = 4
    ffn_dims: int = 1024
    head: str = "svd"  # "svd" | "mlp"
    mlp_head_widths: tuple[int, ...] = (256, 128, 64)
    knn_k: int = 20
    dtype: str = "float32"

    def __post_init__(self):
        if self.embedding not in ("dgcnn", "pointnet"):
            raise InvalidInputError(f"unknown embedding {self.embedding!r}")
        if self.head not in ("svd", "mlp"):
            raise InvalidInputError(f"unknown head {self.head!r}")
        if self.dtype not in ("float32", "float64"):
            raise InvalidInputError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not isinstance(self.attention, bool):
            raise InvalidInputError(f"attention must be true or false, got {self.attention!r}")
        for name in ("widths", "emb_dims", "heads", "ffn_dims", "mlp_head_widths", "knn_k"):
            value = getattr(self, name)
            if name == "widths" and value is None:
                continue
            ints = value if name.endswith("widths") else (value,)  # the widths are tuples
            if not isinstance(ints, tuple) or not all(type(v) is int and v >= 1 for v in ints):
                raise InvalidInputError(f"{name} must be integers of at least 1, got {value!r}")
        if self.embedding == "dgcnn" and not self.resolved_widths:
            raise InvalidInputError("widths must not be empty for the dgcnn embedding")
        if self.attention and self.emb_dims % self.heads != 0:
            raise InvalidInputError(f"emb_dims {self.emb_dims} not divisible by {self.heads} heads")

    @property
    def resolved_widths(self) -> tuple[int, ...]:
        if self.widths is not None:
            return tuple(self.widths)
        return DGCNN_DEFAULT_WIDTHS if self.embedding == "dgcnn" else POINTNET_DEFAULT_WIDTHS

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def knn_graph(points, k: int) -> np.ndarray:
    """The kNN graph of one (N, 3) cloud as an (N, k) index array: row i
    holds point i's k nearest neighbors by Euclidean distance, self
    excluded and nearest first; a distance tie goes to whichever point the
    k-d tree returns first."""
    pts = geo._as_points(points)
    n = pts.shape[0]
    if k < 1 or k >= n:
        raise InvalidInputError(f"k must satisfy 1 <= k < n_points, got k={k}, n={n}")
    _, idx = cKDTree(pts).query(pts, k=k + 1)
    drop = idx == np.arange(n)[:, None]
    # k + 1 duplicates of a point can crowd the point itself out of its row;
    # all of them lie at distance 0 then, so the last one goes.
    drop[~drop.any(axis=1), -1] = True
    return idx[~drop].reshape(n, k)


def cloud_stack(clouds) -> np.ndarray:
    """The (B, n, 3) float64 stack of a batch of B clouds.

    ``clouds`` is a (B, n, 3) array, or a list or tuple of clouds
    (``PointCloud`` or (n, 3) arrays), which must all have the same number
    of points: a batch with mixed sizes raises ``ShapeError``. One bare
    cloud would be read row by row, so it raises ``InvalidInputError``.
    """
    if isinstance(clouds, (list, tuple)) and clouds and np.ndim(getattr(clouds[0], "points", clouds[0])) == 2:
        pts = [geo._as_points(c) for c in clouds]
        sizes = sorted({len(c) for c in pts})
        if len(sizes) > 1:
            raise ShapeError(f"a batch stacks clouds of one size, got clouds of {sizes} points")
        return np.stack(pts)
    pts = np.asarray(getattr(clouds, "points", clouds), dtype=np.float64)
    if pts.ndim != 3 or pts.shape[2] != 3 or not len(pts):
        raise InvalidInputError(f"pass a batch (a list of clouds or a (B, n, 3) array), got shape {pts.shape}")
    return pts


def batch_knn_graph(clouds: np.ndarray, k: int) -> np.ndarray:
    """The kNN graphs of a (B, n, 3) stack as one (B*n, k) index array on
    its rows: each cloud's graph from :func:`knn_graph`, offset by its row
    start, so no edge joins two clouds."""
    n = clouds.shape[1]
    return np.concatenate([knn_graph(c, k) + b * n for b, c in enumerate(clouds)])


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class TensorSpec(NamedTuple):
    """One model tensor: its shape, and how :meth:`ModelParams.initialize`
    fills it, with a uniform draw on (-bound, bound) when ``bound`` is set
    and with ``fill`` otherwise."""

    shape: tuple[int, ...]
    bound: float | None = None
    fill: float = 0.0


def model_shapes(config: ModelConfig) -> dict[str, TensorSpec]:
    """The table of every tensor a model of ``config`` holds, in the order
    :meth:`ModelParams.initialize` makes them, by checkpoint member name:
    ``param/<name>`` for a learnable tensor, ``bnstate/<site>/mean`` and
    ``bnstate/<site>/var`` for the running statistics of a batch-norm site.
    It draws and allocates no weights."""
    table: dict[str, TensorSpec] = {}

    def affine(name: str, n_in: int, n_out: int, zero: bool = False, bias: bool = True) -> None:
        table[f"param/{name}.w"] = TensorSpec((n_in, n_out), None if zero else math.sqrt(6.0 / n_in))
        if bias:
            table[f"param/{name}.b"] = TensorSpec((n_out,))

    def edge_map(name: str, c_in: int, c_out: int) -> None:
        # One logical (2*c_in, c_out) edge map stored as its vertex and
        # offset halves; fan-in scaling matches the concatenated form.
        for part in ("wa", "wb"):
            table[f"param/{name}.{part}"] = TensorSpec((c_in, c_out), math.sqrt(6.0 / (2 * c_in)))

    def batch_norm(name: str, channels: int) -> None:
        table[f"param/{name}.gamma"] = TensorSpec((channels,), fill=1.0)
        table[f"param/{name}.beta"] = TensorSpec((channels,))
        table[f"bnstate/{name}/mean"] = TensorSpec((channels,))
        table[f"bnstate/{name}/var"] = TensorSpec((channels,), fill=1.0)

    def layer_norm(name: str, channels: int) -> None:
        table[f"param/{name}.g"] = TensorSpec((channels,), fill=1.0)
        table[f"param/{name}.b"] = TensorSpec((channels,))

    widths = config.resolved_widths
    # Embedding layers carry no bias: batch norm follows each one and
    # subtracts any per-channel constant. DGCNN's last layer reads the
    # concatenated outputs of the layers before it.
    dgcnn = config.embedding == "dgcnn"
    c_ins = (3,) + (widths[:-1] + (sum(widths),) if dgcnn else widths)
    for i, (c_in, width) in enumerate(zip(c_ins, widths + (config.emb_dims,))):
        if dgcnn:
            edge_map(f"embed.l{i}", c_in, width)
        else:
            affine(f"embed.l{i}", c_in, width, bias=False)
        batch_norm(f"embed.l{i}.bn", width)

    if config.attention:
        dims = config.emb_dims
        # The encoder's self-attention and FFN, then the decoder's
        # self-attention, cross-attention and FFN, each with its layer norm.
        # Keys carry no bias: q.b_k is one constant per softmax row, which it ignores.
        for block in ("enc.self", "enc.ffn", "dec.self", "dec.cross", "dec.ffn"):
            if block.endswith("ffn"):
                affine(f"attn.{block}.l0", dims, config.ffn_dims)
                affine(f"attn.{block}.l1", config.ffn_dims, dims)
            else:
                for proj in ("wq", "wk", "wv", "wo"):
                    affine(f"attn.{block}.{proj}", dims, dims, bias=proj != "wk")
            layer_norm(f"attn.{block}_ln", dims)
        # Residual output projection starts at zero so an untrained
        # attention stage is an exact no-op (v2 == v1 at init).
        affine("attn.out", dims, dims, zero=True)

    if config.head == "mlp":
        # Hidden layers carry no bias, as batch norm over the batch follows each.
        n_in = 2 * config.emb_dims
        for i, width in enumerate(config.mlp_head_widths):
            affine(f"head.fc{i}", n_in, width, bias=False)
            batch_norm(f"head.fc{i}.bn", width)
            n_in = width
        affine("head.rot", n_in, 4)
        affine("head.trans", n_in, 3)
    return table


@dataclass
class ModelParams:
    """Configuration plus all learnable tensors and normalization state."""

    config: ModelConfig
    params: dict[str, ad.Tensor] = field(default_factory=dict)
    bn_states: dict[str, ad.BatchNormState] = field(default_factory=dict)

    @staticmethod
    def initialize(config: ModelConfig, seed: int) -> "ModelParams":
        """A model of ``config`` with every tensor of :func:`model_shapes`
        made in table order, each draw from one generator of ``seed``."""
        rng = np.random.default_rng(seed)
        arrays = {
            name: (np.full(spec.shape, spec.fill) if spec.bound is None
                   else rng.uniform(-spec.bound, spec.bound, size=spec.shape)).astype(config.np_dtype)
            for name, spec in model_shapes(config).items()
        }
        return ModelParams.from_arrays(config, arrays)

    @staticmethod
    def from_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """A model of ``config`` that holds ``arrays``, named as in
        :func:`model_shapes`, in their order."""
        params, bn_states = {}, {}
        for name, arr in arrays.items():
            kind, _, rest = name.partition("/")
            if kind == "param":
                params[rest] = ad.tensor(arr, requires_grad=True)
            elif rest.endswith("/var"):
                site = rest.removesuffix("/var")
                bn_states[site] = ad.BatchNormState(arrays[f"bnstate/{site}/mean"], arr)
        return ModelParams(config, params, bn_states)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def pointnet_embed(points, model: ModelParams, training: bool = False) -> ad.Tensor:
    """Shared per-point MLP; no information flows between points.

    ``points`` is a batch of B clouds of n points (see :func:`cloud_stack`),
    embedded as one (B*n, c) row block; in training, batch norm's
    statistics cover every point of every cloud."""
    cfg = model.config
    f = ad.tensor(cloud_stack(points).reshape(-1, 3).astype(cfg.np_dtype))
    widths = tuple(cfg.resolved_widths) + (cfg.emb_dims,)
    for i in range(len(widths)):
        name = f"embed.l{i}"
        f = ad.matmul(f, model.params[f"{name}.w"])
        f = ad.batch_norm(
            f,
            model.params[f"{name}.bn.gamma"],
            model.params[f"{name}.bn.beta"],
            model.bn_states[f"{name}.bn"],
            training,
        )
        f = ad.relu(f)
    return f


def edgeconv_layer(
    f: ad.Tensor,
    graph: np.ndarray,
    model: ModelParams,
    name: str,
    training: bool = False,
) -> ad.Tensor:
    """Edge convolution: per-edge MLP on (x_i, x_j - x_i), then batch norm,
    ReLU and the max over neighbors, at per-point cost in both modes.

    ``f`` (N, c_in) holds one row per point of a batch and ``graph`` (N, k)
    its neighbor rows (:func:`batch_knn_graph`); the output is (N, c_out).

    The edge map is linear: ``x_i @ Wa + (x_j - x_i) @ Wb == x_i @ (Wa - Wb)
    + x_j @ Wb``. So two GEMMs give each point ``center = f @ (Wa - Wb)``
    and ``per_point = f @ Wb``, and edge (i, j) has the pre-activation
    ``center_i + per_point_j``. :func:`autodiff.edgeconv_bn_max` does the
    rest without building that (n, k, c_out) array; its docstring derives
    the batch-norm statistics from O(n * c_out) moments, the monotone fold
    that takes the neighbor max before batch norm and ReLU, and the
    gamma = 0 case.
    """
    if len(graph) != f.shape[0]:
        raise ShapeError(f"graph rows {len(graph)} != feature rows {f.shape[0]}")
    p = model.params
    wb = p[f"{name}.wb"]
    center = ad.matmul(f, ad.sub(p[f"{name}.wa"], wb))  # (n, c_out)
    per_point = ad.matmul(f, wb)  # (n, c_out)
    return ad.edgeconv_bn_max(
        center,
        per_point,
        graph,
        p[f"{name}.bn.gamma"],
        p[f"{name}.bn.beta"],
        model.bn_states[f"{name}.bn"],
        training,
    )


def dgcnn_embed(points, model: ModelParams, training: bool = False) -> ad.Tensor:
    """Stacked edge convolutions; intermediate outputs concatenated into the
    final layer. The neighbor graph is built once from input coordinates.

    ``points`` is a batch of B clouds of n points (see :func:`cloud_stack`),
    embedded as one (B*n, c) row block on :func:`batch_knn_graph`; in
    training, batch norm's statistics cover every edge of every cloud."""
    cfg = model.config
    clouds = cloud_stack(points)
    graph = batch_knn_graph(clouds, cfg.knn_k)
    f = ad.tensor(clouds.reshape(-1, 3).astype(cfg.np_dtype))
    layer_outputs = []
    for i in range(len(cfg.resolved_widths)):
        f = edgeconv_layer(f, graph, model, f"embed.l{i}", training)
        layer_outputs.append(f)
    cat = ad.concat(layer_outputs, axis=1)
    return edgeconv_layer(cat, graph, model, f"embed.l{len(cfg.resolved_widths)}", training)


def embed_cloud(points, model: ModelParams, training: bool = False) -> ad.Tensor:
    """Per-point embeddings (B, n, c) of a batch of B clouds of n points
    (see :func:`cloud_stack`), computed as one row block."""
    clouds = cloud_stack(points)
    embed = dgcnn_embed if model.config.embedding == "dgcnn" else pointnet_embed
    f = embed(clouds, model, training)
    return ad.reshape(f, clouds.shape[:2] + (f.shape[1],))


# ---------------------------------------------------------------------------
# Attention residual
# ---------------------------------------------------------------------------

def _multi_head_attention(q_in: ad.Tensor, kv_in: ad.Tensor, model: ModelParams, name: str) -> ad.Tensor:
    """Project to queries, keys and values, attend per head (``ad.attention``)
    and project the concatenated heads back. Keys take no bias, which the softmax ignores."""
    p = model.params
    q = ad.affine(q_in, p[f"{name}.wq.w"], p[f"{name}.wq.b"])
    k = ad.affine(kv_in, p[f"{name}.wk.w"])
    v = ad.affine(kv_in, p[f"{name}.wv.w"], p[f"{name}.wv.b"])
    ctx = ad.attention(q, k, v, model.config.heads)
    return ad.affine(ctx, p[f"{name}.wo.w"], p[f"{name}.wo.b"])


def _sublayer(x: ad.Tensor, sub_out: ad.Tensor, model: ModelParams, ln_name: str) -> ad.Tensor:
    # Norm placement: sublayer output is normalized, then the residual added.
    p = model.params
    return ad.add(x, ad.layer_norm(sub_out, p[f"{ln_name}.g"], p[f"{ln_name}.b"]))


def _ffn(x: ad.Tensor, model: ModelParams, name: str) -> ad.Tensor:
    p = model.params
    h = ad.relu(ad.affine(x, p[f"{name}.l0.w"], p[f"{name}.l0.b"]))
    return ad.affine(h, p[f"{name}.l1.w"], p[f"{name}.l1.b"])


def _encode(memory_in: ad.Tensor, model: ModelParams) -> ad.Tensor:
    x = _sublayer(memory_in, _multi_head_attention(memory_in, memory_in, model, "attn.enc.self"), model, "attn.enc.self_ln")
    return _sublayer(x, _ffn(x, model, "attn.enc.ffn"), model, "attn.enc.ffn_ln")


def _decode(target_in: ad.Tensor, memory: ad.Tensor, model: ModelParams) -> ad.Tensor:
    x = _sublayer(target_in, _multi_head_attention(target_in, target_in, model, "attn.dec.self"), model, "attn.dec.self_ln")
    x = _sublayer(x, _multi_head_attention(x, memory, model, "attn.dec.cross"), model, "attn.dec.cross_ln")
    return _sublayer(x, _ffn(x, model, "attn.dec.ffn"), model, "attn.dec.ffn_ln")


def _cross_residual(own: ad.Tensor, other: ad.Tensor, model: ModelParams) -> ad.Tensor:
    """Residual update for ``own`` conditioned on ``other`` (asymmetric)."""
    p = model.params
    decoded = _decode(own, _encode(other, model), model)
    return ad.affine(decoded, p["attn.out.w"], p["attn.out.b"])


def transformer_attention(
    f_x: ad.Tensor, f_y: ad.Tensor, model: ModelParams
) -> tuple[ad.Tensor, ad.Tensor]:
    """Co-contextual embeddings: each cloud's features plus a learned
    residual computed from both clouds. No positional encoding is used;
    point index carries no information. ``f_x`` (B, n, d) and ``f_y``
    (B, m, d) give (B, n, d) and (B, m, d).

    A call no tape records, on ``f_x`` and ``f_y`` of one shape, computes
    the residual once, on the stack ``[f_x; f_y]`` attending to ``[f_y;
    f_x]``, and returns its two halves. Every row of attention, layer norm
    and the affine maps depends only on its own cloud, so the halves equal
    the two per-direction calls that a recorded call or a pair of n != m
    points makes, bit for bit."""
    if f_x.shape[-1] != f_y.shape[-1]:
        raise ShapeError(f"embedding dims differ: {f_x.shape} vs {f_y.shape}")
    if not _one_stack(f_x, f_y):
        return ad.add(f_x, _cross_residual(f_x, f_y, model)), ad.add(f_y, _cross_residual(f_y, f_x, model))
    own, other = ad.tensor(np.stack([f_x.data, f_y.data])), ad.tensor(np.stack([f_y.data, f_x.data]))
    phi = ad.add(own, _cross_residual(own, other, model)).data
    return ad.tensor(phi[0]), ad.tensor(phi[1])


# ---------------------------------------------------------------------------
# Pointer, soft correspondence, heads
# ---------------------------------------------------------------------------

def pointer_softmatch(phi_x: ad.Tensor, phi_y: ad.Tensor) -> ad.Tensor:
    """Row-stochastic soft assignment of each source point over targets,
    from raw inner-product logits: (B, n, m) from (B, n, d) and
    (B, m, d)."""
    if phi_x.shape[-1] != phi_y.shape[-1]:
        raise ShapeError(f"embedding dims differ: {phi_x.shape} vs {phi_y.shape}")
    return ad.softmax(ad.matmul(phi_x, ad.swap_last(phi_y)), axis=-1)


def soft_correspondence(match: ad.Tensor, y_points) -> ad.Tensor:
    """Blend target points by match weights: ``match`` (B, n, m) over a
    batch of B target clouds of m points (see :func:`cloud_stack`) gives
    (B, n, 3) points, each row in the convex hull of its target cloud."""
    y = cloud_stack(y_points)
    if match.shape[:-2] != y.shape[:-2] or match.shape[-1] != y.shape[-2]:
        raise ShapeError(f"match {match.shape} does not fit target clouds {y.shape}")
    return ad.matmul(match, ad.constant(y.astype(match.dtype)))


_CROSS_GENERATORS = np.array(
    [
        [[0.0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0.0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0.0, -1, 0], [1, 0, 0], [0, 0, 0]],
    ]
)


def _quaternion_basis() -> np.ndarray:
    """(16, 9) map from ``q q^T`` (flattened) to the flattened rotation of
    a unit quaternion q = (w, v): ``R = (w^2 - v.v) I + 2 v v^T + 2 w [v]x``,
    each term a quadratic form in q."""
    eye = np.eye(3)
    basis = np.zeros((4, 4, 3, 3))
    basis[0, 0] = eye
    basis[1:, 1:] = 2.0 * np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("ij,kl->ijkl", eye, eye)
    basis[0, 1:] = 2.0 * _CROSS_GENERATORS
    return basis.reshape(16, 9)


_QUATERNION_BASIS = _quaternion_basis()


def quaternion_to_rotation(quat: ad.Tensor) -> ad.Tensor:
    """Differentiable quaternion (w, x, y, z) to rotation matrix, per pair:
    (B, 4) to (B, 3, 3).

    The quaternion is normalized internally, as ``R(q) = (q q^T) B / |q|^2``
    with B the quadratic basis of a unit quaternion; a norm below 1e-12 is a
    degenerate output."""
    if quat.ndim != 2 or quat.shape[1] != 4:
        raise ShapeError(f"quaternions must have shape (B, 4), got {quat.shape}")
    b = quat.shape[0]
    norm_sq = ad.sum_reduce(ad.mul(quat, quat), axis=-1)
    if (norm_sq.data < 1e-24).any():
        raise DegenerateOutputError("quaternion norm below 1e-12; cannot build a rotation")
    outer = ad.matmul(ad.reshape(quat, (b, 4, 1)), ad.reshape(quat, (b, 1, 4)))
    basis = ad.constant(_QUATERNION_BASIS, dtype=quat.dtype)
    rotation = ad.reshape(ad.matmul(ad.reshape(outer, (b, 1, 16)), basis), (b, 3, 3))
    return ad.div(rotation, ad.reshape(norm_sq, (b, 1, 1)))


def mlp_head(
    phi_x: ad.Tensor, phi_y: ad.Tensor, model: ModelParams, training: bool = False
) -> tuple[ad.Tensor, ad.Tensor]:
    """Regression head: pooled global features to quaternion + translation.

    ``phi_x`` (B, n, d) and ``phi_y`` (B, m, d) give a rotation (B, 3, 3)
    and a translation (B, 3) per pair. Hidden layers take no bias, since
    their batch norm sees the B pooled rows: in training it subtracts their
    mean, so it needs B >= 2; in inference it uses the running statistics.
    """
    p = model.params
    gx = ad.max_reduce(phi_x, axis=-2)
    gy = ad.max_reduce(phi_y, axis=-2)
    h = ad.concat([gx, gy], axis=-1)
    for i in range(len(model.config.mlp_head_widths)):
        name = f"head.fc{i}"
        h = ad.affine(h, p[f"{name}.w"])
        h = ad.batch_norm(
            h, p[f"{name}.bn.gamma"], p[f"{name}.bn.beta"], model.bn_states[f"{name}.bn"], training
        )
        h = ad.relu(h)
    rotation = quaternion_to_rotation(ad.affine(h, p["head.rot.w"], p["head.rot.b"]))
    translation = ad.affine(h, p["head.trans.w"], p["head.trans.b"])
    return rotation, translation


# ---------------------------------------------------------------------------
# Full forward, prediction, loss
# ---------------------------------------------------------------------------

class DcpForward(NamedTuple):
    """Outputs of :func:`dcp_forward` on B pairs of n source and m target points."""

    rotation: ad.Tensor  # (B, 3, 3)
    translation: ad.Tensor  # (B, 3)
    match: ad.Tensor  # (B, n, m) row-stochastic
    soft_target: ad.Tensor  # (B, n, 3) blended target points


def dcp_forward(x_points, y_points, model: ModelParams, training: bool = False) -> DcpForward:
    """Differentiable registration forward pass on a batch of B pairs.

    ``x_points`` and ``y_points`` are each a batch of B clouds, of n and m
    points (a list, or a (B, n, 3) array; see :func:`cloud_stack`); the
    outputs are those of :class:`DcpForward`. The B sources are embedded
    as one row block and the B targets as another, so in training every
    batch norm of the embedding normalises over the edges (DGCNN) or
    points (PointNet) of all B clouds, and the MLP head's over the B pairs;
    inference uses the running statistics, so each pair's output does not
    depend on the rest of the batch. For the same reason an inference
    forward that no tape records, with n == m, embeds the B sources and B
    targets as one block of 2B clouds, and attends both ways as one stack,
    with outputs equal bit for bit to the per-side calls.
    """
    xs, phi_x, phi_y, match, soft_target = _soft_match(x_points, y_points, model, training)
    if model.config.head == "svd":
        rotation, translation = ad.svd_rigid_head(ad.constant(xs.astype(model.config.np_dtype)), soft_target)
    else:
        rotation, translation = mlp_head(phi_x, phi_y, model, training)
    return DcpForward(rotation, translation, match, soft_target)


def _soft_match(x_points, y_points, model: ModelParams, training: bool):
    """The forward up to the soft targets, shared by :func:`dcp_forward`
    and :func:`dcp_predict`: the (B, n, 3) source stack, both embeddings,
    the match and the soft targets."""
    xs = cloud_stack(x_points)
    ys = cloud_stack(y_points)
    if len(xs) != len(ys):
        raise ShapeError(f"a batch pairs {len(xs)} source clouds with {len(ys)} target clouds")
    if not training and _one_stack(xs, ys):
        f = embed_cloud(np.concatenate([xs, ys]), model).data
        f_x, f_y = ad.tensor(f[: len(xs)]), ad.tensor(f[len(xs) :])
    else:
        f_x = embed_cloud(xs, model, training)
        f_y = embed_cloud(ys, model, training)
    if model.config.attention:
        phi_x, phi_y = transformer_attention(f_x, f_y, model)
    else:
        phi_x, phi_y = f_x, f_y
    match = pointer_softmatch(phi_x, phi_y)
    return xs, phi_x, phi_y, match, soft_correspondence(match, ys)


def _one_stack(x, y) -> bool:
    """Whether a step may run its source side ``x`` and target side ``y``
    as one stack: with no tape recording, on sides of one shape. A tape
    must keep its per-side gradient-summation order. Embedding also needs
    inference mode: its running statistics make each cloud's rows
    independent of the others, so the stack's halves equal the per-side
    calls bit for bit, while training normalises each side with its own
    statistics."""
    return not ad._TAPES and x.shape == y.shape


def dcp_predict(x_points, y_points, model: ModelParams) -> geo.RigidTransform:
    """Inference-mode registration of one pair, run as a batch of one,
    returning a validated rigid transform. When the source and target have
    the same number of points, both clouds are embedded in one call and
    attended as one stack (see :func:`dcp_forward`).

    The final alignment is recomputed in float64 so the output satisfies
    the strict orthogonality invariants regardless of model precision; with
    the SVD head that solve is the whole head, so its float32 form is not
    run.
    """
    if model.config.head == "svd":
        soft_target = _soft_match([x_points], [y_points], model, training=False)[-1]
        return geo.procrustes_solve(geo._as_points(x_points), np.asarray(soft_target.data[0], dtype=np.float64))
    out = dcp_forward([x_points], [y_points], model, training=False)
    rotation = _nearest_rotation(out.rotation.data[0])
    return geo.RigidTransform(rotation, np.asarray(out.translation.data[0], dtype=np.float64))


def _nearest_rotation(rotation: np.ndarray) -> np.ndarray:
    # Re-orthonormalize a low-precision rotation via its polar factor.
    u, _, v = geo.svd3(np.asarray(rotation, dtype=np.float64))
    return u @ v.T


def dcp_loss(rotation: ad.Tensor, translation: ad.Tensor, gts) -> ad.Tensor:
    """Squared alignment error against the generating motion,
    ``|R^T Rg - I|_F^2 + |t - tg|^2``, averaged over a batch of B pairs.
    The paper's ``lambda * |theta|^2`` penalty is Adam's weight decay
    (``TrainConfig.weight_decay``).

    ``rotation`` (B, 3, 3) and ``translation`` (B, 3) are scored against
    the sequence ``gts`` of B ground-truth ``RigidTransform``s."""
    rg = np.stack([g.rotation for g in gts])
    tg = np.stack([g.translation for g in gts])
    if rotation.shape != rg.shape or translation.shape != tg.shape:
        raise ShapeError(
            f"dcp_loss: {len(gts)} ground truths for rotation {rotation.shape} and translation {translation.shape}"
        )
    dtype = rotation.dtype
    eye = ad.constant(np.eye(3), dtype=dtype)
    dr = ad.sub(ad.matmul(ad.swap_last(rotation), ad.constant(rg, dtype=dtype)), eye)
    dt = ad.sub(translation, ad.constant(tg, dtype=dtype))
    total = ad.add(ad.sum_reduce(ad.mul(dr, dr)), ad.sum_reduce(ad.mul(dt, dt)))
    return ad.mul(total, ad.constant(1.0 / len(gts), dtype=dtype))
