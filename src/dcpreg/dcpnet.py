"""The learned registration model.

Pipeline: per-point embeddings (point-wise MLP or edge-convolution graph
network), optional cross-cloud attention residual, soft pointer matching,
soft correspondence averaging, and a rigid head (differentiable SVD by
default, quaternion MLP as the ablation variant). DCP-v1 skips the
attention stage; DCP-v2 includes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from . import autodiff as ad
from . import geometry as geo
from . import icp
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
    attn_dims: int | None = None  # None -> emb_dims
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
        for name in ("widths", "emb_dims", "heads", "attn_dims", "ffn_dims", "mlp_head_widths", "knn_k"):
            value = getattr(self, name)
            if value is not None and any(v < 1 for v in (value if isinstance(value, tuple) else (value,))):
                raise InvalidInputError(f"{name} must be at least 1, got {value}")
        if self.embedding == "dgcnn" and not self.resolved_widths:
            raise InvalidInputError("widths must not be empty for the dgcnn embedding")
        if self.attention and self.feature_dims % self.heads != 0:
            raise InvalidInputError(
                f"attention dims {self.feature_dims} not divisible by {self.heads} heads"
            )

    @property
    def resolved_widths(self) -> tuple[int, ...]:
        if self.widths is not None:
            return tuple(self.widths)
        return DGCNN_DEFAULT_WIDTHS if self.embedding == "dgcnn" else POINTNET_DEFAULT_WIDTHS

    @property
    def feature_dims(self) -> int:
        """Width of the features entering the pointer stage."""
        if self.attention and self.attn_dims is not None:
            return self.attn_dims
        return self.emb_dims

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


class KnnGraph(NamedTuple):
    k: int
    indices: np.ndarray  # (N, k) neighbor rows, ties broken by lowest index


def knn_graph(points, k: int) -> KnnGraph:
    """Exact k nearest neighbors by Euclidean distance, self excluded."""
    pts = np.asarray(getattr(points, "points", points), dtype=np.float64)
    n = pts.shape[0]
    if k < 1 or k >= n:
        raise InvalidInputError(f"k must satisfy 1 <= k < n_points, got k={k}, n={n}")
    indices, _ = icp._exact_knn(cKDTree(pts), pts, k, skip_self=True)
    return KnnGraph(k=k, indices=indices)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class ModelParams:
    """Configuration plus all learnable tensors and normalization state."""

    config: ModelConfig
    params: dict[str, ad.Tensor] = field(default_factory=dict)
    bn_states: dict[str, ad.BatchNormState] = field(default_factory=dict)

    @staticmethod
    def initialize(config: ModelConfig, seed: int) -> "ModelParams":
        return _Builder(config, np.random.default_rng(seed)).build()

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()


class _Builder:
    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.dtype = config.np_dtype
        self.params: dict[str, ad.Tensor] = {}
        self.bn_states: dict[str, ad.BatchNormState] = {}

    def affine(self, name: str, n_in: int, n_out: int, zero: bool = False, bias: bool = True) -> None:
        if zero:
            w = np.zeros((n_in, n_out))
        else:
            bound = math.sqrt(6.0 / n_in)
            w = self.rng.uniform(-bound, bound, size=(n_in, n_out))
        self.params[f"{name}.w"] = ad.tensor(w.astype(self.dtype), requires_grad=True)
        if bias:
            self.params[f"{name}.b"] = ad.tensor(np.zeros(n_out, dtype=self.dtype), requires_grad=True)

    def edge_map(self, name: str, c_in: int, c_out: int) -> None:
        # One logical (2*c_in, c_out) edge map stored as its vertex and
        # offset halves; fan-in scaling matches the concatenated form.
        bound = math.sqrt(6.0 / (2 * c_in))
        for part in ("wa", "wb"):
            w = self.rng.uniform(-bound, bound, size=(c_in, c_out))
            self.params[f"{name}.{part}"] = ad.tensor(w.astype(self.dtype), requires_grad=True)

    def batch_norm(self, name: str, channels: int) -> None:
        self.params[f"{name}.gamma"] = ad.tensor(np.ones(channels, dtype=self.dtype), requires_grad=True)
        self.params[f"{name}.beta"] = ad.tensor(np.zeros(channels, dtype=self.dtype), requires_grad=True)
        self.bn_states[name] = ad.BatchNormState.create(channels, dtype=self.dtype)

    def layer_norm(self, name: str, channels: int) -> None:
        self.params[f"{name}.g"] = ad.tensor(np.ones(channels, dtype=self.dtype), requires_grad=True)
        self.params[f"{name}.b"] = ad.tensor(np.zeros(channels, dtype=self.dtype), requires_grad=True)

    def attention_block(self, name: str, dims: int) -> None:
        for proj in ("wq", "wk", "wv", "wo"):
            self.affine(f"{name}.{proj}", dims, dims)

    def build(self) -> ModelParams:
        cfg = self.config
        widths = cfg.resolved_widths

        # Embedding layers carry no bias: batch norm follows each one and
        # subtracts any per-channel constant.
        if cfg.embedding == "dgcnn":
            c_in = 3
            for i, width in enumerate(widths):
                self.edge_map(f"embed.l{i}", c_in, width)
                self.batch_norm(f"embed.l{i}.bn", width)
                c_in = width
            cat = sum(widths)
            self.edge_map(f"embed.l{len(widths)}", cat, cfg.emb_dims)
            self.batch_norm(f"embed.l{len(widths)}.bn", cfg.emb_dims)
        else:
            c_in = 3
            for i, width in enumerate(tuple(widths) + (cfg.emb_dims,)):
                self.affine(f"embed.l{i}", c_in, width, bias=False)
                self.batch_norm(f"embed.l{i}.bn", width)
                c_in = width

        if cfg.attention:
            dims = cfg.feature_dims
            if dims != cfg.emb_dims:
                self.affine("attn.in_proj", cfg.emb_dims, dims)
            self.attention_block("attn.enc.self", dims)
            self.layer_norm("attn.enc.self_ln", dims)
            self.affine("attn.enc.ffn.l0", dims, cfg.ffn_dims)
            self.affine("attn.enc.ffn.l1", cfg.ffn_dims, dims)
            self.layer_norm("attn.enc.ffn_ln", dims)
            self.attention_block("attn.dec.self", dims)
            self.layer_norm("attn.dec.self_ln", dims)
            self.attention_block("attn.dec.cross", dims)
            self.layer_norm("attn.dec.cross_ln", dims)
            self.affine("attn.dec.ffn.l0", dims, cfg.ffn_dims)
            self.affine("attn.dec.ffn.l1", cfg.ffn_dims, dims)
            self.layer_norm("attn.dec.ffn_ln", dims)
            # Residual output projection starts at zero so an untrained
            # attention stage is an exact no-op (v2 == v1 at init).
            self.affine("attn.out", dims, dims, zero=True)

        if cfg.head == "mlp":
            n_in = 2 * cfg.feature_dims
            for i, width in enumerate(cfg.mlp_head_widths):
                self.affine(f"head.fc{i}", n_in, width)
                self.batch_norm(f"head.fc{i}.bn", width)
                n_in = width
            self.affine("head.rot", n_in, 4)
            self.affine("head.trans", n_in, 3)

        return ModelParams(cfg, self.params, self.bn_states)


def _pts(points) -> np.ndarray:
    return np.asarray(getattr(points, "points", points), dtype=np.float64)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def pointnet_embed(points, model: ModelParams, training: bool = False) -> ad.Tensor:
    """Shared per-point MLP; no information flows between points."""
    cfg = model.config
    f = ad.tensor(_pts(points).astype(cfg.np_dtype))
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
    graph: KnnGraph,
    model: ModelParams,
    name: str,
    training: bool = False,
) -> ad.Tensor:
    """Edge convolution: per-edge MLP on (x_i, x_j - x_i), then batch norm,
    ReLU and the max over neighbors, at per-point cost in both modes.

    The edge map is linear: ``x_i @ Wa + (x_j - x_i) @ Wb == x_i @ (Wa - Wb)
    + x_j @ Wb``. So two GEMMs give each point ``center = f @ (Wa - Wb)``
    and ``per_point = f @ Wb``, and edge (i, j) has the pre-activation
    ``center_i + per_point_j``. :func:`autodiff.edgeconv_bn_max` does the
    rest without building that (n, k, c_out) array:

    - Statistics. In training, batch norm's mu and var cover every edge.
      They come from O(n * c_out) moments, with ``d`` the in-degrees and
      ``A`` the kNN adjacency: ``nk * mu = k * sum(center) + sum(d *
      per_point)``, and on centred values ``a``, ``b`` (so that ``h - mu =
      a_i + b_j``), ``nk * var = k * sum(a^2) + 2 * sum(a * (A b)) + sum(d *
      b^2)``, in float64. In inference they are the running statistics.
    - Fold. With mu and var fixed, batch norm and ReLU are monotone per
      channel (non-decreasing where gamma > 0, non-increasing where gamma <
      0), and so is each IEEE-rounded step of them. So ``max_k
      relu(bn(center_i + P_j))`` equals ``relu(bn(center_i + pick_i))`` bit
      for bit, with ``pick = s * max_k(s * P_j)`` and ``s = sign(gamma)``
      (negation is exact). Batch norm and ReLU then run on (n, c_out).
    - Gamma = 0. There every edge gives the same output, and the layer takes
      neighbor 0, as a per-edge max would; that edge's normalised value is
      what the gradient of gamma sees.
    """
    if graph.indices.shape[0] != f.shape[0]:
        raise ShapeError(f"graph rows {graph.indices.shape[0]} != feature rows {f.shape[0]}")
    p = model.params
    wb = p[f"{name}.wb"]
    center = ad.matmul(f, ad.sub(p[f"{name}.wa"], wb))  # (n, c_out)
    per_point = ad.matmul(f, wb)  # (n, c_out)
    return ad.edgeconv_bn_max(
        center,
        per_point,
        graph.indices,
        p[f"{name}.bn.gamma"],
        p[f"{name}.bn.beta"],
        model.bn_states[f"{name}.bn"],
        training,
    )


def dgcnn_embed(points, model: ModelParams, training: bool = False) -> ad.Tensor:
    """Stacked edge convolutions; intermediate outputs concatenated into the
    final layer. The neighbor graph is built once from input coordinates."""
    cfg = model.config
    pts = _pts(points)
    graph = knn_graph(pts, cfg.knn_k)
    f = ad.tensor(pts.astype(cfg.np_dtype))
    layer_outputs = []
    for i in range(len(cfg.resolved_widths)):
        f = edgeconv_layer(f, graph, model, f"embed.l{i}", training)
        layer_outputs.append(f)
    cat = ad.concat(layer_outputs, axis=1)
    return edgeconv_layer(cat, graph, model, f"embed.l{len(cfg.resolved_widths)}", training)


def embed_cloud(points, model: ModelParams, training: bool = False) -> ad.Tensor:
    if model.config.embedding == "dgcnn":
        return dgcnn_embed(points, model, training)
    return pointnet_embed(points, model, training)


# ---------------------------------------------------------------------------
# Attention residual
# ---------------------------------------------------------------------------

def _multi_head_attention(q_in: ad.Tensor, kv_in: ad.Tensor, model: ModelParams, name: str) -> ad.Tensor:
    """Project to queries, keys and values, attend per head (``ad.attention``)
    and project the concatenated heads back."""
    p = model.params
    q = ad.affine(q_in, p[f"{name}.wq.w"], p[f"{name}.wq.b"])
    k = ad.affine(kv_in, p[f"{name}.wk.w"], p[f"{name}.wk.b"])
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
    point index carries no information."""
    if f_x.shape[1] != f_y.shape[1]:
        raise ShapeError(f"embedding dims differ: {f_x.shape} vs {f_y.shape}")
    p = model.params
    if "attn.in_proj.w" in p:
        f_x = ad.affine(f_x, p["attn.in_proj.w"], p["attn.in_proj.b"])
        f_y = ad.affine(f_y, p["attn.in_proj.w"], p["attn.in_proj.b"])
    phi_x = ad.add(f_x, _cross_residual(f_x, f_y, model))
    phi_y = ad.add(f_y, _cross_residual(f_y, f_x, model))
    return phi_x, phi_y


# ---------------------------------------------------------------------------
# Pointer, soft correspondence, heads
# ---------------------------------------------------------------------------

def pointer_softmatch(phi_x: ad.Tensor, phi_y: ad.Tensor) -> ad.Tensor:
    """Row-stochastic soft assignment of each source point over targets,
    from raw inner-product logits."""
    if phi_x.shape[1] != phi_y.shape[1]:
        raise ShapeError(f"embedding dims differ: {phi_x.shape} vs {phi_y.shape}")
    return ad.softmax(ad.matmul(phi_x, ad.transpose(phi_y)), axis=1)


def soft_correspondence(match: ad.Tensor, y_points) -> ad.Tensor:
    """Blend target points by match weights: each row lands in the convex
    hull of the target cloud."""
    y = np.asarray(getattr(y_points, "points", y_points), dtype=np.float64)
    if match.shape[1] != y.shape[0]:
        raise ShapeError(f"match columns {match.shape[1]} != target size {y.shape[0]}")
    return ad.matmul(match, ad.constant(y.astype(match.dtype)))


_CROSS_GENERATORS = np.array(
    [
        [[0.0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0.0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0.0, -1, 0], [1, 0, 0], [0, 0, 0]],
    ]
)


def quaternion_to_rotation(quat: ad.Tensor) -> ad.Tensor:
    """Differentiable unit-quaternion (w, x, y, z) to rotation matrix.

    The quaternion is normalized internally; a norm below 1e-12 is a
    degenerate output."""
    if quat.shape != (4,):
        raise ShapeError(f"quaternion must have shape (4,), got {quat.shape}")
    norm_sq = ad.sum_reduce(ad.mul(quat, quat))
    if float(norm_sq.data) < 1e-24:
        raise DegenerateOutputError("quaternion norm below 1e-12; cannot build a rotation")
    qn = ad.div(quat, ad.reshape(ad.sqrt(norm_sq), (1,)))
    w = ad.gather(qn, np.array([0]))  # (1,)
    v = ad.gather(qn, np.array([1, 2, 3]))  # (3,)
    vcol = ad.reshape(v, (3, 1))
    vvt = ad.matmul(vcol, ad.transpose(vcol))
    w2 = ad.mul(w, w)
    vtv = ad.reshape(ad.sum_reduce(ad.mul(v, v)), (1,))
    eye = ad.constant(np.eye(3), dtype=quat.dtype)
    term1 = ad.mul(ad.sub(w2, vtv), eye)
    two = ad.constant(2.0, dtype=quat.dtype)
    cross = None
    for i in range(3):
        gen = ad.constant(_CROSS_GENERATORS[i], dtype=quat.dtype)
        part = ad.mul(ad.gather(v, np.array([i])), gen)
        cross = part if cross is None else ad.add(cross, part)
    term2 = ad.mul(two, vvt)
    term3 = ad.mul(ad.mul(two, w), cross)
    return ad.add(ad.add(term1, term2), term3)


def mlp_head(
    phi_x: ad.Tensor, phi_y: ad.Tensor, model: ModelParams, training: bool = False
) -> tuple[ad.Tensor, ad.Tensor]:
    """Regression head: pooled global features to quaternion + translation.

    Single-pair forward normalizes with running statistics (a batch of one
    has no batch statistics); batched inputs would use batch statistics.
    """
    p = model.params
    gx = ad.reshape(ad.max_reduce(phi_x, axis=0), (1, phi_x.shape[1]))
    gy = ad.reshape(ad.max_reduce(phi_y, axis=0), (1, phi_y.shape[1]))
    h = ad.concat([gx, gy], axis=1)
    bn_training = training and h.shape[0] >= 2
    for i in range(len(model.config.mlp_head_widths)):
        name = f"head.fc{i}"
        h = ad.affine(h, p[f"{name}.w"], p[f"{name}.b"])
        h = ad.batch_norm(
            h, p[f"{name}.bn.gamma"], p[f"{name}.bn.beta"], model.bn_states[f"{name}.bn"], bn_training
        )
        h = ad.relu(h)
    quat = ad.reshape(ad.affine(h, p["head.rot.w"], p["head.rot.b"]), (4,))
    rotation = quaternion_to_rotation(quat)
    translation = ad.reshape(ad.affine(h, p["head.trans.w"], p["head.trans.b"]), (3,))
    return rotation, translation


# ---------------------------------------------------------------------------
# Full forward, prediction, loss
# ---------------------------------------------------------------------------

class DcpForward(NamedTuple):
    rotation: ad.Tensor  # (3, 3)
    translation: ad.Tensor  # (3,)
    match: ad.Tensor  # (N, M) row-stochastic
    soft_target: ad.Tensor  # (N, 3) blended target points


def dcp_forward(x_points, y_points, model: ModelParams, training: bool = False) -> DcpForward:
    """Differentiable registration forward pass on one cloud pair."""
    cfg = model.config
    f_x = embed_cloud(x_points, model, training)
    f_y = embed_cloud(y_points, model, training)
    if cfg.attention:
        phi_x, phi_y = transformer_attention(f_x, f_y, model)
    else:
        phi_x, phi_y = f_x, f_y
    match = pointer_softmatch(phi_x, phi_y)
    soft_target = soft_correspondence(match, y_points)
    if cfg.head == "svd":
        src = ad.constant(_pts(x_points).astype(cfg.np_dtype))
        rotation, translation = ad.svd_rigid_head(src, soft_target)
    else:
        rotation, translation = mlp_head(phi_x, phi_y, model, training)
    return DcpForward(rotation, translation, match, soft_target)


def dcp_predict(x_points, y_points, model: ModelParams) -> geo.RigidTransform:
    """Inference-mode registration returning a validated rigid transform.

    The final alignment is recomputed in float64 so the output satisfies
    the strict orthogonality invariants regardless of model precision.
    """
    out = dcp_forward(x_points, y_points, model, training=False)
    if model.config.head == "svd":
        return geo.procrustes_solve(_pts(x_points), np.asarray(out.soft_target.data, dtype=np.float64))
    rotation = _nearest_rotation(out.rotation.data)
    return geo.RigidTransform(rotation, np.asarray(out.translation.data, dtype=np.float64))


def _nearest_rotation(rotation: np.ndarray) -> np.ndarray:
    # Re-orthonormalize a low-precision rotation via its polar factor.
    u, _, v = geo.svd3(np.asarray(rotation, dtype=np.float64))
    return u @ v.T


def dcp_loss(
    rotation: ad.Tensor,
    translation: ad.Tensor,
    gt: geo.RigidTransform,
    model: ModelParams | None = None,
    weight_lambda: float = 0.0,
) -> ad.Tensor:
    """Squared alignment error against the generating motion.

    ``|R^T Rg - I|_F^2 + |t - tg|^2`` plus optional Tikhonov term
    ``lambda * |theta|^2``; by default the parameter penalty is realized as
    optimizer weight decay instead and lambda stays 0."""
    dtype = rotation.dtype
    rg = ad.constant(np.asarray(gt.rotation, dtype=dtype))
    tg = ad.constant(np.asarray(gt.translation, dtype=dtype))
    eye = ad.constant(np.eye(3), dtype=dtype)
    dr = ad.sub(ad.matmul(ad.transpose(rotation), rg), eye)
    dt = ad.sub(translation, tg)
    loss = ad.add(ad.sum_reduce(ad.mul(dr, dr)), ad.sum_reduce(ad.mul(dt, dt)))
    if weight_lambda > 0.0:
        if model is None:
            raise InvalidInputError("weight_lambda > 0 requires model parameters")
        lam = ad.constant(weight_lambda, dtype=dtype)
        for t in model.params.values():
            loss = ad.add(loss, ad.mul(lam, ad.sum_reduce(ad.mul(t, t))))
    return loss
