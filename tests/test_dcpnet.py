import copy
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from dcpreg import autodiff as ad, dataio, dcpnet, geometry as geo
from dcpreg.errors import DegenerateOutputError, InvalidInputError, ShapeError

import gradcheck
import reference_forms as ref
from gradcheck import numeric_grad

from conftest import random_rotation

TINY_V1 = dcpnet.ModelConfig(
    embedding="dgcnn", widths=(4, 4), emb_dims=8, attention=False,
    heads=2, ffn_dims=16, knn_k=3, head="svd", dtype="float64",
)
TINY_V2 = replace(TINY_V1, attention=True)


def unit_points(rng, n=16):
    pts = rng.normal(size=(n, 3))
    pts -= pts.mean(axis=0)
    return pts / np.linalg.norm(pts, axis=1).max()


# ---------------------------------------------------------------------------
# knn graph
# ---------------------------------------------------------------------------

def test_knn_collinear_endpoints():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    g = dcpnet.knn_graph(pts, 1)
    assert g[0, 0] == 1
    assert g[3, 0] == 2


def test_knn_complete_graph(rng):
    pts = rng.normal(size=(6, 3))
    g = dcpnet.knn_graph(pts, 5)
    for i in range(6):
        assert set(g[i]) == set(range(6)) - {i}


def test_knn_matches_bruteforce(rng):
    pts = rng.normal(size=(500, 3))
    g = dcpnet.knn_graph(pts, 20)
    for i in range(0, 500, 13):
        d = np.linalg.norm(pts - pts[i], axis=1)
        d[i] = np.inf
        want = np.argsort(d, kind="stable")[:20]
        assert np.array_equal(g[i], want)


def dense_sq_distances(pts):
    """The dense form knn_graph replaced: full squared-distance matrix, self
    masked."""
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    return d2


def assert_valid_knn(pts, graph):
    """Row i lists k distinct points other than i, nearest first, at the
    dense reference row's k smallest squared distances."""
    n, k = graph.shape
    d2 = dense_sq_distances(pts)
    rows = np.arange(n)[:, None]
    assert (graph != rows).all()
    assert all(len(set(row)) == k for row in graph)
    got = d2[rows, graph]
    assert (np.diff(got, axis=1) >= 0).all()
    assert np.array_equal(got, np.sort(d2, axis=1)[:, :k])


def knn_reference_cloud(rng, kind):
    if kind == "normal":
        return rng.normal(size=(40, 3))
    if kind == "lattice":  # many exact distance ties
        axis = np.arange(3.0)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        return grid[rng.permutation(len(grid))]
    base = rng.normal(size=(8, 3))  # duplicate points: zero-distance ties
    return base[rng.integers(0, len(base), size=30)]


@pytest.mark.parametrize("kind", ["normal", "lattice", "duplicates"])
def test_knn_matches_dense_reference(rng, kind):
    pts = knn_reference_cloud(rng, kind)
    for k in range(1, len(pts)):
        graph = dcpnet.knn_graph(pts, k)
        assert_valid_knn(pts, graph)
        if kind == "normal":  # no distance ties, so one valid graph
            assert np.array_equal(graph, np.argsort(dense_sq_distances(pts), axis=1, kind="stable")[:, :k]), k


def test_knn_invalid_k(rng):
    pts = rng.normal(size=(5, 3))
    with pytest.raises(InvalidInputError):
        dcpnet.knn_graph(pts, 5)
    with pytest.raises(InvalidInputError):
        dcpnet.knn_graph(pts, 0)


def test_knn_tie_lists_every_equidistant_point():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [2.0, 0, 0]])
    g = dcpnet.knn_graph(pts, 2)
    assert sorted(g[0]) == [1, 2]  # both at distance 1
    assert_valid_knn(pts, g)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

# DCP-v1 and v2, DGCNN and PointNet, SVD and MLP heads.
TABLE_CONFIGS = [
    replace(TINY_V1, attention=attention, embedding=embedding, head=head, widths=(4, 6), mlp_head_widths=(6, 5))
    for attention, embedding, head in itertools.product((False, True), ("dgcnn", "pointnet"), ("svd", "mlp"))
]


@pytest.mark.parametrize("cfg", TABLE_CONFIGS, ids=lambda c: f"{c.attention}-{c.embedding}-{c.head}")
def test_model_shapes_are_the_tensors_initialize_builds(cfg):
    """The table lists every parameter and batch-norm state, by its
    checkpoint member name, at the shape ``initialize`` builds, and the
    parameters in the order it builds them."""
    model = dcpnet.ModelParams.initialize(cfg, seed=3)
    built = {f"param/{name}": t.shape for name, t in model.params.items()}
    for site, state in model.bn_states.items():
        built[f"bnstate/{site}/mean"], built[f"bnstate/{site}/var"] = state.running_mean.shape, state.running_var.shape
    table = dcpnet.model_shapes(cfg)
    assert {name: spec.shape for name, spec in table.items()} == built
    assert [name for name in table if name.startswith("param/")] == [name for name in built if name.startswith("param/")]


# The MLP head pools each cloud by a max over its points, and its first
# batch norm, over the pairs of a batch, follows a bias-free map of the
# pooled rows. So any tensor that only adds one per-channel constant to
# every point of every cloud is cancelled there: the last embedding
# layer's batch-norm beta under v1 (while each channel's max over a cloud
# lies past the ReLU's kink, as it does here), and under v2 the bias of
# the attention's output projection and that of the layer norm feeding it.
# Each is live under the SVD head, and no protocol runs v2 with the MLP
# head.
MLP_HEAD_DEAD = {False: {"embed.l2.bn.beta"}, True: {"attn.out.b", "attn.dec.ffn_ln.b"}}


@pytest.mark.parametrize("cfg", [replace(c, mlp_head_widths=(6, 5, 4)) for c in TABLE_CONFIGS],
                         ids=lambda c: f"{c.attention}-{c.embedding}-{c.head}")
def test_every_parameter_gets_a_gradient(cfg):
    """One training step of a batch of 4 pairs reaches every tensor, past
    the ones that the MLP head's first batch norm cancels: a tensor is dead
    when its largest gradient is at most 1e-10 of the model's largest."""
    rng = np.random.default_rng(9)
    model = dcpnet.ModelParams.initialize(cfg, seed=4)
    for t in model.params.values():
        t.data = t.data + rng.normal(scale=0.1, size=t.shape)
    xs = [unit_points(rng) for _ in range(4)]
    gts = [geo.RigidTransform(random_rotation(rng), rng.uniform(-0.3, 0.3, 3)) for _ in xs]
    ys = [geo.apply_transform(gt, x) for gt, x in zip(gts, xs)]
    with ad.Tape() as tape:
        out = dcpnet.dcp_forward(xs, ys, model, training=True)
        loss = dcpnet.dcp_loss(out.rotation, out.translation, gts)
    ad.backward(tape, loss)
    reach = {name: 0.0 if t.grad is None else np.abs(t.grad).max() for name, t in model.params.items()}
    largest = max(reach.values())
    dead = {name for name, g in reach.items() if g <= 1e-10 * largest}
    want = MLP_HEAD_DEAD[cfg.attention] if cfg.head == "mlp" else set()
    assert dead == want, f"dead: {sorted(dead - want)}; live: {sorted(want - dead)}"


@pytest.mark.parametrize(
    "cfg", TABLE_CONFIGS + [replace(TINY_V2, dtype="float32"), dcpnet.ModelConfig()],
    ids=lambda c: f"{c.attention}-{c.embedding}-{c.head}-{c.emb_dims}-{c.dtype}",
)
def test_initialize_equals_old_form_bit_for_bit(cfg):
    """Drawing from the table gives the values, dtypes and order of the
    layer-by-layer initializer, at paper size too."""
    new, old = dcpnet.ModelParams.initialize(cfg, seed=7), ref.initialize(cfg, seed=7)
    assert list(new.params) == list(old.params) and list(new.bn_states) == list(old.bn_states)
    for name, t in old.params.items():
        assert new.params[name].data.dtype == t.data.dtype and new.params[name].requires_grad
        assert new.params[name].data.tobytes() == t.data.tobytes(), name
    for site, state in old.bn_states.items():
        assert new.bn_states[site].running_mean.tobytes() == state.running_mean.tobytes()
        assert new.bn_states[site].running_var.tobytes() == state.running_var.tobytes()
        assert new.bn_states[site].running_var.dtype == state.running_var.dtype


@pytest.mark.parametrize("field, value", [
    ("emb_dims", 8.0), ("heads", True), ("knn_k", 4.5), ("widths", (4.0, 4)), ("widths", ("ab",)),
    ("mlp_head_widths", "x"), ("attention", "no"), ("widths", 5), ("mlp_head_widths", 5), ("mlp_head_widths", None),
    ("emb_dims", None),
])
def test_model_config_rejects_values_of_another_type(field, value):
    """A checkpoint's JSON config can hold any type; one that the model
    could not be built or run with is an ``InvalidInputError`` naming it."""
    with pytest.raises(InvalidInputError, match=field):
        replace(TINY_V1, **{field: value})


# ---------------------------------------------------------------------------
# pointnet embedding
# ---------------------------------------------------------------------------

def test_pointnet_duplicate_points_identical_rows(rng):
    cfg = replace(TINY_V1, embedding="pointnet")
    model = dcpnet.ModelParams.initialize(cfg, seed=0)
    pts = unit_points(rng, 10)
    pts[7] = pts[2]
    f = dcpnet.pointnet_embed([pts], model)
    assert np.array_equal(f.data[2], f.data[7])


def test_pointnet_permutation_equivariance(rng):
    cfg = replace(TINY_V1, embedding="pointnet")
    model = dcpnet.ModelParams.initialize(cfg, seed=0)
    pts = unit_points(rng, 12)
    perm = rng.permutation(12)
    f = dcpnet.pointnet_embed([pts], model)
    f_perm = dcpnet.pointnet_embed([pts[perm]], model)
    assert np.array_equal(f.data[perm], f_perm.data)


def test_pointnet_default_output_shape(rng):
    cfg = dcpnet.ModelConfig(embedding="pointnet", attention=False, dtype="float32")
    assert cfg.resolved_widths == (64, 64, 64, 128)
    model = dcpnet.ModelParams.initialize(cfg, seed=1)
    f = dcpnet.pointnet_embed([unit_points(rng, 1024)], model)
    assert f.shape == (1024, 512)


# ---------------------------------------------------------------------------
# edge convolution / dgcnn
# ---------------------------------------------------------------------------

def test_edgeconv_identical_inputs_give_identical_rows(rng):
    model = dcpnet.ModelParams.initialize(TINY_V1, seed=0)
    n, k = 6, 3
    f = ad.tensor(np.tile(rng.normal(size=(1, 3)), (n, 1)))
    graph = np.tile(np.arange(k), (n, 1))
    out = dcpnet.edgeconv_layer(f, graph, model, "embed.l0")
    assert np.allclose(out.data, out.data[0], atol=1e-12)


def test_edgeconv_k1_is_identity_aggregation(rng):
    model = dcpnet.ModelParams.initialize(TINY_V1, seed=0)
    pts = unit_points(rng, 8)
    graph = dcpnet.knn_graph(pts, 1)
    out = dcpnet.edgeconv_layer(ad.tensor(pts), graph, model, "embed.l0")
    # Manual single-edge computation: no max needed over one neighbor.
    xi = pts
    xj = pts[graph[:, 0]]
    wa = model.params["embed.l0.wa"].data
    wb = model.params["embed.l0.wb"].data
    st = model.bn_states["embed.l0.bn"]
    pre = xi @ wa + (xj - xi) @ wb
    xhat = (pre - st.running_mean) / np.sqrt(st.running_var + ad.BN_EPS)
    want = np.maximum(model.params["embed.l0.bn.gamma"].data * xhat + model.params["embed.l0.bn.beta"].data, 0)
    assert np.allclose(out.data, want, atol=1e-12)


def test_edgeconv_neighbor_order_invariance(rng):
    model = dcpnet.ModelParams.initialize(TINY_V1, seed=0)
    pts = unit_points(rng, 10)
    graph = dcpnet.knn_graph(pts, 4)
    shuffled = graph.copy()
    for row in shuffled:
        rng.shuffle(row)
    out1 = dcpnet.edgeconv_layer(ad.tensor(pts), graph, model, "embed.l0")
    out2 = dcpnet.edgeconv_layer(ad.tensor(pts), shuffled, model, "embed.l0")
    assert np.array_equal(out1.data, out2.data)


EDGE_CFG = replace(TINY_V1, widths=(6, 8))
EDGE_LAYER = "embed.l1"  # 6 input channels, 8 output channels


def split_form_edgeconv(f, graph, model, name, training):
    """The form edgeconv_layer replaced: ``x_i @ Wa + (x_j - x_i) @ Wb`` per
    edge, then batch norm, ReLU and the neighbor max, all per edge."""
    n, c = f.shape
    diff = ad.sub(ad.gather(f, graph), ad.reshape(f, (n, 1, c)))
    center = ad.matmul(f, model.params[f"{name}.wa"])
    h = ad.add(ad.reshape(center, (n, 1, center.shape[1])), ad.matmul(diff, model.params[f"{name}.wb"]))
    h = ad.batch_norm(
        h, model.params[f"{name}.bn.gamma"], model.params[f"{name}.bn.beta"], model.bn_states[f"{name}.bn"], training
    )
    return ad.max_reduce(ad.relu(h), axis=1)


def per_edge_eval_reference(f, graph, model, name):
    """``max_k relu(gamma * ((center_i + P_j) - mu) / sqrt(var + eps) + beta)``
    per edge, with the same per-point GEMMs as edgeconv_layer and in
    batch_norm's operation order, so the inference fold must match it bit
    for bit."""
    p = model.params
    wb = p[f"{name}.wb"].data
    center = f @ (p[f"{name}.wa"].data - wb)
    per_point = f @ wb
    st = model.bn_states[f"{name}.bn"]
    inv_std = 1.0 / np.sqrt(st.running_var.astype(f.dtype) + ad.BN_EPS)
    xhat = ((center[:, None, :] + per_point[graph]) - st.running_mean.astype(f.dtype)) * inv_std
    return np.maximum(p[f"{name}.bn.gamma"].data * xhat + p[f"{name}.bn.beta"].data, 0).max(axis=1)


def edge_case_model(rng, dtype, gamma_zeros=True):
    """EDGE_CFG weights with random beta and running statistics, and a gamma
    with both signs (plus 0.0 and -0.0 entries when ``gamma_zeros``)."""
    model = dcpnet.ModelParams.initialize(replace(EDGE_CFG, dtype=dtype), seed=20)
    gamma = rng.uniform(0.5, 2.0, size=8) * np.array([1, -1, 1, -1, -1, 1, 1, -1])
    if gamma_zeros:
        gamma[[4, 5]] = [0.0, -0.0]
    p, st = model.params, model.bn_states[f"{EDGE_LAYER}.bn"]
    p[f"{EDGE_LAYER}.bn.gamma"].data = gamma.astype(dtype)
    p[f"{EDGE_LAYER}.bn.beta"].data = rng.normal(size=8).astype(dtype)
    st.running_mean = rng.normal(scale=2.0, size=8).astype(dtype)
    st.running_var = rng.uniform(0.1, 4.0, size=8).astype(dtype)
    return model


def edge_case_input(rng, dtype, n=48, k=7):
    pts = rng.normal(size=(n, 3))
    return rng.normal(scale=3.0, size=(n, 6)).astype(dtype), dcpnet.knn_graph(pts, k)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_edgeconv_eval_fold_is_exact(rng, dtype):
    model = edge_case_model(rng, dtype)
    for _ in range(3):
        f, graph = edge_case_input(rng, dtype)
        out = dcpnet.edgeconv_layer(ad.tensor(f), graph, model, EDGE_LAYER)
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out.data, per_edge_eval_reference(f, graph, model, EDGE_LAYER))


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
@pytest.mark.parametrize("dtype, tol", [("float32", 1e-4), ("float64", 1e-10)])
def test_edgeconv_matches_split_form(rng, dtype, tol, training):
    model = edge_case_model(rng, dtype)
    reference = copy.deepcopy(model)  # training mode moves the running statistics
    f, graph = edge_case_input(rng, dtype)
    weights = ad.constant(rng.normal(size=(f.shape[0], 8)), dtype=dtype)
    results = []
    for m, layer in ((model, dcpnet.edgeconv_layer), (reference, split_form_edgeconv)):
        x = ad.tensor(f, requires_grad=True)
        m.zero_grad()
        with ad.Tape() as tape:
            out = layer(x, graph, m, EDGE_LAYER, training)
            loss = ad.sum_reduce(ad.mul(weights, out))
        ad.backward(tape, loss)
        results.append((out, x, m))
    (out, x, m), (ref_out, ref_x, ref_m) = results
    scale = 1.0 + np.abs(ref_out.data).max()
    assert np.abs(out.data - ref_out.data).max() <= tol * scale
    st, ref_st = m.bn_states[f"{EDGE_LAYER}.bn"], ref_m.bn_states[f"{EDGE_LAYER}.bn"]
    assert np.allclose(st.running_mean, ref_st.running_mean, rtol=tol, atol=tol)
    assert np.allclose(st.running_var, ref_st.running_var, rtol=tol, atol=tol)
    if training:
        grads = {"f": (x.grad, ref_x.grad)}
        for part in ("wa", "wb", "bn.gamma", "bn.beta"):
            name = f"{EDGE_LAYER}.{part}"
            grads[name] = (m.params[name].grad, ref_m.params[name].grad)
        for name, (got, want) in grads.items():
            gradcheck.assert_grads_close(got, want, tol, name)


def test_edgeconv_eval_gradients(rng):
    """Eval-mode edge convolution differentiates through the folded max.

    gamma has mixed signs and no zero entries: at gamma = 0 every edge of a
    channel gives the same output, so which edge the max routes gradient to
    is arbitrary there and the fold may pick another edge than the per-edge
    form would.
    """
    model = edge_case_model(rng, "float64", gamma_zeros=False)
    f, graph = edge_case_input(rng, "float64", n=16, k=4)
    x = ad.tensor(f, requires_grad=True)
    weights = ad.constant(rng.normal(size=(16, 8)))

    def forward():
        return ad.sum_reduce(ad.mul(weights, dcpnet.edgeconv_layer(x, graph, model, EDGE_LAYER)))

    model.zero_grad()
    with ad.Tape() as tape:
        loss = forward()
    ad.backward(tape, loss)
    checked = [x] + [model.params[f"{EDGE_LAYER}.{part}"] for part in ("wa", "wb", "bn.gamma", "bn.beta")]
    for k, param in enumerate(checked):
        gradcheck.assert_grads_close(param.grad, numeric_grad(lambda: forward().item(), param), 1e-6, f"param{k}")


EDGE_PARTS = ("wa", "wb", "bn.gamma", "bn.beta")


def edge_layer_and_split_form(rng, model, f, graph, training):
    """Run edgeconv_layer and split_form_edgeconv on copies of ``model``
    under one random linear loss; returns ``(output, running mean, running
    var, {name: gradient})`` for each, the gradients of f and all 4 layer
    parameters."""
    weights = ad.constant(rng.normal(size=(f.shape[0], 8)), dtype=f.dtype)
    results = []
    for layer in (dcpnet.edgeconv_layer, split_form_edgeconv):
        m = copy.deepcopy(model)
        x = ad.tensor(f, requires_grad=True)
        with ad.Tape() as tape:
            out = layer(x, graph, m, EDGE_LAYER, training)
            loss = ad.sum_reduce(ad.mul(weights, out))
        ad.backward(tape, loss)
        grads = {"f": x.grad} | {part: m.params[f"{EDGE_LAYER}.{part}"].grad for part in EDGE_PARTS}
        st = m.bn_states[f"{EDGE_LAYER}.bn"]
        results.append((out.data, st.running_mean, st.running_var, grads))
    return results


def test_edgeconv_duplicate_points_match_split_form(rng):
    """Duplicated points give tied neighbor rows and uneven in-degrees, and a
    far outlier is nobody's neighbor (in-degree 0)."""
    pts = rng.normal(size=(40, 3))
    f = rng.normal(scale=3.0, size=(40, 6))
    pts[20:32], f[20:32] = pts[:12], f[:12]
    pts[39] = 50.0
    graph = dcpnet.knn_graph(pts, 5)
    degree = np.bincount(graph.ravel(), minlength=40)
    assert degree[39] == 0 and degree.max() > 5
    model = edge_case_model(rng, "float64", gamma_zeros=False)
    (out, mean, var, grads), (ref_out, ref_mean, ref_var, ref_grads) = edge_layer_and_split_form(
        rng, model, f, graph, training=True
    )
    assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
    assert np.allclose(mean, ref_mean, rtol=1e-12, atol=1e-14)
    assert np.allclose(var, ref_var, rtol=1e-12, atol=1e-14)
    for name, got in grads.items():
        gradcheck.assert_grads_close(got, ref_grads[name], 1e-10, name)


@pytest.mark.parametrize("training", [False, True], ids=["eval", "training"])
def test_edgeconv_zero_gamma_matches_split_form(rng, training):
    """At gamma = +0 or -0 every neighbor ties; the layer takes neighbor 0,
    as the per-edge max does, so the gradient of gamma sees its value."""
    model = edge_case_model(rng, "float64")
    p = model.params
    p[f"{EDGE_LAYER}.bn.gamma"].data = np.array([0.0, -0.0] * 4)
    p[f"{EDGE_LAYER}.bn.beta"].data = np.abs(p[f"{EDGE_LAYER}.bn.beta"].data) + 0.1  # every channel passes ReLU
    f, graph = edge_case_input(rng, "float64")
    (out, _, _, grads), (ref_out, _, _, ref_grads) = edge_layer_and_split_form(rng, model, f, graph, training)
    assert np.array_equal(out, ref_out)
    for name in ("f", "wa", "wb"):
        assert not grads[name].any() and not ref_grads[name].any()
    assert np.abs(ref_grads["bn.gamma"]).min() > 0
    for name in ("bn.gamma", "bn.beta"):
        gradcheck.assert_grads_close(grads[name], ref_grads[name], 1e-12, name)


def test_dgcnn_output_shape_default(rng):
    cfg = dcpnet.ModelConfig(attention=False, dtype="float32")
    assert cfg.resolved_widths == (64, 64, 128, 256)
    model = dcpnet.ModelParams.initialize(cfg, seed=2)
    f = dcpnet.dgcnn_embed([unit_points(rng, 64)], model)
    assert f.shape == (64, 512)


def test_dgcnn_not_rotation_invariant(rng):
    model = dcpnet.ModelParams.initialize(TINY_V1, seed=3)
    pts = unit_points(rng, 20)
    rot = geo.euler_zyx_to_matrix(math.radians(30), 0, 0)
    f1 = dcpnet.dgcnn_embed([pts], model)
    f2 = dcpnet.dgcnn_embed([pts @ rot.T], model)
    assert np.abs(f1.data - f2.data).max() > 1e-6


def test_dgcnn_permutation_equivariance(rng):
    model = dcpnet.ModelParams.initialize(TINY_V1, seed=3)
    pts = unit_points(rng, 14)
    perm = rng.permutation(14)
    f = dcpnet.dgcnn_embed([pts], model)
    f_perm = dcpnet.dgcnn_embed([pts[perm]], model)
    assert np.allclose(f.data[perm], f_perm.data, atol=1e-12)


# ---------------------------------------------------------------------------
# attention residual
# ---------------------------------------------------------------------------

def test_attention_zero_projection_is_identity(rng):
    model = dcpnet.ModelParams.initialize(TINY_V2, seed=4)
    f_x = ad.tensor(rng.normal(size=(10, 8)))
    f_y = ad.tensor(rng.normal(size=(12, 8)))
    phi_x, phi_y = dcpnet.transformer_attention(f_x, f_y, model)
    assert np.array_equal(phi_x.data, f_x.data)
    assert np.array_equal(phi_y.data, f_y.data)


def randomize_attention_output(model, rng):
    if "attn.out.w" not in model.params:
        return
    w = model.params["attn.out.w"]
    w.data = rng.normal(size=w.shape).astype(w.dtype) * 0.3


def test_attention_residual_is_asymmetric(rng):
    model = dcpnet.ModelParams.initialize(TINY_V2, seed=5)
    randomize_attention_output(model, rng)
    a = ad.tensor(rng.normal(size=(9, 8)))
    b = ad.tensor(rng.normal(size=(9, 8)))
    phi_ab, phi_ba = dcpnet.transformer_attention(a, b, model)
    res_ab = phi_ab.data - a.data
    res_ba = phi_ba.data - b.data
    assert np.abs(res_ab - res_ba).max() > 1e-8


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_attention_shape_preserved(n, rng):
    model = dcpnet.ModelParams.initialize(replace(TINY_V2, dtype="float32"), seed=6)
    randomize_attention_output(model, rng)
    f_x = ad.tensor(rng.normal(size=(n, 8)).astype(np.float32))
    f_y = ad.tensor(rng.normal(size=(n, 8)).astype(np.float32))
    phi_x, phi_y = dcpnet.transformer_attention(f_x, f_y, model)
    assert phi_x.shape == (n, 8)
    assert phi_y.shape == (n, 8)


def test_untaped_forward_tiles_attention_and_taped_keeps_scores(rng, monkeypatch, score_tile_rows):
    """``dcp_predict`` runs attention's softmax in tiles, and predicts as it
    does with all of a pair's scores in one tile; a training forward and an eval forward
    on a tape, whose parameters are tracked, keep the whole (B, heads, n, n)
    score array for the backward."""
    model = dcpnet.ModelParams.initialize(TINY_V2, seed=4)
    randomize_attention_output(model, rng)
    x, y = unit_points(rng, 24), unit_points(rng, 24)
    whole = dcpnet.dcp_predict(x, y, model)
    assert score_tile_rows == [2 * 2 * 24] * 3  # both clouds' heads fit one default tile
    score_tile_rows.clear()
    monkeypatch.setattr(ad, "TILE_BYTES", 4 * 24 * 8)  # four float64 score rows
    tiled = dcpnet.dcp_predict(x, y, model)
    assert score_tile_rows == [4] * (6 * 2 * 6)  # three calls on two clouds, two heads, six blocks of 24 rows
    assert np.array_equal(tiled.rotation, whole.rotation)
    assert np.array_equal(tiled.translation, whole.translation)
    for training in (True, False):
        score_tile_rows.clear()
        with ad.Tape() as tape:
            dcpnet.dcp_forward([x, y], [y, x], model, training=training)
        assert score_tile_rows == [2 * 2 * 24] * 6
        assert sum(e.op == "attention" for e in tape.entries) == 6


def test_attention_training_gradients_match_composition(rng, monkeypatch):
    """A tiny-v2 training step through ``ad.attention`` gives the gradients
    of the tape composition it replaced, within 1e-13 of the largest
    gradient (3.5e-16 measured). The tolerance is on that scale, not per
    entry, so that entries near zero may differ by rounding noise."""
    model = dcpnet.ModelParams.initialize(TINY_V2, seed=20)
    randomize_attention_output(model, rng)
    x, y = unit_points(np.random.default_rng(6), 16), unit_points(np.random.default_rng(7), 12)
    gt = geo.RigidTransform(random_rotation(np.random.default_rng(8)), np.zeros(3))

    def attention_grads():
        model.zero_grad()
        with ad.Tape() as tape:
            out = dcpnet.dcp_forward([x], [y], model, training=True)
            loss = dcpnet.dcp_loss(out.rotation, out.translation, [gt])
        ad.backward(tape, loss)
        return {name: t.grad for name, t in model.params.items() if name.startswith("attn.")}

    fused = attention_grads()
    monkeypatch.setattr(ad, "attention", gradcheck.reference_attention)
    composed = attention_grads()
    assert fused.keys() == composed.keys() and len(fused) == 41
    scale = max(np.abs(g).max() for g in composed.values())
    assert scale > 0.1
    for name, g in fused.items():
        assert np.abs(g - composed[name]).max() <= 1e-13 * scale, name


# ---------------------------------------------------------------------------
# one inference stack
# ---------------------------------------------------------------------------

# DGCNN-v2 in both precisions, PointNet-v1, and the MLP head.
STACK_CONFIGS = [
    replace(TINY_V2, dtype="float32"),
    TINY_V2,
    replace(TINY_V1, embedding="pointnet"),
    replace(TINY_V2, head="mlp", mlp_head_widths=(6, 5)),
]


def stack_case_model(cfg, rng):
    """A model of ``cfg`` with a non-zero ``attn.out`` and running
    statistics away from 0 and 1."""
    model = dcpnet.ModelParams.initialize(cfg, seed=11)
    randomize_attention_output(model, rng)
    for state in model.bn_states.values():
        c, dtype = state.running_mean.shape, state.running_mean.dtype
        state.running_mean = rng.normal(scale=0.5, size=c).astype(dtype)
        state.running_var = rng.uniform(0.2, 3.0, size=c).astype(dtype)
    return model


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("cfg", STACK_CONFIGS, ids=lambda c: f"{c.embedding}-{c.attention}-{c.head}-{c.dtype}")
def test_inference_stack_equals_per_side_calls(rng, monkeypatch, cfg):
    """``dcp_predict`` and an untaped ``dcp_forward(training=False)`` on
    three pairs embed both sides in one ``embed_cloud`` call and attend
    both directions in one residual, and give the per-side form's outputs
    bit for bit."""
    model = stack_case_model(cfg, rng)
    x, y = unit_points(rng, 20), unit_points(rng, 20)
    xs, ys = [unit_points(rng, 20) for _ in range(3)], [unit_points(rng, 20) for _ in range(3)]
    embeds = count_calls(monkeypatch, dcpnet, "embed_cloud")
    residuals = count_calls(monkeypatch, dcpnet, "_cross_residual")
    stacked = dcpnet.dcp_predict(x, y, model), dcpnet.dcp_forward(xs, ys, model, training=False)
    assert len(embeds) == 2 and len(residuals) == 2 * cfg.attention
    monkeypatch.setattr(dcpnet, "_soft_match", ref.soft_match)
    per_side = dcpnet.dcp_predict(x, y, model), dcpnet.dcp_forward(xs, ys, model, training=False)
    assert len(embeds) == 6 and len(residuals) == 6 * cfg.attention
    assert np.array_equal(stacked[0].rotation, per_side[0].rotation)
    assert np.array_equal(stacked[0].translation, per_side[0].translation)
    for a, b in zip(stacked[1], per_side[1]):
        assert a.dtype == b.dtype and np.array_equal(a.data, b.data)


def test_mixed_sizes_training_and_taped_forwards_run_per_side(rng, monkeypatch):
    """A pair with n != m, and a training or eval forward on a tape, embed
    each side on its own and take one residual per direction. A training
    forward no tape records still embeds per side, for its per-side batch
    statistics; its attention, which keeps no statistics, is one stack."""
    model = stack_case_model(TINY_V2, rng)
    x, y = unit_points(rng, 16), unit_points(rng, 12)
    embeds = count_calls(monkeypatch, dcpnet, "embed_cloud")
    residuals = count_calls(monkeypatch, dcpnet, "_cross_residual")

    def calls(forward):
        embeds.clear()
        residuals.clear()
        forward()
        return len(embeds), len(residuals)

    assert calls(lambda: dcpnet.dcp_predict(x, y, model)) == (2, 2)
    assert calls(lambda: dcpnet.dcp_forward([x, x], [x, x], model, training=True)) == (2, 1)
    for training in (True, False):
        with ad.Tape() as tape:
            assert calls(lambda: dcpnet.dcp_forward([x, x], [x, x], model, training=training)) == (2, 2)
        assert tape.entries


# ---------------------------------------------------------------------------
# pointer + soft correspondence
# ---------------------------------------------------------------------------

def test_pointer_aligned_orthonormal_peaks_on_diagonal():
    phi = ad.tensor(np.eye(4) * 12.0)
    match = dcpnet.pointer_softmatch(phi, phi)
    assert np.array_equal(np.argmax(match.data, axis=1), np.arange(4))
    assert np.allclose(match.data.sum(axis=1), 1.0, atol=1e-12)


def test_pointer_zero_embeddings_uniform():
    phi_x = ad.tensor(np.zeros((3, 5)))
    phi_y = ad.tensor(np.zeros((7, 5)))
    match = dcpnet.pointer_softmatch(phi_x, phi_y)
    assert np.allclose(match.data, 1.0 / 7.0, atol=1e-12)


def test_pointer_analytic_two_target_case():
    phi_x = ad.tensor(np.array([[1.0]]))
    phi_y = ad.tensor(np.array([[0.0], [math.log(3.0)]]))
    match = dcpnet.pointer_softmatch(phi_x, phi_y)
    assert np.allclose(match.data, [[0.25, 0.75]], atol=1e-12)


def test_soft_correspondence_onehot_reindexes(rng):
    y = rng.normal(size=(6, 3))
    idx = np.array([3, 1, 4])
    match = np.zeros((3, 6))
    match[np.arange(3), idx] = 1.0
    out = dcpnet.soft_correspondence(ad.tensor(match[None]), [y])
    assert np.allclose(out.data[0], y[idx], atol=1e-12)


def test_soft_correspondence_uniform_gives_centroid(rng):
    y = rng.normal(size=(8, 3))
    match = np.full((5, 8), 1.0 / 8.0)
    out = dcpnet.soft_correspondence(ad.tensor(match[None]), [y])
    assert np.allclose(out.data[0], y.mean(axis=0), atol=1e-12)


def test_soft_correspondence_convex_hull_bound(rng):
    y = rng.normal(size=(10, 3))
    logits = rng.normal(size=(7, 10))
    match = dcpnet.pointer_softmatch(ad.tensor(logits[None]), ad.tensor(np.eye(10)[None]))
    out = dcpnet.soft_correspondence(match, [y])
    lo, hi = y.min(axis=0), y.max(axis=0)
    assert (out.data >= lo - 1e-12).all()
    assert (out.data <= hi + 1e-12).all()


def test_softmatch_rows_stochastic_float32(rng):
    cfg = replace(TINY_V2, dtype="float32")
    model = dcpnet.ModelParams.initialize(cfg, seed=8)
    randomize_attention_output(model, np.random.default_rng(0))
    for trial in range(5):
        pts_x = unit_points(np.random.default_rng(trial), 32)
        pts_y = unit_points(np.random.default_rng(trial + 50), 40)
        out = dcpnet.dcp_forward([pts_x], [pts_y], model)
        sums = out.match.data.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-6
        assert (out.match.data >= 0).all() and (out.match.data <= 1).all()


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------

def test_forward_untrained_is_valid_transform(rng):
    for cfg, seed in ((TINY_V1, 11), (TINY_V2, 12)):
        model = dcpnet.ModelParams.initialize(cfg, seed=seed)
        randomize_attention_output(model, rng)
        x = unit_points(rng, 20)
        y = unit_points(rng, 20)
        transform = dcpnet.dcp_predict(x, y, model)  # validates orthogonality
        assert isinstance(transform, geo.RigidTransform)


def test_v2_with_zero_residual_equals_v1(rng):
    v2 = dcpnet.ModelParams.initialize(TINY_V2, seed=13)
    v1 = dcpnet.ModelParams(TINY_V1, v2.params, v2.bn_states)  # shared weights
    for trial in range(5):
        r = np.random.default_rng(trial)
        x, y = unit_points(r, 16), unit_points(r, 16)
        out1 = dcpnet.dcp_forward([x], [y], v1)
        out2 = dcpnet.dcp_forward([x], [y], v2)
        assert np.array_equal(out1.rotation.data, out2.rotation.data)
        assert np.array_equal(out1.translation.data, out2.translation.data)
        assert np.array_equal(out1.match.data, out2.match.data)


def test_forward_permutation_of_source_leaves_transform(rng):
    model = dcpnet.ModelParams.initialize(TINY_V1, seed=14)
    x, y = unit_points(rng, 18), unit_points(rng, 18)
    perm = rng.permutation(18)
    t1 = dcpnet.dcp_predict(x, y, model)
    t2 = dcpnet.dcp_predict(x[perm], y, model)
    assert np.abs(t1.rotation - t2.rotation).max() < 1e-5
    assert np.abs(t1.translation - t2.translation).max() < 1e-5


def test_forward_gradients_tiny_model(rng):
    model = dcpnet.ModelParams.initialize(TINY_V1, seed=15)
    x, y = unit_points(np.random.default_rng(1), 8), unit_points(np.random.default_rng(2), 8)
    gt = geo.RigidTransform.identity()

    def forward():
        out = dcpnet.dcp_forward([x], [y], model, training=True)
        return dcpnet.dcp_loss(out.rotation, out.translation, [gt])

    model.zero_grad()
    with ad.Tape() as tape:
        loss = forward()
    ad.backward(tape, loss)
    checked = 0
    for name in ("embed.l0.wa", "embed.l0.wb", "embed.l1.bn.gamma", "embed.l2.wb", "embed.l2.bn.beta"):
        p = model.params[name]
        num = numeric_grad(lambda: forward().item(), p)
        gradcheck.assert_grads_close(p.grad, num, 1e-4, name)
        checked += 1
    assert checked == 5


# ---------------------------------------------------------------------------
# batched forward
# ---------------------------------------------------------------------------

def with_running_stats(model, rng):
    """``model`` with random running statistics, so eval mode is not plain
    identity normalisation."""
    for st in model.bn_states.values():
        st.running_mean = rng.normal(scale=0.3, size=st.running_mean.shape).astype(st.running_mean.dtype)
        st.running_var = rng.uniform(0.5, 2.0, size=st.running_var.shape).astype(st.running_var.dtype)
    return model


@pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-5)])
@pytest.mark.parametrize(
    "cfg",
    [TINY_V2, replace(TINY_V1, head="mlp", mlp_head_widths=(8, 4)), replace(TINY_V1, embedding="pointnet")],
    ids=["v2", "v1-mlp", "v1-pointnet"],
)
def test_eval_batched_forward_equals_single_forwards(rng, cfg, dtype, tol):
    """Inference normalises with running statistics, so a pair's outputs do
    not depend on the rest of its batch."""
    model = with_running_stats(dcpnet.ModelParams.initialize(replace(cfg, dtype=dtype), seed=31), rng)
    randomize_attention_output(model, rng)
    if cfg.head == "mlp":  # keep the quaternion away from 0 where ReLU zeroes the hidden rows
        model.params["head.rot.b"].data[0] = 1.0
    xs = [unit_points(rng, 16) for _ in range(3)]
    ys = [unit_points(rng, 12) for _ in range(3)]
    batch = dcpnet.dcp_forward(xs, ys, model)
    assert batch.rotation.shape == (3, 3, 3) and batch.match.shape == (3, 16, 12)
    for b in range(3):
        one = dcpnet.dcp_forward([xs[b]], [ys[b]], model)
        for got, want in zip(batch, one):
            assert got.dtype == np.dtype(dtype)
            assert np.abs(got.data[b] - want.data[0]).max() <= tol * np.abs(want.data).max()


def per_edge_layer0(cloud, model, k):
    """Layer 0's pre-activations ``x_i @ Wa + (x_j - x_i) @ Wb``, one row per
    edge of the cloud's own kNN graph."""
    idx = dcpnet.knn_graph(cloud, k)
    wa, wb = model.params["embed.l0.wa"].data, model.params["embed.l0.wb"].data
    xi = np.repeat(cloud, k, axis=0)
    return xi @ wa + (cloud[idx.ravel()] - xi) @ wb


def test_training_batch_norm_statistics_span_the_batch(rng, monkeypatch):
    """One batched training-mode embed: layer 0's batch statistics are the
    mean and variance over every edge of the B clouds together, not of any
    one cloud."""
    model = dcpnet.ModelParams.initialize(TINY_V1, seed=32)
    state = model.bn_states["embed.l0.bn"]
    monkeypatch.setattr(ad, "BN_MOMENTUM", 1.0)  # the running statistics become the batch's
    clouds = np.stack([unit_points(rng, 16) * s for s in (0.5, 1.0, 2.0)])
    f = dcpnet.embed_cloud(clouds, model, training=True)
    assert f.shape == (3, 16, TINY_V1.emb_dims)
    edges = np.concatenate([per_edge_layer0(c, model, TINY_V1.knn_k) for c in clouds])
    assert np.allclose(state.running_mean, np.mean(edges, axis=0), rtol=1e-12, atol=1e-14)
    assert np.allclose(state.running_var, np.var(edges, axis=0), rtol=1e-12, atol=1e-14)
    one_cloud = np.var(per_edge_layer0(clouds[0], model, TINY_V1.knn_k), axis=0)
    assert np.abs(one_cloud - state.running_var).max() > 0.1 * state.running_var.max()


def test_batch_graph_offsets_each_cloud(rng):
    clouds = np.stack([unit_points(rng, 10) for _ in range(3)])
    graph = dcpnet.batch_knn_graph(clouds, 4)
    assert graph.shape == (30, 4)
    for b, cloud in enumerate(clouds):
        rows = graph[10 * b : 10 * (b + 1)]
        assert np.array_equal(rows, dcpnet.knn_graph(cloud, 4) + 10 * b)


def test_cloud_stack_forms(rng):
    pts = unit_points(rng, 9)
    model = dcpnet.ModelParams.initialize(TINY_V1, seed=0)
    stack = dcpnet.cloud_stack([pts, pts])
    assert stack.shape == (2, 9, 3) and np.array_equal(stack[1], pts)
    assert np.array_equal(dcpnet.cloud_stack(stack), stack)
    assert np.array_equal(dcpnet.cloud_stack((dataio.PointCloud(pts),)), pts[None])
    with pytest.raises(ShapeError, match=r"\[9, 10\]"):
        dcpnet.cloud_stack([pts, unit_points(rng, 10)])
    with pytest.raises(ShapeError):
        dcpnet.dcp_forward([pts, pts], [pts], model)
    with pytest.raises(InvalidInputError):
        dcpnet.cloud_stack([])
    # One bare cloud would be read row by row: each entry asks for a batch.
    calls = (dcpnet.cloud_stack, lambda c: dcpnet.embed_cloud(c, model), lambda c: dcpnet.dcp_forward(c, [pts], model))
    for one in (pts, pts.tolist(), dataio.PointCloud(pts)):
        for call in calls:
            with pytest.raises(InvalidInputError, match="pass a batch"):
                call(one)


# ---------------------------------------------------------------------------
# mlp head
# ---------------------------------------------------------------------------

def test_quaternion_identity_rotation():
    r = dcpnet.quaternion_to_rotation(ad.tensor([[1.0, 0.0, 0.0, 0.0]]))
    assert np.allclose(r.data[0], np.eye(3), atol=1e-12)


def test_quaternion_matches_reference(rng):
    for _ in range(20):
        q = rng.normal(size=4)
        r = dcpnet.quaternion_to_rotation(ad.tensor(q[None]))
        qn = q / np.linalg.norm(q)
        w, x, y, z = qn
        want = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )
        assert np.allclose(r.data[0], want, atol=1e-12)


def test_quaternion_zero_norm_rejected():
    with pytest.raises(DegenerateOutputError):
        dcpnet.quaternion_to_rotation(ad.tensor([[0.0, 0.0, 0.0, 0.0]]))


def test_quaternion_needs_a_batch():
    with pytest.raises(ShapeError, match=r"\(B, 4\)"):
        dcpnet.quaternion_to_rotation(ad.tensor([1.0, 0.0, 0.0, 0.0]))


def test_mlp_head_outputs_proper_rotation(rng):
    cfg = replace(TINY_V1, head="mlp", mlp_head_widths=(8, 4))
    model = dcpnet.ModelParams.initialize(cfg, seed=16)
    x, y = unit_points(rng, 12), unit_points(rng, 12)
    out = dcpnet.dcp_forward([x], [y], model)
    r = out.rotation.data[0]
    assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9
    assert abs(np.linalg.det(r) - 1) < 1e-9
    transform = dcpnet.dcp_predict(x, y, model)
    assert isinstance(transform, geo.RigidTransform)


def test_mlp_head_gradients(rng):
    """A training batch of two pairs: the head's batch norm normalises over
    the two pooled rows. A lone pair has no batch statistics to train on."""
    cfg = replace(TINY_V1, head="mlp", mlp_head_widths=(8, 4))
    model = dcpnet.ModelParams.initialize(cfg, seed=17)
    xs = [unit_points(np.random.default_rng(3), 8), unit_points(np.random.default_rng(6), 8)]
    ys = [unit_points(np.random.default_rng(4), 8), unit_points(np.random.default_rng(7), 8)]
    gts = [geo.RigidTransform(random_rotation(np.random.default_rng(s)), np.zeros(3)) for s in (5, 8)]

    def forward():
        out = dcpnet.dcp_forward(xs, ys, model, training=True)
        return dcpnet.dcp_loss(out.rotation, out.translation, gts)

    model.zero_grad()
    with ad.Tape() as tape:
        loss = forward()
    assert np.isfinite(loss.data)
    ad.backward(tape, loss)
    for name in ("head.fc0.w", "head.fc1.bn.gamma", "head.rot.w", "head.trans.b"):
        p = model.params[name]
        num = numeric_grad(lambda: forward().item(), p)
        gradcheck.assert_grads_close(p.grad, num, 1e-4, name)
    with pytest.raises(InvalidInputError):
        dcpnet.dcp_forward([xs[0]], [ys[0]], model, training=True)


def test_mlp_head_zero_rot_weights_degenerate(rng):
    cfg = replace(TINY_V1, head="mlp", mlp_head_widths=(8, 4))
    model = dcpnet.ModelParams.initialize(cfg, seed=18)
    model.params["head.rot.w"].data[...] = 0.0
    model.params["head.rot.b"].data[...] = 0.0
    with pytest.raises(DegenerateOutputError):
        dcpnet.dcp_forward([unit_points(rng, 10)], [unit_points(rng, 10)], model)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_zero_when_equal(rng):
    gt = geo.RigidTransform(random_rotation(rng), rng.normal(size=3))
    loss = dcpnet.dcp_loss(ad.tensor(gt.rotation[None]), ad.tensor(gt.translation[None]), [gt])
    assert abs(loss.item()) < 1e-18


def test_loss_translation_offset():
    gt = geo.RigidTransform.identity()
    loss = dcpnet.dcp_loss(ad.tensor(np.eye(3)[None]), ad.tensor([[1.0, 0.0, 0.0]]), [gt])
    assert np.isclose(loss.item(), 1.0)


def test_loss_half_turn_about_z():
    gt = geo.RigidTransform.identity()
    pred_r = geo.euler_zyx_to_matrix(math.pi, 0.0, 0.0)
    loss = dcpnet.dcp_loss(ad.tensor(pred_r[None]), ad.tensor(np.zeros((1, 3))), [gt])
    assert np.isclose(loss.item(), 8.0)


def test_loss_of_a_batch_is_the_mean_of_its_pairs(rng):
    gts = [geo.RigidTransform(random_rotation(rng), rng.normal(size=3)) for _ in range(3)]
    rotations = np.stack([random_rotation(rng) for _ in range(3)])
    translations = rng.normal(size=(3, 3))
    batch = dcpnet.dcp_loss(ad.tensor(rotations), ad.tensor(translations), gts)
    singles = [
        dcpnet.dcp_loss(ad.tensor(r[None]), ad.tensor(t[None]), [gt]).item()
        for r, t, gt in zip(rotations, translations, gts)
    ]
    assert batch.item() == pytest.approx(np.mean(singles), rel=1e-14)
    with pytest.raises(ShapeError):
        dcpnet.dcp_loss(ad.tensor(rotations), ad.tensor(translations), gts[:2])
