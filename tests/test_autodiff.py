import math
import tracemalloc

import numpy as np
import pytest

from dcpreg import autodiff as ad, dcpnet, geometry as geo
from dcpreg.errors import (
    GradientSingularityError,
    InsufficientDataError,
    InvalidAxisError,
    InvalidInputError,
    ShapeError,
)

import gradcheck
import reference_forms as ref
from conftest import random_rotation
from gradcheck import PRIMITIVE_CASES, case_svd_rigid_head, check_case, numeric_grad, reference_attention


# ---------------------------------------------------------------------------
# Analytic spot checks
# ---------------------------------------------------------------------------

def test_tensor_repr_names_shape_dtype_and_grad_flag():
    assert repr(ad.tensor(np.zeros((2, 3)), requires_grad=True)) == "Tensor(shape=(2, 3), dtype=float64, requires_grad=True)"
    assert repr(ad.constant([1.0], dtype=np.float32)) == "Tensor(shape=(1,), dtype=float32, requires_grad=False)"


def test_relu_backward_analytic():
    x = ad.tensor([-1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        out = ad.sum_reduce(ad.relu(x))
    assert np.array_equal(ad.backward(tape, out)[x], [0.0, 1.0])


def test_softmax_analytic():
    x = ad.tensor([0.0, math.log(3.0)])
    y = ad.softmax(x, axis=0)
    assert np.allclose(y.data, [0.25, 0.75], atol=1e-12)


def test_scalar_chain_rule():
    x = ad.tensor(2.0, requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(ad.constant(3.0), x)
    assert np.allclose(ad.backward(tape, y)[x], 3.0)


def test_quadratic_gradient():
    rng = np.random.default_rng(0)
    x = ad.tensor(rng.normal(size=5), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.sum_reduce(ad.mul(x, x))
    assert np.abs(ad.backward(tape, y)[x] - 2 * x.data).max() < 1e-12


def test_composite_graph_finite_difference():
    rng = np.random.default_rng(3)
    x = ad.tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = ad.tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = ad.tensor(rng.normal(size=5), requires_grad=True)
    target = ad.constant(rng.normal(size=(4, 5)))

    def forward():
        h = ad.relu(ad.affine(x, w, b))
        p = ad.softmax(h, axis=1)
        d = ad.sub(p, target)
        return ad.mean_reduce(ad.mean_reduce(ad.mul(d, d), axis=1), axis=0)

    with ad.Tape() as tape:
        loss = forward()
    grads = ad.backward(tape, loss)
    for name, p in (("x", x), ("w", w), ("b", b)):
        num = numeric_grad(lambda: forward().item(), p)
        gradcheck.assert_grads_close(grads[p], num, 1e-5, name)


# ---------------------------------------------------------------------------
# Primitive finite-difference battery (the acceptance suite runs 20 points,
# this quick pass runs 5 per primitive)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", PRIMITIVE_CASES, ids=lambda c: c.__name__)
def test_primitive_gradients(case):
    check_case(case, n_points=5)


def test_svd_rigid_head_gradients():
    check_case(case_svd_rigid_head, n_points=5, tol=1e-4)


# ---------------------------------------------------------------------------
# Fused attention and the in-place softmax and affine, against the forms
# they replaced
# ---------------------------------------------------------------------------

def backward_of(op, inputs, g):
    """Run ``op(*inputs)`` on a tape and feed ``g`` to its backward rule."""
    with ad.Tape() as tape:
        out = op(*inputs)
    assert tape.entries[-1].output is out
    return out, tape.entries[-1].backward_fn(g)


def assert_untouched(arrays, copies):
    for a, c in zip(arrays, copies):
        assert np.array_equal(a, c, equal_nan=True)


def attention_inputs(rng, dtype, n=7, m=5, d=8):
    # Spread logits wide enough that the row max and the scaling matter.
    return [ad.tensor(rng.normal(scale=2.0, size=(rows, d)).astype(dtype), requires_grad=True)
            for rows in (n, m, m)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_composition(dtype, heads):
    rng = np.random.default_rng(heads)
    q, k, v = attention_inputs(rng, dtype)
    out = ad.attention(q, k, v, heads)
    ref = reference_attention(q, k, v, heads)
    assert out.dtype == dtype and out.shape == (7, 8)
    assert np.array_equal(out.data, ref.data)

    w = ad.constant(rng.normal(size=(7, 8)), dtype=dtype)
    grads = []
    for fn in (ad.attention, reference_attention):
        with ad.Tape() as tape:
            loss = ad.sum_reduce(ad.mul(w, fn(q, k, v, heads)))
        reached = ad.backward(tape, loss)
        grads.append([reached[t] for t in (q, k, v)])
    tol = 1e-5 if dtype == np.float32 else 1e-13
    for fused, composed in zip(*grads):
        assert fused.dtype == dtype
        assert np.abs(fused - composed).max() <= tol * np.abs(composed).max()


def test_attention_batch_of_one_is_bit_equal_at_1024_points(rng):
    """A leading axis of size 1 runs the same GEMMs on the same data as the
    2-D call: forward and backward are equal bit for bit."""
    q, k, v = (rng.normal(scale=2.0, size=(1024, 32)).astype(np.float32) for _ in range(3))
    g = rng.normal(size=(1024, 32)).astype(np.float32)
    flat_out, flat_grads = backward_of(lambda *t: ad.attention(*t, 4), [ad.tensor(a, requires_grad=True) for a in (q, k, v)], g)
    out, grads = backward_of(lambda *t: ad.attention(*t, 4), [ad.tensor(a[None], requires_grad=True) for a in (q, k, v)], g[None])
    assert out.shape == (1, 1024, 32)
    assert np.array_equal(out.data[0], flat_out.data)
    for got, want in zip(grads, flat_grads):
        assert np.array_equal(got[0], want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_batch_attends_per_index(rng, dtype):
    """Each index of the leading axis attends on its own: a (3, n, d) batch
    gives the three 2-D results."""
    q = rng.normal(scale=2.0, size=(3, 7, 8)).astype(dtype)
    k, v = (rng.normal(scale=2.0, size=(3, 5, 8)).astype(dtype) for _ in range(2))
    g = rng.normal(size=(3, 7, 8)).astype(dtype)
    out, grads = backward_of(lambda *t: ad.attention(*t, 2), [ad.tensor(a, requires_grad=True) for a in (q, k, v)], g)
    tol = 1e-6 if dtype == np.float32 else 1e-15
    for b in range(3):
        one, one_grads = backward_of(
            lambda *t: ad.attention(*t, 2), [ad.tensor(a[b], requires_grad=True) for a in (q, k, v)], g[b]
        )
        assert np.allclose(out.data[b], one.data, rtol=tol, atol=tol)
        for got, want in zip(grads, one_grads):
            assert np.allclose(got[b], want, rtol=tol, atol=tol)


def test_attention_leaves_inputs_and_gradient_unchanged(rng):
    q, k, v = attention_inputs(rng, np.float64)
    g = rng.normal(size=(7, 8))
    copies = [t.data.copy() for t in (q, k, v)] + [g.copy()]
    _, (gq, gk, gv) = backward_of(lambda *t: ad.attention(*t, 2), (q, k, v), g)
    assert_untouched([q.data, k.data, v.data, g], copies)
    assert (gq.shape, gk.shape, gv.shape) == ((7, 8), (5, 8), (5, 8))


def test_attention_shape_errors():
    q, kv = ad.tensor(np.zeros((4, 6))), ad.tensor(np.zeros((3, 6)))
    with pytest.raises(ShapeError):
        ad.attention(q, kv, kv, 4)  # 6 % 4 != 0
    with pytest.raises(ShapeError):
        ad.attention(q, kv, ad.tensor(np.zeros((2, 6))), 2)  # k and v rows differ
    with pytest.raises(ShapeError):
        ad.attention(q, ad.tensor(np.zeros((3, 4))), ad.tensor(np.zeros((3, 4))), 2)  # widths differ
    with pytest.raises(ShapeError):
        ad.attention(q, ad.tensor(np.zeros((0, 6))), ad.tensor(np.zeros((0, 6))), 2)  # no keys
    with pytest.raises(ShapeError):
        ad.attention(ad.tensor(np.zeros((2, 4, 6))), kv, kv, 2)  # leading axes differ
    with pytest.raises(InvalidInputError):
        ad.attention(q, kv, kv, 0)
    with pytest.raises(InvalidInputError):
        ad.attention(q, kv, ad.tensor(np.zeros((3, 6)), dtype=np.float32), 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tile_scores,blocks", [
    (4 * 9, [4, 4, 3] * 9),  # one head per tile, four-row blocks, the last partial
    (2 * 11 * 9, [22, 11] * 3),  # two of three heads per tile, the last group partial
    (6 * 11 * 9, [66, 33]),  # every head of two of three batch indices per tile
])
def test_attention_tiles_equal_whole_array(rng, monkeypatch, score_tile_rows, dtype, tile_scores, blocks):
    """An untaped call in tiles of ``tile_scores`` scores gives the output of
    a taped call, which keeps the whole (3, 3, 11, 9) score array, bit for
    bit."""
    q = rng.normal(scale=2.0, size=(3, 11, 12)).astype(dtype)
    k, v = (rng.normal(scale=2.0, size=(3, 9, 12)).astype(dtype) for _ in range(2))
    monkeypatch.setattr(ad, "TILE_BYTES", tile_scores * np.dtype(dtype).itemsize)
    with ad.Tape() as tape:
        whole = ad.attention(*(ad.tensor(a, requires_grad=True) for a in (q, k, v)), 3)
    assert len(tape.entries) == 1 and score_tile_rows == [99]
    score_tile_rows.clear()
    tiled = ad.attention(ad.tensor(q), ad.tensor(k), ad.tensor(v), 3)
    assert score_tile_rows == blocks
    assert tiled.dtype == dtype and np.array_equal(tiled.data, whole.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block", [1, 4, 5, 33])
def test_layer_norm_row_blocks_equal_whole_array(rng, dtype, block):
    """Untaped calls on blocks of ``block`` of the 33 rows (the last partial
    for 4 and 5) give the rows of a taped call on the whole (3, 11, 10)
    array bit for bit: each row is normalised on its own."""
    x = (rng.normal(loc=3.0, scale=2.0, size=(3, 11, 10)) * rng.uniform(0.01, 10.0, size=(3, 11, 1))).astype(dtype)
    gain, bias = (rng.normal(size=10).astype(dtype) for _ in range(2))
    with ad.Tape() as tape:
        whole = ad.layer_norm(ad.tensor(x, requires_grad=True), ad.tensor(gain), ad.tensor(bias))
    assert len(tape.entries) == 1
    rows = x.reshape(33, 10)
    blocks = [ad.layer_norm(ad.tensor(rows[r : r + block]), ad.tensor(gain), ad.tensor(bias)).data
              for r in range(0, 33, block)]
    tiled = np.concatenate(blocks)
    assert tiled.dtype == dtype and np.array_equal(tiled, whole.data.reshape(33, 10))


def three_temporary_softmax(x, axis):
    """The softmax forward as it was: shifted, exponentiated and normalised
    into three fresh arrays."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def special_rows(rng, size):
    """Six rows of ``size`` values: the maximum +0 (a -0 ties it), the
    maximum -0, one +inf, one -inf, only -inf, and one NaN."""
    rows = -np.abs(rng.normal(scale=3.0, size=(6, size)))
    rows[0, :2] = -0.0, 0.0
    rows[1, 1] = -0.0
    rows[2, 0] = np.inf
    rows[3, 0] = -np.inf
    rows[4] = -np.inf
    rows[5, 1] = np.nan
    return rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,axis", [((5, 9), 1), ((5, 9), 0), ((3, 4, 6), -1), ((3, 4, 6), 1)])
def test_softmax_in_place_is_exact(rng, dtype, shape, axis):
    """Random rows, and six more along another axis from :func:`special_rows`."""
    axis %= len(shape)
    other = 1 - min(axis, 1)
    block = np.empty(shape[:other] + (6,) + shape[other + 1 :])
    np.moveaxis(block, (other, axis), (0, -1))[...] = special_rows(rng, shape[axis]).reshape(
        (6,) + (1,) * (len(shape) - 2) + (shape[axis],)
    )
    data = np.concatenate([rng.normal(scale=3.0, size=shape), block], axis=other)
    x = ad.tensor(data.astype(dtype), requires_grad=True)
    g = rng.normal(size=data.shape).astype(dtype)
    copies = [x.data.copy(), g.copy()]
    with np.errstate(invalid="ignore"):
        out, (gx,) = backward_of(lambda t: ad.softmax(t, axis), (x,), g)
        y = three_temporary_softmax(x.data, axis)
        want_gx = (g - (g * y).sum(axis=axis, keepdims=True)) * y
    assert_untouched([x.data, g], copies)
    assert out.dtype == dtype and np.array_equal(out.data, y, equal_nan=True)
    assert np.array_equal(gx, want_gx, equal_nan=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(6, 4), (2, 3, 4)])
def test_affine_in_place_bias_is_exact(rng, dtype, x_shape):
    x, w, b = (ad.tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in (x_shape, (4, 5), (5,)))
    g = rng.normal(size=x_shape[:-1] + (5,)).astype(dtype)
    copies = [x.data.copy(), w.data.copy(), b.data.copy(), g.copy()]
    out, _ = backward_of(ad.affine, (x, w, b), g)
    assert_untouched([x.data, w.data, b.data, g], copies)
    assert out.dtype == dtype and np.array_equal(out.data, x.data @ w.data + b.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(6, 4), (2, 3, 4)])
def test_affine_without_bias_is_a_zero_bias(rng, dtype, x_shape):
    """``affine(x, w, None)`` records ``x`` and ``w`` alone and gives the
    output and the ``x`` and ``w`` gradients of a zero bias, bit for bit."""
    x, w = (ad.tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in (x_shape, (4, 5)))
    zero = ad.tensor(np.zeros(5, dtype=dtype), requires_grad=True)
    g = rng.normal(size=x_shape[:-1] + (5,)).astype(dtype)
    with ad.Tape() as tape:
        out = ad.affine(x, w, None)
    assert tape.entries[-1].inputs == (x, w)
    grads = tape.entries[-1].backward_fn(g)
    want_out, want_grads = backward_of(ad.affine, (x, w, zero), g)
    assert len(grads) == 2 and out.dtype == dtype
    assert out.data.tobytes() == want_out.data.tobytes()
    for got, want in zip(grads, want_grads[:2]):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c", [48, 64, 100, 512])
def test_layer_norm_variance_from_centred_values_is_exact(rng, dtype, c):
    """``sum((x - mean)^2) / c`` is ``x.var`` bit for bit, so layer norm
    equals its ``var``-based form, off-centre rows included."""
    x = (rng.normal(loc=3.0, scale=2.0, size=(2, 37, c)) * rng.uniform(0.01, 10.0, size=(2, 37, 1))).astype(dtype)
    xc = x - x.mean(axis=-1, keepdims=True)
    assert np.array_equal((xc * xc).sum(axis=-1, keepdims=True) / c, x.var(axis=-1, keepdims=True))
    gain, bias = (ad.tensor(rng.normal(size=c).astype(dtype)) for _ in range(2))
    out = ad.layer_norm(ad.tensor(x), gain, bias)
    mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
    want = gain.data * ((x - mu) * (1.0 / np.sqrt(var + ad.LN_EPS))) + bias.data
    assert out.dtype == dtype and np.array_equal(out.data, want)


# ---------------------------------------------------------------------------
# Tape mechanics
# ---------------------------------------------------------------------------

def test_backward_accumulates_and_is_deterministic():
    """Gradient buffers accumulate within a pass in a fixed order, so two
    identical passes give bitwise-identical gradients."""
    rng = np.random.default_rng(1)
    xv = rng.normal(size=(6, 4))
    wv = rng.normal(size=(4, 2))

    def run_once():
        x = ad.tensor(xv, requires_grad=True)
        w = ad.constant(wv)
        with ad.Tape() as tape:
            out = ad.sum_reduce(ad.relu(ad.matmul(x, w)))
        return ad.backward(tape, out)[x]

    g1, g2 = run_once(), run_once()
    assert np.array_equal(g1, g2)  # bitwise-identical reruns


def v2_batch_step(dtype, n=24):
    """The model and the tape and loss of one training forward of a tiny
    DCP-v2 model on a batch of two pairs, its attention residual not a no-op."""
    rng = np.random.default_rng(5)
    cfg = dcpnet.ModelConfig(widths=(4, 4), emb_dims=8, heads=2, ffn_dims=16, knn_k=4, dtype=dtype, attention=True)
    model = dcpnet.ModelParams.initialize(cfg, seed=3)
    out_w = model.params["attn.out.w"]
    out_w.data = rng.normal(scale=0.5, size=out_w.shape).astype(dtype)
    xs = [rng.normal(size=(n, 3)) for _ in range(2)]
    gts = [geo.RigidTransform(random_rotation(rng), rng.normal(scale=0.2, size=3)) for _ in range(2)]
    ys = [x @ gt.rotation.T + gt.translation for x, gt in zip(xs, gts)]
    with ad.Tape() as tape:
        out = dcpnet.dcp_forward(xs, ys, model)
        loss = dcpnet.dcp_loss(out.rotation, out.translation, gts)
    return model, tape, loss


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_backward_equals_old_form_bit_for_bit(dtype):
    """The backward that frees spent gradients gives every parameter the
    gradient of the form that kept them all, bit for bit, after one pass
    and after a second pass over the same tape."""
    model, tape, loss = v2_batch_step(dtype)
    runs = []
    for backward in (ref.backward, ad.backward):
        passes = []
        for _ in range(2):
            grads = backward(tape, loss)
            passes.append({name: grads[p] for name, p in model.params.items() if p in grads})
        runs.append(passes)
    assert len(runs[0][0]) == len(model.params)
    assert any(np.abs(g).max() > 0 for name, g in runs[0][0].items() if name.startswith("attn."))
    for old, new in zip(*runs):
        assert old.keys() == new.keys()
        for name in old:
            assert new[name].dtype == old[name].dtype and new[name].tobytes() == old[name].tobytes(), name


def test_backward_peak_memory_below_old_form():
    """Gradients freed once spent: the pass peaks well below the form that
    keeps every gradient until it returns, on the same tape."""
    model, tape, loss = v2_batch_step("float32", n=32)
    peaks = {}
    tracemalloc.start()
    try:
        for _ in range(2):  # the second round runs warm
            for name, backward in (("old", ref.backward), ("new", ad.backward)):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                backward(tape, loss)
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peaks["new"] < 0.75 * peaks["old"], peaks


def test_backward_rejects_non_scalar():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ShapeError):
        ad.backward(tape, y)


def test_no_tape_means_no_graph():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x)  # executed outside any tape
    assert not y._in_graph


def test_max_reduce_tie_routes_to_lowest_index():
    x = ad.tensor([3.0, 3.0, 1.0], requires_grad=True)
    with ad.Tape() as tape:
        out = ad.sum_reduce(ad.max_reduce(ad.reshape(x, (1, 3)), axis=1))
    assert np.array_equal(ad.backward(tape, out)[x], [1.0, 0.0, 0.0])


def test_gather_scatter_add_on_duplicates():
    x = ad.tensor(np.arange(4.0).reshape(4, 1), requires_grad=True)
    with ad.Tape() as tape:
        out = ad.sum_reduce(ad.gather(x, np.array([1, 1, 1])))
    assert np.array_equal(ad.backward(tape, out)[x], [[0.0], [3.0], [0.0], [0.0]])


# ---------------------------------------------------------------------------
# Shape/dtype errors
# ---------------------------------------------------------------------------

def test_shape_error_names_both_shapes():
    a = ad.tensor(np.zeros((2, 3)))
    b = ad.tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError) as exc:
        ad.add(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)
    with pytest.raises(ShapeError):
        ad.matmul(a, b)


def test_softmax_axis_errors():
    x = ad.tensor(np.zeros((2, 3)))
    with pytest.raises(InvalidAxisError):
        ad.softmax(x, axis=2)
    empty = ad.tensor(np.zeros((2, 0)))
    with pytest.raises(InvalidAxisError):
        ad.softmax(empty, axis=1)


def test_dtype_mixing_rejected():
    a = ad.tensor(np.zeros(3), dtype=np.float32)
    b = ad.tensor(np.zeros(3), dtype=np.float64)
    with pytest.raises(InvalidInputError):
        ad.add(a, b)


def test_dtype_fixed_at_construction():
    t = ad.tensor([1, 2, 3], dtype=np.float32)
    assert t.dtype == np.float32
    out = ad.mul(t, ad.constant(2.0, dtype=np.float32))
    assert out.dtype == np.float32


def test_batch_norm_training_needs_batch():
    x = ad.tensor(np.zeros((1, 4)))
    g = ad.tensor(np.ones(4), requires_grad=True)
    b = ad.tensor(np.zeros(4))
    with ad.Tape(), pytest.raises(InvalidInputError):
        ad.batch_norm(x, g, b, ref.batch_norm_state(4))


def test_batch_norm_running_stats_update():
    rng = np.random.default_rng(5)
    x = ad.tensor(rng.normal(loc=2.0, size=(64, 3)))
    gamma, beta = ad.tensor(np.ones(3), requires_grad=True), ad.tensor(np.zeros(3))
    state = ref.batch_norm_state(3)
    with ad.Tape():
        ad.batch_norm(x, gamma, beta, state)
    expected_mean = 0.9 * 0.0 + 0.1 * x.data.mean(axis=0)
    assert np.allclose(state.running_mean, expected_mean)
    out_eval = ad.batch_norm(x, gamma, beta, state)
    manual = (x.data - state.running_mean) / np.sqrt(state.running_var + ad.BN_EPS)
    assert np.allclose(out_eval.data, manual)


def edgeconv_inputs(rng, dtype, n=9, m=7, k=3, c=5, offset=0.0):
    center, per_point = (
        ad.tensor((offset + rng.normal(size=(rows, c))).astype(dtype), requires_grad=True) for rows in (n, m)
    )
    gamma = ad.tensor((rng.uniform(0.5, 1.5, size=c) * np.where(np.arange(c) % 2, -1, 1)).astype(dtype),
                      requires_grad=True)
    beta = ad.tensor(rng.normal(size=c).astype(dtype), requires_grad=True)
    idx = np.array([rng.choice(m, size=k, replace=False) for _ in range(n)])
    return center, per_point, idx, gamma, beta


@pytest.mark.parametrize("taped", [False, True], ids=["eval", "training"])
def test_edgeconv_bn_max_leaves_inputs_and_gradient_unchanged(rng, taped):
    """Neither an inference call nor a recorded call and its backward
    write to the inputs or to the output gradient."""
    center, per_point, idx, gamma, beta = edgeconv_inputs(rng, np.float64)
    state = ref.batch_norm_state(5)
    g = rng.normal(size=(9, 5))
    tensors = (center, per_point, gamma, beta)
    copies = [t.data.copy() for t in tensors] + [idx.copy(), g.copy()]
    if taped:
        _, grads = backward_of(lambda c, p, ga, be: ad.edgeconv_bn_max(c, p, idx, ga, be, state), tensors, g)
        assert [gr.shape for gr in grads] == [(9, 5), (7, 5), (5,), (5,)]
    else:
        assert ad.edgeconv_bn_max(center, per_point, idx, gamma, beta, state).shape == (9, 5)
    assert_untouched([t.data for t in tensors] + [idx, g], copies)


def looped_first_argmax(idx, signed, spick):
    """The argmax scan the slot code replaced: scanning down from the last
    neighbor, each match overwrites, so the lowest one is written last."""
    argmax = np.repeat(idx[:, :1], spick.shape[1], axis=1)
    for t in range(idx.shape[1] - 1, -1, -1):
        np.copyto(argmax, idx[:, t : t + 1], where=signed[idx[:, t]] == spick)
    return argmax


@pytest.mark.parametrize("k", [1, 3, 10, 260], ids=lambda k: f"k{k}")
def test_first_argmax_matches_loop(rng, k):
    """Rounded values tie often; gamma has both signs, +0 and -0 (where every
    neighbor ties), and k = 260 needs a code wider than a byte."""
    m, c = max(k + 1, 40), 6
    per_point = np.round(rng.normal(size=(m, c)), 1)
    s = np.sign(np.array([1.5, -0.5, 0.0, -0.0, 2.0, -3.0]))
    idx = np.array([rng.choice(m, size=k, replace=False) for _ in range(50)])
    signed = per_point * s
    spick = signed[idx].max(axis=1)
    got = ref.first_argmax(idx, signed, spick)
    assert np.array_equal(got, looped_first_argmax(idx, signed, spick))
    assert np.array_equal(got[:, 2:4], np.repeat(idx[:, :1], 2, axis=1))  # gamma = +-0: neighbor 0


EDGE_GAMMAS = {
    "mixed": np.array([1.5, -0.5, 0.0, -0.0, 2.0, -3.0]),
    "positive": np.array([1.5, 0.5, 0.25, 1.0, 2.0, 3.0]),
}


def assert_edgeconv_equals_untiled_form(center, per_point, idx, gamma, beta, g):
    """The inference forward no tape records, and the training forward, its
    running statistics and its backward, equal the untiled form bit for
    bit, NaN for NaN."""
    c, dtype = center.shape[1], center.dtype
    results = []
    for edgeconv in (ad.edgeconv_bn_max, ref.edgeconv_bn_max):
        states = [ad.BatchNormState(np.full(c, 0.25, dtype), np.full(c, 2.0, dtype)) for _ in range(2)]
        untaped = edgeconv(center, per_point, idx, gamma, beta, states[0])
        with ad.Tape() as tape:
            taped = edgeconv(center, per_point, idx, gamma, beta, states[1])
        grads = tape.entries[-1].backward_fn(g)
        stats = [a for st in states for a in (st.running_mean, st.running_var)]
        results.append([untaped.data, taped.data, *grads, *stats])
    for got, want in zip(*results):
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)


def rounded_edgeconv_inputs(rng, dtype, gamma, k, n=37):
    """Values rounded to 0.1, so neighbors tie often."""
    m, c = max(k + 1, 40), gamma.size
    center, per_point = (ad.tensor(np.round(rng.normal(size=(rows, c)), 1).astype(dtype), requires_grad=True)
                         for rows in (n, m))
    beta = ad.tensor(rng.normal(size=c).astype(dtype), requires_grad=True)
    idx = np.array([rng.choice(m, size=k, replace=False) for _ in range(n)])
    g = rng.normal(size=(n, c)).astype(dtype)
    return center, per_point, idx, ad.tensor(gamma.astype(dtype), requires_grad=True), beta, g


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("gammas", sorted(EDGE_GAMMAS))
@pytest.mark.parametrize("k", [1, 3, 5, 10, 260], ids=lambda k: f"k{k}")
@pytest.mark.parametrize("tile_rows", [None, 4], ids=["one-tile", "tiles-of-4"])
def test_edgeconv_bn_max_tiles_equal_untiled_form(rng, monkeypatch, dtype, gammas, k, tile_rows):
    """Gamma of both signs with +0 and -0, or all positive; 37 rows, which
    is not a multiple of 4; k = 260 needs a slot wider than a byte."""
    if tile_rows:
        monkeypatch.setattr(ad, "TILE_BYTES", tile_rows * 6 * np.dtype(dtype).itemsize)
        assert ad._tile_rows(6, dtype) == tile_rows
    assert_edgeconv_equals_untiled_form(*rounded_edgeconv_inputs(rng, dtype, EDGE_GAMMAS[gammas], k))


@pytest.mark.parametrize("tile_rows", [None, 4], ids=["one-tile", "tiles-of-4"])
def test_edgeconv_bn_max_nan_neighbors_equal_untiled_form(rng, monkeypatch, tile_rows):
    """A NaN in ``per_point`` makes the maximum NaN in channel 0 (gamma > 0),
    1 (gamma < 0) and 2 (gamma = +0) of every row that has it as a neighbor;
    the other channels stay finite."""
    if tile_rows:
        monkeypatch.setattr(ad, "TILE_BYTES", tile_rows * 6 * 8)
    center, per_point, idx, gamma, beta, g = rounded_edgeconv_inputs(rng, np.float64, EDGE_GAMMAS["mixed"], 5)
    per_point.data[idx[::3, 2], :3] = np.nan
    with np.errstate(invalid="ignore"):
        assert_edgeconv_equals_untiled_form(center, per_point, idx, gamma, beta, g)


def test_edgeconv_bn_max_moments_do_not_cancel(rng, monkeypatch):
    """float32 features sharing an offset of 1e3: E[h^2] - mu^2 would lose
    every digit of the variance, the centred float64 moments keep them."""
    center, per_point, idx, gamma, beta = edgeconv_inputs(rng, np.float32, n=64, m=64, k=8, offset=1e3)
    monkeypatch.setattr(ad, "BN_MOMENTUM", 1.0)
    state = ref.batch_norm_state(5, dtype=np.float32)
    with ad.Tape():
        ad.edgeconv_bn_max(center, per_point, idx, gamma, beta, state)
    edges = center.data.astype(np.float64)[:, None, :] + per_point.data.astype(np.float64)[idx]
    assert state.running_var.dtype == np.float32
    assert np.allclose(state.running_var, edges.var(axis=(0, 1)), rtol=1e-5, atol=0)
    assert np.allclose(state.running_mean, edges.mean(axis=(0, 1)), rtol=1e-6, atol=0)


def test_edgeconv_bn_max_input_errors(rng):
    center, per_point, idx, gamma, beta = edgeconv_inputs(rng, np.float64)
    state = ref.batch_norm_state(5)

    def call(c=center, p=per_point, i=idx, ga=gamma):
        return ad.edgeconv_bn_max(c, p, i, ga, beta, state)

    with pytest.raises(ShapeError):
        call(i=idx[:-1])  # one row per center row
    with pytest.raises(ShapeError):
        call(i=idx.ravel())
    with pytest.raises(ShapeError):
        call(i=idx + 7)  # rows past per_point
    with pytest.raises(ShapeError):
        call(p=ad.tensor(np.zeros((7, 4))))  # channels differ
    with pytest.raises(ShapeError):
        call(ga=ad.tensor(np.ones(4)))
    with pytest.raises(InvalidInputError):
        call(i=idx.astype(np.float64))
    with pytest.raises(InvalidInputError):
        call(p=ad.tensor(per_point.data, dtype=np.float32))
    with ad.Tape(), pytest.raises(InvalidInputError):
        call(c=ad.tensor(center.data[:1]), i=idx[:1, :1])  # a single edge to train on


# ---------------------------------------------------------------------------
# svd_rigid_head
# ---------------------------------------------------------------------------

def test_head_identity_pair(rng):
    pts = rng.normal(size=(1, 8, 3))
    src = ad.tensor(pts, requires_grad=True)
    dst = ad.tensor(pts.copy(), requires_grad=True)
    with ad.Tape() as tape:
        r, t = ad.svd_rigid_head(src, dst)
        loss = ad.sum_reduce(ad.mul(t, t))
    assert np.allclose(r.data[0], np.eye(3), atol=1e-9)
    assert np.allclose(t.data[0], 0, atol=1e-9)
    grads = ad.backward(tape, loss)

    def forward():
        _, t2 = ad.svd_rigid_head(src, dst)
        return ad.sum_reduce(ad.mul(t2, t2)).item()

    num = numeric_grad(forward, dst)
    gradcheck.assert_grads_close(grads[dst], num, 1e-5, "dst")


def test_head_forward_matches_procrustes(rng):
    src_v = rng.normal(size=(12, 3))
    dst_v = src_v @ np.linalg.qr(rng.normal(size=(3, 3)))[0] + rng.normal(size=3)
    r, t = ad.svd_rigid_head(ad.tensor(src_v[None]), ad.tensor(dst_v[None]))
    solved = geo.procrustes_solve(src_v, dst_v)
    assert np.abs(r.data[0] - solved.rotation).max() < 1e-12
    assert np.abs(t.data[0] - solved.translation).max() < 1e-12


def test_head_alignment_loss_jacobian(rng):
    src_v, dst_v = gradcheck._well_separated_cloud(rng)
    gt = geo.procrustes_solve(src_v, dst_v)
    rg = ad.constant(gt.rotation)
    tg = ad.constant(gt.translation)
    src = ad.tensor(src_v[None], requires_grad=True)
    dst = ad.tensor((dst_v + 0.1 * rng.normal(size=dst_v.shape))[None], requires_grad=True)
    eye = ad.constant(np.eye(3))

    def forward():
        r, t = ad.svd_rigid_head(src, dst)
        dr = ad.sub(ad.matmul(ad.swap_last(r), rg), eye)
        dt = ad.sub(t, tg)
        return ad.add(ad.sum_reduce(ad.mul(dr, dr)), ad.sum_reduce(ad.mul(dt, dt)))

    with ad.Tape() as tape:
        loss = forward()
    grads = ad.backward(tape, loss)
    for name, p in (("src", src), ("dst", dst)):
        num = numeric_grad(lambda: forward().item(), p)
        gradcheck.assert_grads_close(grads[p], num, 1e-4, name)


def test_head_equal_singular_values_gradcheck(rng):
    """An octahedron matched to itself has cross-covariance 2I, three equal
    singular values. The rotation is smooth there, and the backward's
    gradient matches central differences; it once raised."""
    pts = np.array(
        [[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    )
    src = ad.tensor(pts[None], requires_grad=True)
    dst = ad.tensor(pts[None].copy(), requires_grad=True)
    wr, wt = ad.constant(rng.normal(size=(1, 3, 3))), ad.constant(rng.normal(size=(1, 3)))

    def forward():
        r, t = ad.svd_rigid_head(src, dst)
        return ad.add(ad.sum_reduce(ad.mul(wr, r)), ad.sum_reduce(ad.mul(wt, t)))

    with ad.Tape() as tape:
        loss = forward()
    assert np.allclose(geo.svd3(2.0 * np.eye(3))[1], 2.0)
    grads = ad.backward(tape, loss)
    for name, p in (("src", src), ("dst", dst)):
        gradcheck.assert_grads_close(grads[p], numeric_grad(lambda: forward().item(), p), 1e-6, name)


def cross_covariances(rng, singular_values):
    """One H = U diag(s) V^T per row of signed singular values, with random
    rotations U and V, so ``geo.svd3`` gives back that row."""
    return np.stack([random_rotation(rng) @ np.diag(s) @ random_rotation(rng).T for s in singular_values])


def tape_svd_rotation_grad(h_values, w):
    """The tape's gradient of sum(w * svd_rotation(h)) at ``h_values``."""
    h = ad.tensor(h_values, requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum_reduce(ad.mul(ad.constant(w), ad.svd_rotation(h)))
    return ad.backward(tape, loss)[h]


def test_svd_rotation_grad_equals_the_two_adjoint_form(rng):
    """Over 200 cross-covariances whose singular values' magnitudes and
    pairwise sums stay at least 0.1 apart, half of them reflected
    (det H < 0), the polar-factor backward equals the separate-adjoint form
    it replaced to within 1e-12, relative."""
    mags = -np.sort(-rng.uniform(0.1, 3.0, size=(4000, 3)), axis=1)
    mags = mags[(np.diff(-mags, axis=1).min(axis=1) > 0.1) & (mags[:, 2] > 0.1)][:200]
    signs = np.where(np.arange(200) % 2, -1.0, 1.0)
    h = cross_covariances(rng, mags * np.stack([np.ones(200), np.ones(200), signs], axis=1))
    assert (np.sign(np.linalg.det(h)) == signs).all()
    w = rng.normal(size=h.shape)
    got, want = tape_svd_rotation_grad(h, w), ref.svd_rotation_grad(h, w)
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert (np.abs(got - want) / scale).max() < 1e-12


def test_svd_rotation_gradcheck_at_the_edges_of_its_domain(rng):
    """Equal, repeated, one-zero (rank 2) and reflected (s3 < 0) singular
    values, in one batch: the gradient matches central differences."""
    s = [(2.0, 2.0, 2.0), (3.0, 1.0, 1.0), (3.0, 2.0, 0.0), (3.0, 2.0, -1.0), (2.0, 1.5, -1.5 + 1e-3)]
    h = ad.tensor(cross_covariances(rng, s), requires_grad=True)
    assert np.allclose(geo.svd3(h.data)[1], s)
    w = ad.constant(rng.normal(size=h.shape))

    def forward():
        return ad.sum_reduce(ad.mul(w, ad.svd_rotation(h)))

    with ad.Tape() as tape:
        loss = forward()
    grads = ad.backward(tape, loss)
    gradcheck.assert_grads_close(grads[h], numeric_grad(lambda: forward().item(), h), 1e-5, "h")


def test_svd_rotation_names_the_reflected_pair(rng):
    """A reflected H with s2 = -s3 is a real singularity of the rotation:
    in a batch of three, the backward names that pair and the sum s2 + s3,
    and not the pair beside it whose singular values are all equal."""
    h = ad.tensor(cross_covariances(rng, [(3.0, 2.0, 1.0), (3.0, 1.0, -1.0), (2.0, 2.0, 2.0)]), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum_reduce(ad.svd_rotation(h))
    with pytest.raises(GradientSingularityError, match=r"pair 1 of 3: singular values \[.*\], s2 \+ s3 = ") as exc:
        ad.backward(tape, loss)
    assert "pair 0" not in str(exc.value) and "pair 2" not in str(exc.value)


def test_head_names_the_collapsed_pair(rng):
    """In a batch of three, pair 1's soft targets are all one point, so its
    cross-covariance is 0: the backward names that pair and its singular
    values, and no other pair."""
    src_v = rng.normal(size=(3, 6, 3))
    dst_v = src_v + 0.1 * rng.normal(size=(3, 6, 3))
    dst_v[1] = dst_v[1, 0]
    src, dst = ad.tensor(src_v, requires_grad=True), ad.tensor(dst_v, requires_grad=True)
    with ad.Tape() as tape:
        r, _ = ad.svd_rigid_head(src, dst)
        loss = ad.sum_reduce(ad.mul(r, r))
    assert r.shape == (3, 3, 3)
    with pytest.raises(GradientSingularityError, match=r"pair 1 of 3: singular values \[") as exc:
        ad.backward(tape, loss)
    assert "pair 0" not in str(exc.value) and "pair 2" not in str(exc.value)


def test_head_input_validation():
    good = ad.tensor(np.zeros((1, 4, 3)))
    with pytest.raises(ShapeError):
        ad.svd_rigid_head(good, ad.tensor(np.zeros((1, 5, 3))))
    with pytest.raises(InsufficientDataError):
        ad.svd_rigid_head(ad.tensor(np.zeros((1, 2, 3))), ad.tensor(np.zeros((1, 2, 3))))
    # A lone pair is not a batch, for the head or for its rotation.
    with pytest.raises(ShapeError, match=r"\(B, N, 3\)"):
        ad.svd_rigid_head(ad.tensor(np.zeros((4, 3))), ad.tensor(np.zeros((4, 3))))
    with pytest.raises(ShapeError, match=r"\(B, 3, 3\)"):
        ad.svd_rotation(ad.tensor(np.eye(3)))
    with pytest.raises(ShapeError):
        ad.svd_rigid_head(ad.tensor(np.zeros((2, 4, 3))), ad.tensor(np.zeros((3, 4, 3))))
