"""Finite-difference gradient oracle and the primitive case registry.

The numeric side is intentionally independent of the backward rules: it
re-runs the forward computation with perturbed inputs, each run on a
throwaway tape so that batch norm trains as it does on the analytic side.
"""

import numpy as np

from dcpreg import autodiff as ad

import reference_forms as ref

FD_STEP = 1e-6
PRIMITIVE_TOL = 1e-5


def numeric_grad(forward, param: ad.Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the scalar ``forward()`` w.r.t.
    ``param``, each forward on a tape that no backward reads."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        with ad.Tape():
            flat[i] = orig + step
            f_plus = forward()
            flat[i] = orig - step
            f_minus = forward()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def assert_grads_close(analytic: np.ndarray, numeric: np.ndarray, tol: float, label: str):
    assert analytic is not None, f"{label}: no gradient produced"
    err = np.abs(analytic - numeric)
    scale = 1.0 + np.abs(numeric)
    worst = (err / scale).max() if err.size else 0.0
    assert worst < tol, f"{label}: relative gradient error {worst:.3e} >= {tol}"


def check_case(build, n_points: int, tol: float = PRIMITIVE_TOL, seed: int = 0):
    """Verify one primitive case at ``n_points`` random evaluation points.

    ``build(rng)`` must return ``(scalar_fn, params)`` where ``scalar_fn()``
    runs the forward computation and returns a scalar Tensor, and ``params``
    are the requires_grad leaf tensors to check.
    """
    for trial in range(n_points):
        rng = np.random.default_rng(seed * 1000 + trial)
        scalar_fn, params = build(rng)
        with ad.Tape() as tape:
            out = scalar_fn()
        grads = ad.backward(tape, out)
        for k, p in enumerate(params):
            num = numeric_grad(lambda: scalar_fn().item(), p)
            assert_grads_close(grads.get(p), num, tol, f"{build.__name__}[{trial}].param{k}")


def _t(rng, shape, lo=-1.0, hi=1.0):
    return ad.tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _weights(rng, shape):
    return ad.constant(rng.normal(size=shape))


# Each case builds a scalar loss touching one primitive, with a fixed random
# linear functional on top so upstream gradients are non-trivial.

def case_add(rng):
    a, b = _t(rng, (4, 3)), _t(rng, (3,))
    w = _weights(rng, (4, 3))
    return lambda: ad.sum_reduce(ad.mul(w, ad.add(a, b))), [a, b]


def case_sub(rng):
    a, b = _t(rng, (2, 4, 3)), _t(rng, (4, 1))
    w = _weights(rng, (2, 4, 3))
    return lambda: ad.sum_reduce(ad.mul(w, ad.sub(a, b))), [a, b]


def case_mul(rng):
    a, b = _t(rng, (5, 2)), _t(rng, (1, 2))
    w = _weights(rng, (5, 2))
    return lambda: ad.sum_reduce(ad.mul(w, ad.mul(a, b))), [a, b]


def case_matmul(rng):
    a, b = _t(rng, (4, 3)), _t(rng, (3, 5))
    w = _weights(rng, (4, 5))
    return lambda: ad.sum_reduce(ad.mul(w, ad.matmul(a, b))), [a, b]


def case_matmul_batched(rng):
    a, b = _t(rng, (2, 4, 3)), _t(rng, (3, 5))
    w = _weights(rng, (2, 4, 5))
    return lambda: ad.sum_reduce(ad.mul(w, ad.matmul(a, b))), [a, b]


def case_div(rng):
    a = _t(rng, (4, 3))
    b = ad.tensor(rng.uniform(0.5, 2.0, size=(3,)) * rng.choice([-1.0, 1.0], size=3), requires_grad=True)
    w = _weights(rng, (4, 3))
    return lambda: ad.sum_reduce(ad.mul(w, ad.div(a, b))), [a, b]


def case_relu(rng):
    # Keep pre-activations away from the kink at 0.
    vals = rng.uniform(0.1, 1.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
    x = ad.tensor(vals, requires_grad=True)
    w = _weights(rng, (4, 4))
    return lambda: ad.sum_reduce(ad.mul(w, ad.relu(x))), [x]


def case_softmax(rng):
    x = _t(rng, (3, 6), -2.0, 2.0)
    w = _weights(rng, (3, 6))
    return lambda: ad.sum_reduce(ad.mul(w, ad.softmax(x, axis=1))), [x]


def case_max_reduce(rng):
    # Separate the top two entries along the reduced axis by a margin.
    vals = rng.uniform(-1, 1, size=(4, 6))
    vals[np.arange(4), rng.integers(0, 6, size=4)] += 2.0
    x = ad.tensor(vals, requires_grad=True)
    w = _weights(rng, (4,))
    return lambda: ad.sum_reduce(ad.mul(w, ad.max_reduce(x, axis=1))), [x]


def case_mean_reduce(rng):
    x = _t(rng, (3, 5))
    w = _weights(rng, (5,))
    return lambda: ad.sum_reduce(ad.mul(w, ad.mean_reduce(x, axis=0))), [x]


def case_mean_all(rng):
    x = _t(rng, (4, 2))
    return lambda: ad.mean_reduce(ad.mean_reduce(ad.mul(x, x), axis=1), axis=0), [x]


def case_sum_reduce(rng):
    x = _t(rng, (3, 4))
    w = _weights(rng, (3,))
    return lambda: ad.sum_reduce(ad.mul(w, ad.sum_reduce(x, axis=1))), [x]


def case_concat(rng):
    a, b, c = _t(rng, (3, 2)), _t(rng, (3, 4)), _t(rng, (3, 1))
    w = _weights(rng, (3, 7))
    return lambda: ad.sum_reduce(ad.mul(w, ad.concat([a, b, c], axis=1))), [a, b, c]


def case_gather(rng):
    x = _t(rng, (5, 3))
    idx = rng.integers(0, 5, size=(4, 2))  # duplicates exercise scatter-add
    w = _weights(rng, (4, 2, 3))
    return lambda: ad.sum_reduce(ad.mul(w, ad.gather(x, idx))), [x]


def case_transpose(rng):
    x = _t(rng, (2, 3, 4))
    w = _weights(rng, (3, 2, 4))
    return lambda: ad.sum_reduce(ad.mul(w, ad.transpose(x, (1, 0, 2)))), [x]


def case_reshape(rng):
    x = _t(rng, (2, 6))
    w = _weights(rng, (3, 4))
    return lambda: ad.sum_reduce(ad.mul(w, ad.reshape(x, (3, 4)))), [x]


def case_affine(rng):
    x, w_p, b = _t(rng, (5, 4)), _t(rng, (4, 3)), _t(rng, (3,))
    w = _weights(rng, (5, 3))
    return lambda: ad.sum_reduce(ad.mul(w, ad.affine(x, w_p, b))), [x, w_p, b]


def case_affine_no_bias(rng):
    x, w_p = _t(rng, (2, 5, 4)), _t(rng, (4, 3))
    w = _weights(rng, (2, 5, 3))
    return lambda: ad.sum_reduce(ad.mul(w, ad.affine(x, w_p))), [x, w_p]


def case_attention(rng):
    # n != m, two heads of width 2.
    q, k, v = _t(rng, (3, 4), -2.0, 2.0), _t(rng, (5, 4), -2.0, 2.0), _t(rng, (5, 4))
    w = _weights(rng, (3, 4))
    return lambda: ad.sum_reduce(ad.mul(w, ad.attention(q, k, v, 2))), [q, k, v]


def reference_attention(q: ad.Tensor, k: ad.Tensor, v: ad.Tensor, heads: int) -> ad.Tensor:
    """Multi-head attention composed from tape primitives, as the model did
    before ``ad.attention``: split heads, q_h k_h^T, scale, softmax, times
    v_h, merge heads. Leading axes (a batch of pairs) ride along."""
    *lead, n, d = q.shape
    lead = tuple(lead)
    dk = d // heads
    heads_first = tuple(range(len(lead))) + (len(lead) + 1, len(lead), len(lead) + 2)

    def split(x):
        return ad.transpose(ad.reshape(x, lead + (x.shape[-2], heads, dk)), heads_first)

    logits = ad.matmul(split(q), ad.swap_last(split(k)))
    logits = ad.mul(logits, ad.constant(1.0 / np.sqrt(dk), dtype=logits.dtype))
    ctx = ad.matmul(ad.softmax(logits, axis=-1), split(v))
    return ad.reshape(ad.transpose(ctx, heads_first), lead + (n, d))


def case_batch_norm_training(rng):
    x, gamma, beta = _t(rng, (6, 4)), _t(rng, (4,), 0.5, 1.5), _t(rng, (4,))
    w = _weights(rng, (6, 4))

    def forward():
        state = ref.batch_norm_state(4)  # fresh state; stats not under test
        return ad.sum_reduce(ad.mul(w, ad.batch_norm(x, gamma, beta, state)))

    return forward, [x, gamma, beta]


def case_edgeconv_bn_max_training(rng):
    """Six rows with 3 neighbors each into 5 per-point rows, so in-degrees
    differ; gamma has both signs and no zeros, where the max would tie."""
    center, per_point = _t(rng, (6, 4), -2.0, 2.0), _t(rng, (5, 4), -2.0, 2.0)
    gamma = _t(rng, (4,), 0.5, 1.5)
    gamma.data *= np.array([1.0, -1.0, 1.0, -1.0])
    beta = _t(rng, (4,), 0.0, 1.0)
    idx = np.array([rng.choice(5, size=3, replace=False) for _ in range(6)])
    w = _weights(rng, (6, 4))

    def forward():
        state = ref.batch_norm_state(4)  # fresh state; stats not under test
        return ad.sum_reduce(ad.mul(w, ad.edgeconv_bn_max(center, per_point, idx, gamma, beta, state)))

    return forward, [center, per_point, gamma, beta]


def case_layer_norm(rng):
    x, gain, bias = _t(rng, (5, 4)), _t(rng, (4,), 0.5, 1.5), _t(rng, (4,))
    w = _weights(rng, (5, 4))
    return lambda: ad.sum_reduce(ad.mul(w, ad.layer_norm(x, gain, bias))), [x, gain, bias]


def _well_separated_cloud(rng, n=6):
    """Random matched points whose cross-covariance has clear singular gaps."""
    while True:
        src = rng.normal(size=(n, 3))
        dst = src @ np.linalg.qr(rng.normal(size=(3, 3)))[0] + rng.normal(size=3) * 0.3
        dst += rng.normal(size=(n, 3)) * 0.05
        h = (src - src.mean(0)).T @ (dst - dst.mean(0))
        s = np.linalg.svd(h, compute_uv=False)
        if np.diff(np.sort(s)).min() > 1e-2:
            return src, dst


def case_svd_rotation(rng):
    """One cross-covariance as a (1, 3, 3) batch."""
    src, dst = _well_separated_cloud(rng)
    h = ad.tensor(((src - src.mean(0)).T @ (dst - dst.mean(0)))[None], requires_grad=True)
    w = _weights(rng, (1, 3, 3))
    return lambda: ad.sum_reduce(ad.mul(w, ad.svd_rotation(h))), [h]


def case_svd_rigid_head(rng):
    """One matched cloud as a (1, 6, 3) batch."""
    src_v, dst_v = _well_separated_cloud(rng)
    src = ad.tensor(src_v[None], requires_grad=True)
    dst = ad.tensor(dst_v[None], requires_grad=True)
    wr = _weights(rng, (1, 3, 3))
    wt = _weights(rng, (1, 3))

    def forward():
        r, t = ad.svd_rigid_head(src, dst)
        return ad.add(ad.sum_reduce(ad.mul(wr, r)), ad.sum_reduce(ad.mul(wt, t)))

    return forward, [src, dst]


def case_svd_rotation_stacked(rng):
    """Three cross-covariances in one (3, 3, 3) stack."""
    hs = []
    for _ in range(3):
        src, dst = _well_separated_cloud(rng)
        hs.append((src - src.mean(0)).T @ (dst - dst.mean(0)))
    h = ad.tensor(np.stack(hs), requires_grad=True)
    w = _weights(rng, (3, 3, 3))
    return lambda: ad.sum_reduce(ad.mul(w, ad.svd_rotation(h))), [h]


def case_svd_rigid_head_stacked(rng):
    """Two matched clouds in one (2, 6, 3) batch."""
    src_v, dst_v = zip(*(_well_separated_cloud(rng) for _ in range(2)))
    src = ad.tensor(np.stack(src_v), requires_grad=True)
    dst = ad.tensor(np.stack(dst_v), requires_grad=True)
    wr = _weights(rng, (2, 3, 3))
    wt = _weights(rng, (2, 3))

    def forward():
        r, t = ad.svd_rigid_head(src, dst)
        return ad.add(ad.sum_reduce(ad.mul(wr, r)), ad.sum_reduce(ad.mul(wt, t)))

    return forward, [src, dst]


PRIMITIVE_CASES = [
    case_add,
    case_sub,
    case_mul,
    case_div,
    case_matmul,
    case_matmul_batched,
    case_relu,
    case_softmax,
    case_max_reduce,
    case_mean_reduce,
    case_mean_all,
    case_sum_reduce,
    case_concat,
    case_gather,
    case_transpose,
    case_reshape,
    case_affine,
    case_affine_no_bias,
    case_attention,
    case_batch_norm_training,
    case_edgeconv_bn_max_training,
    case_layer_norm,
    case_svd_rotation,
    case_svd_rotation_stacked,
    case_svd_rigid_head_stacked,
]
