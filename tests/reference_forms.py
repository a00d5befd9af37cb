"""Plain forms of the k-d tree kNN, the signed 3x3 SVD, the closed-form
alignment, the ICP loop (on the forms above, and again with its
correspondence step in three places), the tape's backward, the model
initializer, the ring meshes' face loops, the edge convolution's fused
step with its backward's argmax scan, and the forward up to the soft
targets, as they read before their per-call overhead or their memory was
cut, their tensors were declared in one table, their recorded states came
from one step, their bands of quads came from one rule, their rows were
worked in cache-sized tiles, their argmax was recorded by the forward, or
an inference pair was embedded and attended as one stack. Tests require
the library's outputs to equal these bit for bit: the leaner forms change
the bookkeeping, not the arithmetic.

:func:`svd_rotation_grad` is the SVD head's backward as it read before it
took the polar-factor form, which rounds differently: tests require the
two to agree to within 1e-12, relative, where this one is defined.

:func:`exact_knn` breaks distance ties toward the lowest index, which the
library's kNN does not promise: tests compare its squared distances with
the library's, and its indices only where no tie can occur, as in the ICP
loop on noisy pairs.

The last helpers are small forms that only tests need, kept here rather
than in the package: composing two transforms, the index-matched alignment
residual, Euler angles as an array and a fresh batch-norm state.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix

from dcpreg import autodiff as ad, dcpnet, geometry as geo, icp
from dcpreg.errors import DegenerateCorrespondenceError, ShapeError

# The ICP loops below stop one step after a solve that moves the transform
# by less than this (summed Frobenius norms of the rotation and translation
# changes): the library's old stall rule. Its repeated-match stop ends the
# same runs at the same last state, but for a start that the first solve
# returns bit for bit at tol 0, which it ends one copied state later.
TRANSFORM_TOL = 1e-10


def exact_knn(tree, queries, k, skip_self=False):
    """Every round sorts every candidate row by (squared distance, index)."""
    points = tree.data
    n = points.shape[0]
    indices = np.empty((queries.shape[0], k), dtype=np.int64)
    dist2 = np.empty((queries.shape[0], k))
    todo = np.arange(queries.shape[0])
    m = k + 1 + int(skip_self)
    while todo.size:
        m = min(m, n)
        q = queries[todo]
        _, cand = tree.query(q, k=m)
        cand = cand.reshape(todo.size, m)
        diff = q[:, None, :] - points[cand]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        last = np.full(todo.size, m - 1)
        if skip_self:
            is_self = cand == todo[:, None]
            d2[is_self] = np.inf
            last -= is_self.any(axis=1)
        rows = np.arange(todo.size)[:, None]
        order = np.lexsort((cand, d2), axis=1)
        cand, d2 = cand[rows, order], d2[rows, order]
        done = (d2[:, k - 1] < d2[rows[:, 0], last]) | (m == n)
        indices[todo[done]] = cand[done, :k]
        dist2[todo[done]] = d2[done, :k]
        todo = todo[~done]
        m *= 2
    return indices, dist2


def svd3(m):
    """A determinant per factor, a copy of the input."""
    a = np.array(m, dtype=np.float64)
    u, sigma, vt = np.linalg.svd(a)
    v = vt.swapaxes(-1, -2)
    for w in (u, v):
        flip = np.linalg.det(w) < 0.0
        if np.count_nonzero(flip):
            sign = np.where(flip, -1.0, 1.0)
            w[..., :, 2] *= sign[..., None]
            sigma[..., 2] *= sign
    return u, sigma, v


def svd_rotation_grad(h, g):
    """The gradient ``g`` of R = V U^T sends to each H of a (B, 3, 3) stack,
    through separate adjoints of U and V. Those divide by s_j^2 - s_i^2, so
    it is undefined where two singular values' magnitudes are equal."""
    u, s, v = geo.svd3(h)
    ut, vt = np.swapaxes(u, -1, -2), np.swapaxes(v, -1, -2)
    u_bar = np.swapaxes(g, -1, -2) @ v  # d(V U^T)/dU adjoint
    v_bar = g @ u
    a_sym = 0.5 * (ut @ u_bar - np.swapaxes(u_bar, -1, -2) @ u)
    b_sym = 0.5 * (vt @ v_bar - np.swapaxes(v_bar, -1, -2) @ v)
    s2 = s * s
    denom = s2[..., None, :] - s2[..., :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(np.eye(3, dtype=bool), 0.0, 1.0 / denom)
    # (A * E) @ diag(s) scales columns by s; diag(s) @ (B * E) scales rows.
    q = 2.0 * (a_sym * e) * s[..., None, :] + 2.0 * s[..., :, None] * (b_sym * e)
    return u @ q @ vt


def procrustes_solve(src, dst):
    """Centroids from ``mean``; the rank-deficiency warning is left to the library."""
    x, y = np.asarray(src, dtype=np.float64), np.asarray(dst, dtype=np.float64)
    cx = x.mean(axis=0)
    cy = y.mean(axis=0)
    u, _, v = svd3((x - cx).T @ (y - cy))
    rotation = v @ u.T
    return geo.RigidTransform(rotation, cy - rotation @ cx)


def icp_register(x, y, init=None, max_iters=100, tol=1e-8, transform_tol=TRANSFORM_TOL):
    """The ICP loop on the forms above; returns ``(transform, history)``
    with history entries ``(iteration, transform, objective, correspondence)``."""
    from scipy.spatial import cKDTree

    tree = cKDTree(y)
    transform = init if init is not None else geo.RigidTransform.identity()

    def correspond(t):
        moved = x @ t.rotation.T + t.translation
        idx, d2 = exact_knn(tree, moved, 1)
        dist = np.sqrt(d2[:, 0])
        return idx[:, 0], float(np.mean(dist**2))

    history = []
    prev_objective = np.inf
    for k in range(max_iters):
        corr, objective = correspond(transform)
        history.append((k, transform, objective, corr))
        if np.unique(corr).size == 1:
            raise DegenerateCorrespondenceError("all source points matched a single target point", history=history)
        if prev_objective - objective < tol:
            break
        new_transform = procrustes_solve(x, y[corr])
        delta = np.linalg.norm(new_transform.rotation - transform.rotation) + np.linalg.norm(
            new_transform.translation - transform.translation
        )
        transform = new_transform
        prev_objective = objective
        if delta < transform_tol:
            corr, objective = correspond(transform)
            history.append((k + 1, transform, objective, corr))
            break
    else:
        corr, objective = correspond(transform)
        history.append((max_iters, transform, objective, corr))
    return history[-1][1], history


def icp_three_step_sites(x, y, init=None, max_iters=icp.DEFAULT_MAX_ITERS, tol=icp.DEFAULT_TOL):
    """``icp.icp_register`` as it read when the correspondence step, and the
    state it records, sat in three places: in the loop, after a stall and
    after the ``max_iters``-th solve. It runs the library's own step and
    solve, so its history must equal the library's field for field."""
    xp, yp = geo._as_points(x), geo._as_points(y)
    transform = init if init is not None else geo.RigidTransform.identity()
    index = icp.SpatialIndex(yp)
    history = []
    prev_objective = np.inf
    for k in range(max_iters):
        corr, objective = icp.correspondence_step(xp, index, transform)
        history.append(icp.IcpState(k, transform, objective, corr))
        if (corr == corr[0]).all():
            raise DegenerateCorrespondenceError("all source points matched a single target point", history=history)
        if prev_objective - objective < tol:
            break
        new_transform = geo.procrustes_solve(xp, yp.take(corr, axis=0))
        d_rot = (new_transform.rotation - transform.rotation).ravel()
        d_tra = new_transform.translation - transform.translation
        delta = math.sqrt(d_rot.dot(d_rot)) + math.sqrt(d_tra.dot(d_tra))
        transform = new_transform
        prev_objective = objective
        if delta < TRANSFORM_TOL:
            corr, objective = icp.correspondence_step(xp, index, transform)
            history.append(icp.IcpState(k + 1, transform, objective, corr))
            break
    else:
        corr, objective = icp.correspondence_step(xp, index, transform)
        history.append(icp.IcpState(max_iters, transform, objective, corr))
    return history[-1].transform, history


def backward(tape, output):
    """Every gradient buffer, spent or not, lives until the pass returns;
    ``seen`` lists every input the pass met, in order."""
    if output.ndim != 0:
        raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
    buffers = {id(output): np.ones((), dtype=output.dtype)}

    def credit(t, g):
        if g is None:
            return
        key = id(t)
        if key in buffers:
            buffers[key] = buffers[key] + g
        else:
            buffers[key] = g

    seen = {id(output): output}
    for entry in reversed(tape.entries):
        g_out = buffers.get(id(entry.output))
        if g_out is None:
            continue
        grads = entry.backward_fn(g_out)
        for t, g in zip(entry.inputs, grads):
            credit(t, g)
            seen[id(t)] = t

    return {
        t: np.asarray(buffers[id(t)], dtype=t.dtype).reshape(t.shape)
        for t in seen.values()
        if t.requires_grad and id(t) in buffers
    }


def initialize(cfg, seed):
    """Each layer helper draws its weights from one generator as the model
    is built, layer by layer."""
    rng = np.random.default_rng(seed)
    dtype = cfg.np_dtype
    params, bn_states = {}, {}

    def affine(name, n_in, n_out, zero=False, bias=True):
        if zero:
            w = np.zeros((n_in, n_out))
        else:
            bound = math.sqrt(6.0 / n_in)
            w = rng.uniform(-bound, bound, size=(n_in, n_out))
        params[f"{name}.w"] = ad.tensor(w.astype(dtype), requires_grad=True)
        if bias:
            params[f"{name}.b"] = ad.tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)

    def edge_map(name, c_in, c_out):
        bound = math.sqrt(6.0 / (2 * c_in))
        for part in ("wa", "wb"):
            w = rng.uniform(-bound, bound, size=(c_in, c_out))
            params[f"{name}.{part}"] = ad.tensor(w.astype(dtype), requires_grad=True)

    def batch_norm(name, channels):
        params[f"{name}.gamma"] = ad.tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        params[f"{name}.beta"] = ad.tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        bn_states[name] = batch_norm_state(channels, dtype=dtype)

    def layer_norm(name, channels):
        params[f"{name}.g"] = ad.tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        params[f"{name}.b"] = ad.tensor(np.zeros(channels, dtype=dtype), requires_grad=True)

    def attention_block(name, dims):
        for proj in ("wq", "wk", "wv", "wo"):
            affine(f"{name}.{proj}", dims, dims, bias=proj != "wk")

    widths = cfg.resolved_widths
    if cfg.embedding == "dgcnn":
        c_in = 3
        for i, width in enumerate(widths):
            edge_map(f"embed.l{i}", c_in, width)
            batch_norm(f"embed.l{i}.bn", width)
            c_in = width
        edge_map(f"embed.l{len(widths)}", sum(widths), cfg.emb_dims)
        batch_norm(f"embed.l{len(widths)}.bn", cfg.emb_dims)
    else:
        c_in = 3
        for i, width in enumerate(tuple(widths) + (cfg.emb_dims,)):
            affine(f"embed.l{i}", c_in, width, bias=False)
            batch_norm(f"embed.l{i}.bn", width)
            c_in = width
    if cfg.attention:
        dims = cfg.emb_dims
        attention_block("attn.enc.self", dims)
        layer_norm("attn.enc.self_ln", dims)
        affine("attn.enc.ffn.l0", dims, cfg.ffn_dims)
        affine("attn.enc.ffn.l1", cfg.ffn_dims, dims)
        layer_norm("attn.enc.ffn_ln", dims)
        attention_block("attn.dec.self", dims)
        layer_norm("attn.dec.self_ln", dims)
        attention_block("attn.dec.cross", dims)
        layer_norm("attn.dec.cross_ln", dims)
        affine("attn.dec.ffn.l0", dims, cfg.ffn_dims)
        affine("attn.dec.ffn.l1", cfg.ffn_dims, dims)
        layer_norm("attn.dec.ffn_ln", dims)
        affine("attn.out", dims, dims, zero=True)
    if cfg.head == "mlp":
        n_in = 2 * cfg.emb_dims
        for i, width in enumerate(cfg.mlp_head_widths):
            affine(f"head.fc{i}", n_in, width, bias=False)
            batch_norm(f"head.fc{i}.bn", width)
            n_in = width
        affine("head.rot", n_in, 4)
        params["head.rot.b"] = ad.tensor(np.array([1.0, 0.0, 0.0, 0.0], dtype=dtype), requires_grad=True)
        affine("head.trans", n_in, 3)
    return dcpnet.ModelParams(cfg, params, bn_states)


def first_argmax(idx, signed, spick):
    """The ``signed`` row that attains ``spick`` for each (row, channel): of
    the neighbors ``idx[i, t]`` with ``signed[idx[i, t]] == spick[i]``, the
    lowest ``t``, as in ``max_reduce``; ``idx[i, 0]`` where none does.

    One pass per neighbor slot keeps ``max(k - t)`` over the matching slots
    in a byte-wide (wider for k >= 256) code, so the lowest slot wins. This
    is the backward's second scan of every neighbor row, before the forward
    recorded the slot."""
    k = idx.shape[1]
    code = np.min_scalar_type(k).type
    best = np.zeros(spick.shape, dtype=code)
    for t in range(k):
        np.maximum(best, (signed[idx[:, t]] == spick) * code(k - t), out=best)
    return np.take_along_axis(idx, (k - best) % k, axis=1)


def edgeconv_bn_max(center, per_point, indices, gamma, beta, state):
    """``autodiff.edgeconv_bn_max`` untiled: every (N, c) temporary built
    whole, by fancy indexing, and the argmax found again in the backward by
    :func:`first_argmax`."""
    idx = np.asarray(indices)
    (n, c), m = center.shape, per_point.shape[0]
    k = idx.shape[1]
    edges = n * k
    s = np.sign(gamma.data)
    signed = per_point.data * s
    first = per_point.data[idx[:, 0]]
    spick = first * s
    for t in range(1, k):
        np.maximum(spick, signed[idx[:, t]], out=spick)
    pick = np.where(s == 0, first, spick * s)

    if ad.recording():
        degree = np.bincount(idx.ravel(), minlength=m).astype(np.float64)
        adjacency = csr_matrix((np.ones(edges), idx.ravel(), np.arange(0, edges + 1, k)), shape=(n, m))
        c64 = center.data.astype(np.float64)
        p64 = per_point.data.astype(np.float64)
        mu_c = c64.mean(axis=0)
        mu_p = degree @ p64 / edges
        a = c64 - mu_c
        b = p64 - mu_p
        ab = adjacency @ b
        var64 = np.maximum(k * (a * a).sum(axis=0) + 2.0 * (a * ab).sum(axis=0) + degree @ (b * b), 0.0)
        var64 /= edges
        mu64 = mu_c + mu_p
        state.update(mu64, var64)
        mu, var = mu64.astype(center.dtype), var64.astype(center.dtype)
    else:
        mu = state.running_mean.astype(center.dtype)
        var = state.running_var.astype(center.dtype)

    inv_std = 1.0 / np.sqrt(var + ad.BN_EPS)
    xhat = (center.data + pick - mu) * inv_std
    y = gamma.data * xhat + beta.data
    np.maximum(y, 0, out=y)

    def bw(g):
        dxhat = g * (y > 0)
        g_gamma, g_beta = (dxhat * xhat).sum(axis=0), dxhat.sum(axis=0)
        dxhat *= gamma.data
        direct = dxhat * inv_std
        flat = (first_argmax(idx, signed, spick) * c + np.arange(c)).ravel()
        g_p = np.bincount(flat, weights=direct.ravel(), minlength=m * c).reshape(m, c)
        m1 = dxhat.sum(axis=0, dtype=np.float64) / edges
        m2 = (dxhat * xhat).sum(axis=0, dtype=np.float64) / edges
        inv64 = inv_std.astype(np.float64)
        g_c = direct - inv64 * (k * m1 + m2 * inv64 * (k * a + ab))
        g_p -= inv64 * (degree[:, None] * m1 + m2 * inv64 * (adjacency.T @ a + degree[:, None] * b))
        return g_c.astype(center.dtype), g_p.astype(per_point.dtype), g_gamma, g_beta

    return ad._record("edgeconv_bn_max", (center, per_point, gamma, beta), ad.Tensor(y), bw)


def soft_match(x_points, y_points, model):
    """``dcpnet._soft_match`` one side at a time: an ``embed_cloud`` call
    per side and a cross residual per direction, on a tape or not."""
    xs, ys = dcpnet.cloud_stack(x_points), dcpnet.cloud_stack(y_points)
    f_x = dcpnet.embed_cloud(xs, model)
    f_y = dcpnet.embed_cloud(ys, model)
    if model.config.attention:
        phi_x = ad.add(f_x, dcpnet._cross_residual(f_x, f_y, model))
        phi_y = ad.add(f_y, dcpnet._cross_residual(f_y, f_x, model))
    else:
        phi_x, phi_y = f_x, f_y
    match = dcpnet.pointer_softmatch(phi_x, phi_y)
    return xs, phi_x, phi_y, match, dcpnet.soft_correspondence(match, ys)


def _quad(a, b, c, d):
    return [(a, b, c), (a, c, d)]


def lathe_faces(radii, heights, segments, close_caps):
    """The faces of ``dataio._lathe_mesh``, from its own loops."""
    faces = []
    for ring in range(len(radii) - 1):
        base0, base1 = ring * segments, (ring + 1) * segments
        for i in range(segments):
            j = (i + 1) % segments
            faces += _quad(base0 + i, base0 + j, base1 + j, base1 + i)
    if close_caps:
        centers = (len(radii) * segments, len(radii) * segments + 1)
        for base, center in zip((0, (len(radii) - 1) * segments), centers):
            for i in range(segments):
                faces.append((base + i, base + (i + 1) % segments, center))
    return np.array(faces)


def torus_faces(major, minor, n_major, n_minor):
    """The faces of ``dataio._torus_mesh``, from its own loops."""
    faces = []
    for i in range(n_major):
        for j in range(n_minor):
            a, b = i * n_minor + j, i * n_minor + (j + 1) % n_minor
            c = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
            d = ((i + 1) % n_major) * n_minor + j
            faces += _quad(a, b, c, d)
    return np.array(faces)


def ellipsoid_faces(radii, n_lat):
    """The faces of ``dataio._ellipsoid_mesh``, from its own loops."""
    n_lon = 2 * n_lat
    top, bottom = 0, 1 + (n_lat - 1) * n_lon
    ring = lambda i: 1 + (i - 1) * n_lon  # noqa: E731 - index helper
    faces = []
    for j in range(n_lon):
        faces.append((top, ring(1) + j, ring(1) + (j + 1) % n_lon))
        faces.append((bottom, ring(n_lat - 1) + (j + 1) % n_lon, ring(n_lat - 1) + j))
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a, b = ring(i) + j, ring(i) + (j + 1) % n_lon
            c, d = ring(i + 1) + (j + 1) % n_lon, ring(i + 1) + j
            faces += _quad(a, b, c, d)
    return np.array(faces)


def compose(a, b):
    """The transform acting as ``a(b(x))``."""
    return geo.RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def alignment_mse(src, dst, transform):
    """Mean squared residual of ``transform`` mapping ``src`` onto ``dst``, index-matched."""
    diff = geo.apply_transform(transform, src) - np.asarray(dst, dtype=np.float64)
    return float(np.mean(np.sum(diff * diff, axis=1)))


def euler_array(angles):
    """``(yaw, pitch, roll)`` of an ``EulerAngles`` as one array."""
    return np.array([angles.yaw, angles.pitch, angles.roll])


def batch_norm_state(channels, dtype=np.float64):
    """Zero running means and unit running variances for ``channels`` channels."""
    return ad.BatchNormState(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))
