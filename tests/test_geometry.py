import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpreg import geometry as geo
from dcpreg.errors import (
    DegeneracyWarning,
    InsufficientDataError,
    InvalidInputError,
)

import reference_forms as ref
from conftest import random_rotation


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def jacobi_eigh_oracle(sym: np.ndarray, sweeps: int = 100):
    """Classical two-sided Jacobi eigensolver for a symmetric 3x3 matrix.

    Independent of the LAPACK SVD under test: rotates the matrix itself
    until off-diagonals vanish. Returns eigenvalues descending
    and the eigenvector matrix.
    """
    a = np.array(sym, dtype=np.float64)
    vecs = np.eye(3)
    for _ in range(sweeps):
        off = math.sqrt(a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2)
        if off < 1e-30 * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            if a[p, q] == 0.0:
                continue
            theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
            c, s = math.cos(theta), math.sin(theta)
            rot = np.eye(3)
            rot[p, p] = rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            a = rot.T @ a @ rot
            vecs = vecs @ rot
    order = np.argsort(-np.diag(a))
    return np.diag(a)[order], vecs[:, order]


def quat_from_matrix(r: np.ndarray) -> np.ndarray:
    """Rotation matrix -> unit quaternion (w, x, y, z), w >= 0."""
    t = np.trace(r)
    if t > 0:
        w = math.sqrt(1.0 + t) / 2.0
        x = (r[2, 1] - r[1, 2]) / (4 * w)
        y = (r[0, 2] - r[2, 0]) / (4 * w)
        z = (r[1, 0] - r[0, 1]) / (4 * w)
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(1.0 + r[i, i] - r[j, j] - r[k, k]) * 2.0
        xyz = [0.0, 0.0, 0.0]
        xyz[i] = s / 4.0
        xyz[j] = (r[j, i] + r[i, j]) / s
        xyz[k] = (r[k, i] + r[i, k]) / s
        w = (r[k, j] - r[j, k]) / s
        x, y, z = xyz
    q = np.array([w, x, y, z])
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def quat_to_euler_zyx(q: np.ndarray):
    """Unit quaternion -> intrinsic Z-Y-X angles, independent derivation."""
    w, x, y, z = q
    yaw = math.atan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))
    sp = 2 * (w * y - z * x)
    sp = min(1.0, max(-1.0, sp))
    pitch = math.asin(sp)
    roll = math.atan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    return yaw, pitch, roll


def random_spd_free_matrix(rng, cond_cap=1e6):
    while True:
        m = rng.normal(size=(3, 3))
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] / max(s[-1], 1e-300) < cond_cap:
            return m


# ---------------------------------------------------------------------------
# svd3
# ---------------------------------------------------------------------------

def check_signed_svd(m, u, s, v, tol=1e-9):
    recon = u @ np.diag(s) @ v.T
    scale = max(np.linalg.norm(m), 1e-300)
    assert np.linalg.norm(recon - m) / scale < tol
    assert np.linalg.norm(u.T @ u - np.eye(3)) < tol
    assert np.linalg.norm(v.T @ v - np.eye(3)) < tol
    assert abs(np.linalg.det(u) - 1) < tol
    assert abs(np.linalg.det(v) - 1) < tol
    assert s[0] >= s[1] >= s[2]


def test_svd3_identity():
    u, s, v = geo.svd3(np.eye(3))
    assert np.allclose(u, np.eye(3))
    assert np.allclose(s, [1, 1, 1])
    assert np.allclose(v, np.eye(3))


def test_svd3_diagonal():
    u, s, v = geo.svd3(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(s, [3, 2, 1])
    assert np.allclose(u @ np.diag(s) @ v.T, np.diag([3.0, 2.0, 1.0]), atol=1e-12)


def test_svd3_nonfinite_rejected():
    bad = np.eye(3)
    bad[1, 1] = np.nan
    with pytest.raises(InvalidInputError):
        geo.svd3(bad)
    bad[1, 1] = np.inf
    with pytest.raises(InvalidInputError):
        geo.svd3(bad)


def rank2_matrix(rng):
    return rng.normal(size=(3, 2)) @ rng.normal(size=(2, 3))


def test_svd3_random_against_jacobi_oracle(rng):
    special = [2.0 * random_rotation(rng), np.diag([2.0, 2.0, 1.0]), rank2_matrix(rng)]
    for m in [random_spd_free_matrix(rng) for _ in range(200)] + special:
        u, s, v = geo.svd3(m)
        check_signed_svd(m, u, s, v)
        # Eigenvalues of m^T m are the squared singular values.
        evals, _ = jacobi_eigh_oracle(m.T @ m)
        assert np.allclose(np.sort(s**2)[::-1], evals, rtol=1e-9, atol=1e-12)


def test_svd3_reflection_sign_absorbed(rng):
    for _ in range(50):
        m = random_spd_free_matrix(rng)
        if np.linalg.det(m) > 0:
            m[:, 0] = -m[:, 0]
        u, s, v = geo.svd3(m)
        check_signed_svd(m, u, s, v)
        assert s[2] < 0  # negative determinant shows up in the last value


def test_svd3_stack_equals_each_matrix(rng):
    """A (B, 3, 3) stack gives each matrix's signed SVD bit for bit, with
    reflections (flipped u, v or both) and a rank-deficient member."""
    stack = np.stack([random_spd_free_matrix(rng) for _ in range(6)] + [rank2_matrix(rng), np.zeros((3, 3))])
    stack[1, :, 0] *= -1.0
    u, s, v = geo.svd3(stack)
    assert (u.shape, s.shape, v.shape) == ((8, 3, 3), (8, 3), (8, 3, 3))
    for b, m in enumerate(stack):
        for got, want in zip((u[b], s[b], v[b]), geo.svd3(m)):
            assert np.array_equal(got, want)
    with pytest.raises(InvalidInputError):
        geo.svd3(np.zeros((2, 2, 3, 3)))


def test_svd3_rank_deficient(rng):
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    m = np.outer(a, b)  # rank 1
    u, s, v = geo.svd3(m)
    check_signed_svd(m, u, s, v, tol=1e-9)
    assert abs(s[1]) < 1e-9 * abs(s[0])
    m = rank2_matrix(rng)
    u, s, v = geo.svd3(m)
    check_signed_svd(m, u, s, v, tol=1e-9)
    assert abs(s[2]) < 1e-9 * abs(s[0]) < abs(s[1])
    u, s, v = geo.svd3(np.zeros((3, 3)))
    assert np.allclose(s, 0)
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-12)


def test_svd3_equals_reference_and_leaves_input_alone(rng):
    """One determinant on the stacked (u, v) and no input copy give the
    reference's factors bit for bit, on proper, reflected and
    rank-deficient matrices, alone or stacked; the input is not written."""
    mats = []
    for _ in range(20):
        m = random_spd_free_matrix(rng)
        rank1 = np.outer(rng.normal(size=3), rng.normal(size=3))
        mats += [m, m @ np.diag([1.0, 1.0, -1.0]), -m, rank2_matrix(rng), rank1]
    mats.append(np.zeros((3, 3)))
    for m in [*mats, np.stack(mats)]:
        before = m.copy()
        for got, want in zip(geo.svd3(m), ref.svd3(m)):
            assert np.array_equal(got, want)
        assert np.array_equal(m, before)


def test_procrustes_equals_reference(rng):
    """Centroids as sum / n give the ``mean`` form's transform bit for
    bit, on reflected, planar and collinear point sets."""
    for trial in range(30):
        src = rng.normal(size=(int(rng.integers(3, 200)), 3))
        dst = src @ random_rotation(rng).T + rng.normal(size=3) + 0.01 * rng.normal(size=src.shape)
        if trial % 3 == 1:
            dst[:, 0] = -dst[:, 0]
        if trial % 3 == 2:
            src[:, 2] = 0.0
        for s, d in ((src, dst), (np.outer(src[:, 0], [1.0, 2.0, -0.5]), dst)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegeneracyWarning)
                got = geo.procrustes_solve(s, d)
            want = ref.procrustes_solve(s, d)
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)


# ---------------------------------------------------------------------------
# procrustes_solve
# ---------------------------------------------------------------------------

def test_procrustes_identity():
    pts = np.eye(3)
    t = geo.procrustes_solve(pts, pts)
    assert np.allclose(t.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(t.translation, 0, atol=1e-12)


def test_procrustes_pure_translation():
    src = np.eye(3)
    t = geo.procrustes_solve(src, src + np.array([1.0, 2.0, 3.0]))
    assert np.allclose(t.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(t.translation, [1, 2, 3], atol=1e-12)


def test_procrustes_recovers_known_motion(rng):
    r0 = geo.euler_zyx_to_matrix(math.radians(30), math.radians(15), math.radians(-40))
    t0 = np.array([0.1, -0.2, 0.3])
    src = rng.normal(size=(10, 3))
    dst = src @ r0.T + t0
    got = geo.procrustes_solve(src, dst)
    assert np.linalg.norm(got.rotation - r0) < 1e-9
    assert np.linalg.norm(got.translation - t0) < 1e-9


def test_procrustes_planar_reflection_stays_proper(rng):
    src = rng.normal(size=(12, 3))
    src[:, 2] = 0.0
    dst = src.copy()
    dst[:, 0] = -dst[:, 0]  # reflection across the yz plane
    t = geo.procrustes_solve(src, dst)
    assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9


def test_procrustes_collinear_warns(rng):
    direction = np.array([1.0, 2.0, -0.5])
    src = np.outer(np.linspace(-1, 1, 6), direction)
    dst = src + np.array([0.5, 0.0, 0.0])
    with pytest.warns(DegeneracyWarning):
        t = geo.procrustes_solve(src, dst)
    assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9


def test_procrustes_too_few_points():
    with pytest.raises(InsufficientDataError):
        geo.procrustes_solve(np.zeros((2, 3)), np.zeros((2, 3)))


def test_procrustes_mass_recovery_trials(rng):
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        src = rng.normal(size=(n, 3))
        r = random_rotation(rng)
        t = rng.uniform(-1, 1, size=3)
        got = geo.procrustes_solve(src, src @ r.T + t)
        assert np.linalg.norm(got.rotation - r) < 1e-9
        assert np.linalg.norm(got.translation - t) < 1e-9


def test_procrustes_local_optimality(rng):
    src = rng.normal(size=(20, 3))
    dst = src @ random_rotation(rng).T + rng.normal(size=3) + 0.01 * rng.normal(size=(20, 3))
    best = geo.procrustes_solve(src, dst)
    base = geo.alignment_mse(src, dst, best)
    for _ in range(100):
        d_angles = rng.normal(scale=0.05, size=3)
        perturbed = geo.RigidTransform(
            best.rotation @ geo.euler_zyx_to_matrix(*d_angles),
            best.translation + rng.normal(scale=0.05, size=3),
        )
        assert geo.alignment_mse(src, dst, perturbed) >= base - 1e-12


# ---------------------------------------------------------------------------
# apply / compose
# ---------------------------------------------------------------------------

def test_apply_identity(rng):
    pts = rng.normal(size=(5, 3))
    assert np.array_equal(geo.apply_transform(geo.RigidTransform.identity(), pts), pts)


def test_apply_quarter_turn_about_z():
    t = geo.RigidTransform(geo.euler_zyx_to_matrix(math.pi / 2, 0, 0), np.zeros(3))
    out = geo.apply_transform(t, np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(out, [[0, 1, 0]], atol=1e-12)


def test_apply_preserves_distances(rng):
    pts = rng.normal(size=(30, 3))
    t = geo.RigidTransform(random_rotation(rng), rng.normal(size=3))
    out = geo.apply_transform(t, pts)
    d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    d_out = np.linalg.norm(out[:, None] - out[None, :], axis=2)
    assert np.abs(d_in - d_out).max() < 1e-9


def test_compose_identity(rng):
    a = geo.RigidTransform(random_rotation(rng), rng.normal(size=3))
    c = geo.compose(geo.RigidTransform.identity(), a)
    assert np.allclose(c.rotation, a.rotation, atol=1e-12)
    assert np.allclose(c.translation, a.translation, atol=1e-12)


def test_compose_inverse_roundtrip(rng):
    a = geo.RigidTransform(random_rotation(rng), rng.normal(size=3))
    inverse = geo.RigidTransform(a.rotation.T, -a.rotation.T @ a.translation)
    ident = geo.compose(a, inverse)
    pts = rng.normal(size=(100, 3))
    out = geo.apply_transform(ident, pts)
    assert np.abs(out - pts).max() < 1e-9


def test_compose_matches_sequential_application(rng):
    a = geo.RigidTransform(random_rotation(rng), rng.normal(size=3))
    b = geo.RigidTransform(random_rotation(rng), rng.normal(size=3))
    pts = rng.normal(size=(10, 3))
    lhs = geo.apply_transform(geo.compose(a, b), pts)
    rhs = geo.apply_transform(a, geo.apply_transform(b, pts))
    assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# Euler angles and metrics
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    yaw=st.floats(-math.pi + 1e-6, math.pi - 1e-6),
    pitch=st.floats(-math.pi / 2 + 0.01, math.pi / 2 - 0.01),
    roll=st.floats(-math.pi + 1e-6, math.pi - 1e-6),
)
def test_euler_roundtrip(yaw, pitch, roll):
    r = geo.euler_zyx_to_matrix(yaw, pitch, roll)
    e = geo.matrix_to_euler_zyx(r)
    assert abs(e.yaw - yaw) < 1e-9
    assert abs(e.pitch - pitch) < 1e-9
    assert abs(e.roll - roll) < 1e-9


def test_metrics_zero_for_equal(rng):
    t = geo.RigidTransform(random_rotation(rng), rng.normal(size=3))
    err = geo.rotation_metrics(t, t)
    assert np.allclose(err.rot_sq_deg, 0)
    assert np.allclose(err.trans_abs, 0)


def test_metrics_single_axis_offset():
    gt = geo.RigidTransform.identity()
    pred = geo.RigidTransform(geo.euler_zyx_to_matrix(math.radians(10), 0, 0), np.zeros(3))
    err = geo.rotation_metrics(pred, gt)
    assert np.allclose(err.rot_abs_deg, [10, 0, 0], atol=1e-9)
    assert np.allclose(err.rot_sq_deg, [100, 0, 0], atol=1e-7)


def test_metrics_against_quaternion_oracle(rng):
    for _ in range(100):
        rp, rg = random_rotation(rng), random_rotation(rng)
        pred = geo.RigidTransform(rp, rng.normal(size=3))
        gt = geo.RigidTransform(rg, rng.normal(size=3))
        err = geo.rotation_metrics(pred, gt)
        ep = quat_to_euler_zyx(quat_from_matrix(rp))
        eg = quat_to_euler_zyx(quat_from_matrix(rg))
        want = [math.degrees(geo.wrap_angle(a - b)) for a, b in zip(ep, eg)]
        assert np.allclose(err.rot_abs_deg, np.abs(want), atol=1e-6)


def test_metrics_scipy_euler_convention_agreement(rng):
    # Cross-check the Z-Y-X convention itself against scipy's implementation.
    from scipy.spatial.transform import Rotation

    for _ in range(50):
        r = random_rotation(rng)
        mine = geo.matrix_to_euler_zyx(r).as_array()
        theirs = Rotation.from_matrix(r).as_euler("ZYX")
        assert np.allclose(mine, theirs, atol=1e-9)


def test_metrics_gimbal_flagged():
    near_lock = geo.euler_zyx_to_matrix(0.3, math.pi / 2 - 1e-9, 0.0)
    err = geo.rotation_metrics(
        geo.RigidTransform(near_lock, np.zeros(3)), geo.RigidTransform.identity()
    )
    assert err.gimbal_lock


def test_rigid_transform_rejects_improper():
    with pytest.raises(InvalidInputError):
        geo.RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    with pytest.raises(InvalidInputError):
        geo.RigidTransform(np.eye(3) * 1.001, np.zeros(3))


def test_rigid_transform_copies_the_callers_arrays(rng):
    """The transform is immutable without freezing the arrays it was built
    from: those stay writable, and writing to them leaves it unchanged."""
    r, t = random_rotation(rng), rng.normal(size=3)
    r0, t0 = r.copy(), t.copy()
    transform = geo.RigidTransform(r, t)
    r[0, 0], t[0] = 2.0, 5.0
    assert np.array_equal(transform.rotation, r0) and np.array_equal(transform.translation, t0)
    assert not (transform.rotation.flags.writeable or transform.translation.flags.writeable)
    with pytest.raises(ValueError, match="read-only"):
        transform.rotation[0, 0] = 2.0
