import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from dcpreg import dataio, geometry as geo, icp
from dcpreg.errors import DegenerateCorrespondenceError, InsufficientDataError

import reference_forms as ref


def brute_force_nn(targets, query):
    d = np.linalg.norm(targets - query, axis=1)
    best = d.min()
    return int(np.flatnonzero(d == best)[0]), best


# ---------------------------------------------------------------------------
# SpatialIndex
# ---------------------------------------------------------------------------

def test_query_exact_point(rng):
    pts = rng.normal(size=(50, 3))
    index = icp.SpatialIndex(pts)
    idx, dist = index.query_many(pts[17:18])
    assert idx[0] == 17
    assert dist[0] == 0.0


def test_query_tie_goes_to_lower_index():
    pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    index = icp.SpatialIndex(pts)
    idx, dist = index.query_many([[0.0, 0.0, 0.0]])
    assert idx[0] == 0
    assert np.isclose(dist[0], 1.0)
    # Same with the duplicate-point tie.
    dup = np.array([[2.0, 1.0, 0.0], [2.0, 1.0, 0.0], [5.0, 5.0, 5.0]])
    idx, _ = icp.SpatialIndex(dup).query_many([[2.0, 1.0, 0.1]])
    assert idx[0] == 0


def test_query_matches_exhaustive_scan(rng):
    targets = rng.normal(size=(400, 3))
    index = icp.SpatialIndex(targets)
    queries = rng.normal(size=(1000, 3)) * 1.5
    got_idx, got_dist = index.query_many(queries)
    for q, gi, gd in zip(queries, got_idx, got_dist):
        bi, bd = brute_force_nn(targets, q)
        assert gi == bi
        assert abs(gd - bd) < 1e-12


def test_query_lattice_ties_match_exhaustive_scan(rng):
    axis = np.arange(-3.0, 4.0)
    targets = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    targets = targets[rng.permutation(len(targets))]
    # Integer and half-integer coordinates: 1, 2, 4 or 8 equidistant targets.
    queries = rng.integers(-6, 7, size=(2000, 3)) / 2.0
    got_idx, got_dist = icp.SpatialIndex(targets).query_many(queries)
    for q, gi, gd in zip(queries, got_idx, got_dist):
        bi, bd = brute_force_nn(targets, q)
        assert gi == bi
        assert abs(gd - bd) < 1e-12


@st.composite
def tie_heavy_knn_case(draw):
    """Points on a small integer grid (so with many duplicates and equal
    distances), k in {1, 2, 10, n - 1, n}, and queries that are either the
    points themselves (``skip_self``) or grid and half-grid points."""
    n = draw(st.integers(2, 40))
    coords = st.integers(-2, 2)
    pts = np.array(draw(st.lists(st.tuples(coords, coords, coords), min_size=n, max_size=n)), dtype=float)
    skip_self = draw(st.booleans())
    ks = {1, 2, 10, n - 1} if skip_self else {1, 2, 10, n - 1, n}
    k = draw(st.sampled_from(sorted(kk for kk in ks if 1 <= kk <= n - int(skip_self))))
    if skip_self:
        queries = pts
    else:
        half = st.integers(-6, 6)
        queries = np.array(draw(st.lists(st.tuples(half, half, half), min_size=1, max_size=30)), dtype=float) / 2.0
    return pts, queries, k, skip_self


@settings(max_examples=300, deadline=None)
@given(tie_heavy_knn_case())
def test_exact_knn_equals_full_sort_reference(case):
    """Sorting only the rows not already in order, and returning after the
    first query when it settles every row, change no index or distance."""
    pts, queries, k, skip_self = case
    tree = cKDTree(pts)
    got = icp._exact_knn(tree, queries, k, skip_self=skip_self)
    want = ref.exact_knn(tree, queries, k, skip_self=skip_self)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_exact_knn_requery_and_whole_cloud_equal_reference(rng):
    """Rows tied at the k-th place are queried again (a 3x3x3 lattice
    seen from its centre has six neighbours at distance 1), and with k + 2
    >= n every point is a candidate at once."""
    axis = np.arange(-1.0, 2.0)
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    lattice = lattice[rng.permutation(len(lattice))]
    tree = cKDTree(lattice)
    for k, skip_self in ((1, True), (2, True), (6, True), (3, False), (25, True), (26, True), (27, False)):
        queries = lattice if skip_self else np.zeros((1, 3))
        got = icp._exact_knn(tree, queries, k, skip_self=skip_self)
        want = ref.exact_knn(tree, queries, k, skip_self=skip_self)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_empty_index_rejected():
    with pytest.raises(InsufficientDataError):
        icp.SpatialIndex(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# icp_register
# ---------------------------------------------------------------------------

def test_icp_identity_pair_converges_immediately(rng):
    pts = rng.normal(size=(64, 3))
    transform, history = icp.icp_register(pts, pts)
    assert history[0].objective < 1e-12
    assert len(history) <= 2
    assert np.allclose(transform.rotation, np.eye(3), atol=1e-9)


def test_icp_small_rotation_basin(rng):
    cloud = dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(1024, 3))))
    rot = geo.euler_zyx_to_matrix(math.radians(5), 0, 0)
    y = cloud.points @ rot.T
    transform, history = icp.icp_register(cloud.points, y, max_iters=50)
    err = geo.rotation_metrics(transform, geo.RigidTransform(rot, np.zeros(3)))
    assert err.rot_abs_deg.max() < 0.1
    assert len(history) <= 51


def test_icp_objective_monotone(rng):
    for trial in range(10):
        cloud = dataio.normalize_unit_sphere(
            dataio.PointCloud(np.random.default_rng(trial).normal(size=(128, 3)))
        )
        pair = dataio.generate_pair(
            cloud, dataio.PairGenConfig(shuffle_target=True), np.random.default_rng(trial + 100)
        )
        _, history = icp.icp_register(pair.source.points, pair.target.points)
        objectives = [state.objective for state in history]
        diffs = np.diff(objectives)
        assert (diffs <= 1e-12).all()


def test_icp_single_step_equals_procrustes(rng):
    # With the correct correspondence, one alignment step is exactly the
    # closed-form solve.
    src = rng.normal(size=(32, 3))
    rot = geo.euler_zyx_to_matrix(1e-3, -2e-3, 1e-3)
    dst = src @ rot.T + np.array([1e-3, 2e-3, -1e-3])
    stepped, history = icp.icp_register(src, dst, max_iters=1)
    assert np.array_equal(history[0].correspondence, np.arange(len(src)))
    solved = geo.procrustes_solve(src, dst)
    assert np.array_equal(stepped.rotation, solved.rotation)
    assert np.array_equal(stepped.translation, solved.translation)


def test_icp_degenerate_target_raises(rng):
    x = rng.normal(size=(10, 3))
    y = np.tile([[1.0, 2.0, 3.0]], (5, 1))
    with pytest.raises(DegenerateCorrespondenceError) as exc:
        icp.icp_register(x, y)
    assert len(exc.value.history) == 1


def noisy_pair(seed, n=128):
    rng = np.random.default_rng(seed)
    cloud = dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(n, 3))))
    cfg = dataio.PairGenConfig(max_rot_deg=45.0, trans_bound=0.5, n_points=n)
    pair = dataio.generate_pair(cloud, cfg, rng)
    return dataio.noisy_pair(pair, cfg.noise_sigma, cfg.noise_clip, rng)


@pytest.mark.parametrize("start", ["identity", "perturbed"])
def test_icp_history_equals_reference_loop(start):
    """Every iteration's transform, objective and correspondence equals
    the plain loop's, bit for bit, from the identity and from a start
    near the truth."""
    for seed in range(12):
        pair = noisy_pair(seed)
        init = None
        if start == "perturbed":
            nudge = geo.RigidTransform(geo.euler_zyx_to_matrix(0.05, -0.03, 0.02), np.array([0.01, 0.0, -0.02]))
            init = geo.compose(nudge, pair.ground_truth)
        x, y = pair.source.points, pair.target.points
        transform, history = icp.icp_register(x, y, init=init)
        want_transform, want = ref.icp_register(x, y, init=init)
        assert len(history) == len(want)
        for state, (k, t, objective, corr) in zip(history, want):
            assert state.iteration == k and state.objective == objective
            assert np.array_equal(state.correspondence, corr)
            assert np.array_equal(state.transform.rotation, t.rotation)
            assert np.array_equal(state.transform.translation, t.translation)
        assert np.array_equal(transform.rotation, want_transform.rotation)
        assert np.array_equal(transform.translation, want_transform.translation)


def test_icp_requires_three_points(rng):
    with pytest.raises(InsufficientDataError):
        icp.icp_register(rng.normal(size=(2, 3)), rng.normal(size=(5, 3)))


# ---------------------------------------------------------------------------
# polish_with_icp
# ---------------------------------------------------------------------------

def make_pair(rng, n=256, max_rot_deg=40.0):
    cloud = dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(n, 3))))
    cfg = dataio.PairGenConfig(max_rot_deg=max_rot_deg, trans_bound=0.1, shuffle_target=True)
    return dataio.generate_pair(cloud, cfg, rng)


def test_polish_noop_when_already_optimal(rng):
    pair = make_pair(rng)
    polished = icp.polish_with_icp(pair.source.points, pair.target.points, pair.ground_truth)
    err = geo.rotation_metrics(polished, pair.ground_truth)
    assert err.rot_abs_deg.max() < 1e-6
    assert np.abs(polished.translation - pair.ground_truth.translation).max() < 1e-8


def test_polish_from_nearby_init_converges(rng):
    pair = make_pair(rng, n=512)
    nudge = geo.RigidTransform(geo.euler_zyx_to_matrix(math.radians(4), 0, 0), np.zeros(3))
    init = geo.compose(nudge, pair.ground_truth)
    polished = icp.polish_with_icp(pair.source.points, pair.target.points, init)
    err = geo.rotation_metrics(polished, pair.ground_truth)
    assert err.rot_abs_deg.max() < 0.1


def test_polish_objective_never_worse_than_init(rng):
    pair = make_pair(rng)
    init = geo.RigidTransform.identity()
    index = icp.SpatialIndex(pair.target.points)
    _, before = icp.correspondence_step(pair.source.points, index, init)
    polished = icp.polish_with_icp(pair.source.points, pair.target.points, init)
    _, after = icp.correspondence_step(pair.source.points, index, polished)
    assert after <= before + 1e-12


def test_polish_better_init_beats_identity(rng):
    # Large-angle pair: near-truth initialization must do strictly better
    # than starting from identity.
    rng = np.random.default_rng(7)
    pair = make_pair(rng, n=512, max_rot_deg=40.0)
    # Re-draw until the motion is genuinely large.
    while geo.matrix_to_euler_zyx(pair.ground_truth.rotation).as_array().max() < math.radians(25):
        pair = make_pair(rng, n=512, max_rot_deg=40.0)
    nudge = geo.RigidTransform(geo.euler_zyx_to_matrix(math.radians(2), 0, 0), np.zeros(3))
    near_init = geo.compose(nudge, pair.ground_truth)

    from_identity = icp.polish_with_icp(pair.source.points, pair.target.points, geo.RigidTransform.identity())
    from_near = icp.polish_with_icp(pair.source.points, pair.target.points, near_init)
    err_identity = geo.rotation_metrics(from_identity, pair.ground_truth).rot_abs_deg.mean()
    err_near = geo.rotation_metrics(from_near, pair.ground_truth).rot_abs_deg.mean()
    assert err_near < err_identity
