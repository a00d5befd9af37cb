"""``icp_register`` records one state per correspondence step; its history
must equal, field for field, the loop that stepped in three places
(:func:`reference_forms.icp_three_step_sites`), for every way the loop
can end."""

import numpy as np
import pytest

from dcpreg import dataio, geometry as geo, icp
from dcpreg.errors import DegenerateCorrespondenceError

import reference_forms as ref

MAX_ITERS = (0, 1, 3, 100)
TOLS = (0.0, 1e-3, icp.DEFAULT_TOL)


def noisy_pair(seed, n=64):
    rng = np.random.default_rng(seed)
    cloud = dataio.normalize_unit_sphere(dataio.PointCloud(rng.normal(size=(n, 3))))
    cfg = dataio.PairGenConfig(max_rot_deg=45.0, trans_bound=0.5, n_points=n)
    pair = dataio.generate_pair(cloud, cfg, rng)
    return dataio.noisy_pair(pair, cfg.noise_sigma, cfg.noise_clip, rng)


def start(pair, kind):
    if kind == "identity":
        return None
    nudge = geo.RigidTransform(geo.euler_zyx_to_matrix(0.05, -0.03, 0.02), np.array([0.01, 0.0, -0.02]))
    return ref.compose(nudge, pair.ground_truth)


def assert_same_history(history, want):
    assert len(history) == len(want)
    for state, ref_state in zip(history, want):
        assert state.iteration == ref_state.iteration and type(state.iteration) is int
        assert state.objective == ref_state.objective
        assert np.array_equal(state.correspondence, ref_state.correspondence)
        assert np.array_equal(state.transform.rotation, ref_state.transform.rotation)
        assert np.array_equal(state.transform.translation, ref_state.transform.translation)


def ending(history, max_iters, tol):
    """Why the loop stopped: its ``max_iters``-th solve, a stalled transform
    or an objective that fell less than ``tol``."""
    if history[-1].iteration == max_iters:
        return "max_iters"
    a, b = history[-2].transform, history[-1].transform
    delta = np.linalg.norm(b.rotation - a.rotation) + np.linalg.norm(b.translation - a.translation)
    if delta < icp.TRANSFORM_TOL:
        return "stall"
    assert history[-2].objective - history[-1].objective < tol
    return "tol"


@pytest.mark.parametrize("kind", ["identity", "near-truth"])
@pytest.mark.parametrize("max_iters", MAX_ITERS)
@pytest.mark.parametrize("tol", TOLS)
def test_icp_history_equals_three_step_loop(kind, max_iters, tol):
    for seed in range(6):
        pair = noisy_pair(seed)
        x, y, init = pair.source.points, pair.target.points, start(pair, kind)
        transform, history = icp.icp_register(x, y, init=init, max_iters=max_iters, tol=tol)
        want_transform, want = ref.icp_three_step_sites(x, y, init=init, max_iters=max_iters, tol=tol)
        assert_same_history(history, want)
        assert transform is history[-1].transform
        assert np.array_equal(transform.rotation, want_transform.rotation)
        assert np.array_equal(transform.translation, want_transform.translation)


def test_the_cases_end_every_way():
    """The grid above holds runs that end on ``max_iters``, on a stall and on ``tol``."""
    seen = set()
    for kind in ("identity", "near-truth"):
        for max_iters in MAX_ITERS:
            for tol in TOLS:
                for seed in range(6):
                    pair = noisy_pair(seed)
                    _, want = ref.icp_three_step_sites(
                        pair.source.points, pair.target.points, init=start(pair, kind), max_iters=max_iters, tol=tol
                    )
                    seen.add(ending(want, max_iters, tol))
    assert seen == {"max_iters", "stall", "tol"}


@pytest.mark.parametrize("max_iters", MAX_ITERS)
def test_degenerate_matches_raise_the_same_error_and_history(rng, max_iters):
    """Every source point nearest one target raises after the first step,
    unless that step is the last: the last state skips the check."""
    x = rng.normal(size=(10, 3))
    y = np.array([[5.0, 5.0, 5.0], [100.0, 100.0, 100.0], [-100.0, 100.0, 100.0], [100.0, -100.0, 100.0]])
    if max_iters == 0:
        _, history = icp.icp_register(x, y, max_iters=0)
        _, want = ref.icp_three_step_sites(x, y, max_iters=0)
        assert_same_history(history, want)
        return
    with pytest.raises(DegenerateCorrespondenceError) as got:
        icp.icp_register(x, y, max_iters=max_iters)
    with pytest.raises(DegenerateCorrespondenceError) as want:
        ref.icp_three_step_sites(x, y, max_iters=max_iters)
    assert str(got.value) == str(want.value)
    assert len(got.value.history) == 1
    assert_same_history(got.value.history, want.value.history)


@pytest.mark.parametrize("kind", ["identity", "near-truth"])
def test_repeated_matches_end_without_another_solve(monkeypatch, kind):
    """A step whose matches repeat the previous step's ends the history at
    once: its last state is that step's own, one step on, and neither the
    solve nor the query after it runs. Without ``tol``, every run here ends
    so."""
    calls = {"procrustes_solve": 0, "query_many": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, call)

    counted(geo, "procrustes_solve")
    counted(icp.SpatialIndex, "query_many")
    for seed in range(6):
        pair = noisy_pair(seed)
        for name in calls:
            calls[name] = 0
        _, history = icp.icp_register(pair.source.points, pair.target.points, init=start(pair, kind), tol=0.0)
        assert calls == {"procrustes_solve": len(history) - 2, "query_many": len(history) - 1}
        before, repeat, last = history[-3:]
        assert np.array_equal(repeat.correspondence, before.correspondence)
        assert last.correspondence is repeat.correspondence and last.transform is repeat.transform
        assert last.objective == repeat.objective and last.iteration == repeat.iteration + 1
