"""Classical iterative closest point over an exact k-d tree.

Alternates nearest-neighbor correspondence with the closed-form alignment
solve; the recorded objective (mean squared matched residual) is
non-increasing by construction. :func:`polish_with_icp` runs the same loop
seeded from an externally estimated transform.

Each recorded state comes from one correspondence step. The step after a
stalled transform, or after the ``max_iters``-th solve, is the last: its
state skips the degenerate-match check and the ``tol`` check. A step that
repeats the previous step's matches would solve for the current transform
again, bit for bit, and stall: the last state copies its own, one step on.

Each iteration makes one ``SpatialIndex.query_many`` (a ``cKDTree``
query) and one ``geometry.procrustes_solve``, with its 3x3 LAPACK SVD
(``geometry.svd3``); the copied last state makes neither. A distance tie
goes to whichever target the tree returns first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import geometry as geo
from .errors import DegenerateCorrespondenceError, InsufficientDataError

DEFAULT_MAX_ITERS = 100
DEFAULT_TOL = 1e-8
# Relative transform change below which the iteration counts as stalled.
TRANSFORM_TOL = 1e-10


class SpatialIndex:
    """Exact nearest-neighbor index over target points.

    Backed by a k-d tree; a distance tie goes to whichever of the tied
    points the tree returns first.
    """

    def __init__(self, points):
        pts = geo._as_points(points)
        if pts.shape[0] == 0:
            raise InsufficientDataError("index needs at least one point")
        self.points = pts
        self._tree = cKDTree(pts)

    def query_many(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Nearest target index and distance for each query row.

        The distance is recomputed from the matched residual rather than
        taken from the tree, whose own distances can differ in the last
        bits; ICP's objective and stopping rule read it."""
        q = np.asarray(queries, dtype=np.float64)
        _, idx = self._tree.query(q, k=1)
        diff = q - self.points.take(idx, axis=0)
        return idx, np.sqrt(np.einsum("ij,ij->i", diff, diff))


@dataclass(frozen=True)
class IcpState:
    iteration: int
    transform: geo.RigidTransform
    objective: float
    correspondence: np.ndarray


def correspondence_step(x: np.ndarray, index: SpatialIndex, transform: geo.RigidTransform):
    """Match each transformed source point to its nearest target."""
    moved = geo.apply_transform(transform, x)
    idx, dist = index.query_many(moved)
    objective = float((dist**2).sum() / dist.size)  # np.mean, without its wrapper
    return idx, objective


def icp_register(
    x,
    y,
    init: geo.RigidTransform | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> tuple[geo.RigidTransform, list[IcpState]]:
    """Register x onto y starting from ``init`` (identity by default).

    Returns the final transform and the history, one state per
    correspondence step: at most ``max_iters + 1``. Stops when the
    objective decrease falls below ``tol``, or one step after the transform
    stalls, the matches repeat or the ``max_iters``-th solve.
    """
    xp, yp = geo._as_points(x), geo._as_points(y)
    if xp.shape[0] < 3 or yp.shape[0] < 3:
        raise InsufficientDataError("both clouds need at least 3 points")
    transform = init if init is not None else geo.RigidTransform.identity()
    index = SpatialIndex(yp)

    history: list[IcpState] = []
    prev_objective = np.inf
    stalled = False
    for k in range(max_iters + 1):
        corr, objective = correspondence_step(xp, index, transform)
        history.append(IcpState(k, transform, objective, corr))
        if stalled or k == max_iters:
            break
        if (corr == corr[0]).all():
            raise DegenerateCorrespondenceError("all source points matched a single target point", history=history)
        if prev_objective - objective < tol:
            break
        if k and (corr == history[-2].correspondence).all():
            history.append(IcpState(k + 1, transform, objective, corr))
            break
        new_transform = geo.procrustes_solve(xp, yp.take(corr, axis=0))
        # Frobenius norms, summed as np.linalg.norm sums them.
        d_rot = (new_transform.rotation - transform.rotation).ravel()
        d_tra = new_transform.translation - transform.translation
        stalled = math.sqrt(d_rot.dot(d_rot)) + math.sqrt(d_tra.dot(d_tra)) < TRANSFORM_TOL
        transform = new_transform
        prev_objective = objective

    return history[-1].transform, history


def polish_with_icp(
    x,
    y,
    init_from_dcp: geo.RigidTransform,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> geo.RigidTransform:
    """Refine an externally estimated transform by local ICP iterations;
    ``benchmark/workloads.py`` polishes its DCP estimates with it."""
    transform, _ = icp_register(x, y, init=init_from_dcp, max_iters=max_iters, tol=tol)
    return transform
