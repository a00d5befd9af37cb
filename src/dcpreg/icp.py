"""Classical iterative closest point over an exact k-d tree.

Alternates nearest-neighbor correspondence with the closed-form alignment
solve; the recorded objective (mean squared matched residual) is
non-increasing by construction. Also provides polishing: the same loop
seeded from an externally estimated transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import geometry as geo
from .errors import DegenerateCorrespondenceError, InsufficientDataError

DEFAULT_MAX_ITERS = 100
DEFAULT_TOL = 1e-8
# Relative transform change below which the iteration counts as stalled.
TRANSFORM_TOL = 1e-10


def _exact_knn(tree: cKDTree, queries: np.ndarray, k: int, skip_self: bool = False):
    """The k nearest tree points of each query row, ranked by (squared
    distance, index), so distance ties go to the lowest index.

    Returns ``(indices, squared_distances)``, both ``(len(queries), k)``.
    With ``skip_self`` the queries are the tree's own points and row i
    never lists point i. The tree supplies ``m`` candidates per row; a row
    is final once its k-th distance is strictly below its last candidate's,
    and the others are queried again with ``m`` doubled.
    """
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
            d2[is_self] = np.inf  # sorts behind every real candidate
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


class SpatialIndex:
    """Exact nearest-neighbor index over target points.

    Backed by a k-d tree; distance ties are broken toward the lowest point
    index so queries match an exhaustive scan exactly.
    """

    def __init__(self, points):
        pts = geo._as_points(points)
        if pts.shape[0] == 0:
            raise InsufficientDataError("index needs at least one point")
        self.points = pts
        self._tree = cKDTree(pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def query(self, point) -> tuple[int, float]:
        idx, dist = self.query_many(np.asarray(point, dtype=np.float64).reshape(1, 3))
        return int(idx[0]), float(dist[0])

    def query_many(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Nearest target index and distance for each query row."""
        idx, dist2 = _exact_knn(self._tree, np.asarray(queries, dtype=np.float64), 1)
        return idx[:, 0], np.sqrt(dist2[:, 0])


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
    objective = float(np.mean(dist**2))
    return idx, objective


def alignment_step(x: np.ndarray, y: np.ndarray, correspondence: np.ndarray) -> geo.RigidTransform:
    """One alignment update: the closed-form solve on the matched pairs."""
    return geo.procrustes_solve(x, y[correspondence])


def registration_objective(x, y, transform: geo.RigidTransform, index: SpatialIndex | None = None) -> float:
    """Mean squared nearest-neighbor residual of ``transform`` aligning x to y."""
    xp = geo._as_points(x)
    if index is None:
        index = SpatialIndex(y)
    _, objective = correspondence_step(xp, index, transform)
    return objective


def icp_register(
    x,
    y,
    init: geo.RigidTransform | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> tuple[geo.RigidTransform, list[IcpState]]:
    """Register x onto y starting from ``init`` (identity by default).

    Returns the final transform and the per-iteration history. Stops when
    the objective decrease falls below ``tol``, the transform stalls, or
    ``max_iters`` is reached.
    """
    xp, yp = geo._as_points(x), geo._as_points(y)
    if xp.shape[0] < 3 or yp.shape[0] < 3:
        raise InsufficientDataError("both clouds need at least 3 points")
    transform = init if init is not None else geo.RigidTransform.identity()
    index = SpatialIndex(yp)

    history: list[IcpState] = []
    prev_objective = np.inf
    for k in range(max_iters):
        corr, objective = correspondence_step(xp, index, transform)
        history.append(IcpState(k, transform, objective, corr))
        if np.unique(corr).size == 1:
            raise DegenerateCorrespondenceError(
                "all source points matched a single target point", history=history
            )
        if prev_objective - objective < tol:
            break
        new_transform = alignment_step(xp, yp, corr)
        delta = np.linalg.norm(new_transform.rotation - transform.rotation) + np.linalg.norm(
            new_transform.translation - transform.translation
        )
        transform = new_transform
        prev_objective = objective
        if delta < TRANSFORM_TOL:
            corr, objective = correspondence_step(xp, index, transform)
            history.append(IcpState(k + 1, transform, objective, corr))
            break
    else:
        corr, objective = correspondence_step(xp, index, transform)
        history.append(IcpState(max_iters, transform, objective, corr))

    return history[-1].transform, history


def polish_with_icp(
    x,
    y,
    init_from_dcp: geo.RigidTransform,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> geo.RigidTransform:
    """Refine an externally estimated transform by local ICP iterations."""
    transform, _ = icp_register(x, y, init=init_from_dcp, max_iters=max_iters, tol=tol)
    return transform
