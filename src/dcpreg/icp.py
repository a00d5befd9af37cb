"""Classical iterative closest point over an exact k-d tree.

Alternates nearest-neighbor correspondence with the closed-form alignment
solve; the recorded objective (mean squared matched residual) is
non-increasing by construction. :func:`polish_with_icp` runs the same loop
seeded from an externally estimated transform.

Each iteration makes one ``SpatialIndex.query_many`` (:func:`_exact_knn`,
also the DGCNN graph's kNN) and one ``geometry.procrustes_solve``, with
its 3x3 LAPACK SVD (``geometry.svd3``). A query ranks its candidates by
(squared distance, index), so a distance tie goes to the lowest point
index, as an exhaustive scan would; only a query row whose k-th candidate
ties the last one it fetched is queried again, with more candidates.
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


def _exact_knn(tree: cKDTree, queries: np.ndarray, k: int, skip_self: bool = False):
    """The k nearest tree points of each query row, ranked by (squared
    distance, index), so distance ties go to the lowest index.

    Returns ``(indices, squared_distances)``, both ``(len(queries), k)``.
    With ``skip_self`` the queries are the tree's own points and row i
    never lists point i. One tree query gives ``m`` candidates per row
    (k + 1, plus one for the point itself with ``skip_self``), whose
    squared distances are recomputed here; only a row not already in
    strictly increasing order is sorted. A row is final once its k-th
    distance is strictly below its last candidate's, so that no point
    left out can tie or beat it; only the other rows, those with a tie at
    the k-th place, are queried again, with ``m`` doubled, until ``m``
    covers every tree point.
    """
    n = tree.n
    m = min(k + 1 + int(skip_self), n)
    rows = np.arange(queries.shape[0])
    cand, d2, done = _ranked_candidates(tree, queries, rows if skip_self else None, k, m)
    indices, dist2 = cand[:, :k], d2[:, :k]
    if done.all():
        return indices, dist2
    todo = rows[~done]
    while todo.size:
        m = min(2 * m, n)
        cand, d2, done = _ranked_candidates(tree, queries[todo], todo if skip_self else None, k, m)
        indices[todo[done]] = cand[done, :k]
        dist2[todo[done]] = d2[done, :k]
        todo = todo[~done]
    return indices, dist2


def _ranked_candidates(tree: cKDTree, queries: np.ndarray, self_ids, k: int, m: int):
    """The ``m`` tree candidates of each query row ranked by (squared
    distance, index), their squared distances, and whether each row's
    first k are final. ``self_ids`` holds each row's own tree index, which
    ranks last at distance inf, or is None."""
    _, cand = tree.query(queries, k=m)
    cand = cand.reshape(queries.shape[0], m)
    diff = queries[:, None, :] - tree.data.take(cand, axis=0)
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    if self_ids is not None:
        is_self = cand == self_ids[:, None]
        d2[is_self] = np.inf
        # The point itself (distance 0) usually comes first: move the first
        # column to the back, where the ranking puts it.
        cand = np.concatenate((cand[:, 1:], cand[:, :1]), axis=1)
        d2 = np.concatenate((d2[:, 1:], d2[:, :1]), axis=1)
    # A row in strictly increasing order is ranked already, and final: its
    # k-th distance lies below its last candidate's.
    done = (d2[:, 1:] > d2[:, :-1]).all(axis=1)
    if not done.all():
        r = np.flatnonzero(~done)
        order = np.lexsort((cand[r], d2[r]), axis=1)
        cand[r] = np.take_along_axis(cand[r], order, axis=1)
        d2[r] = np.take_along_axis(d2[r], order, axis=1)
        # The last real candidate: the point itself, where fetched, ranks behind it.
        last = m - 1 if self_ids is None else m - 1 - is_self[r].any(axis=1)
        done[r] = (d2[r, k - 1] < d2[r, last]) | (m == tree.n)
    return cand, d2, done


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
        if (corr == corr[0]).all():
            raise DegenerateCorrespondenceError(
                "all source points matched a single target point", history=history
            )
        if prev_objective - objective < tol:
            break
        new_transform = geo.procrustes_solve(xp, yp.take(corr, axis=0))
        # Frobenius norms, summed as np.linalg.norm sums them.
        d_rot = (new_transform.rotation - transform.rotation).ravel()
        d_tra = new_transform.translation - transform.translation
        delta = math.sqrt(d_rot.dot(d_rot)) + math.sqrt(d_tra.dot(d_tra))
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
