"""Rigid-motion algebra: 3x3 SVD, closed-form alignment, rotation metrics.

All computations run in float64. Euler angles use the intrinsic Z-Y-X
convention throughout: ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``, angles in
radians internally and degrees only in error metrics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyWarning,
    InsufficientDataError,
    InvalidInputError,
)

ORTHOGONALITY_TOL = 1e-9
_EYE3 = np.eye(3)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(getattr(points, "points", points), dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError(f"expected an (N, 3) point array, got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion: ``p -> rotation @ p + translation``.

    Holds read-only float64 copies of the arrays it is given, so the
    caller's arrays stay writable and later writes to them do not reach it.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=np.float64)
        tra = np.array(self.translation, dtype=np.float64).reshape(3)
        if rot.shape != (3, 3):
            raise InvalidInputError(f"rotation must be 3x3, got {rot.shape}")
        if not (np.isfinite(rot).all() and np.isfinite(tra).all()):
            raise InvalidInputError("transform entries must be finite")
        residual = (rot.T @ rot - _EYE3).ravel()
        ortho = math.sqrt(residual.dot(residual))  # Frobenius norm, as np.linalg.norm sums it
        if ortho > ORTHOGONALITY_TOL:
            raise InvalidInputError(f"rotation not orthogonal (residual {ortho:.3e})")
        det = float(np.linalg.det(rot))
        if abs(det - 1.0) > ORTHOGONALITY_TOL:
            raise InvalidInputError(f"rotation must be proper (det {det:.12f})")
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class EulerAngles:
    """Intrinsic Z-Y-X angles in radians; pitch canonical in [-pi/2, pi/2]."""

    yaw: float
    pitch: float
    roll: float
    gimbal_lock: bool = False


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def euler_zyx_to_matrix(yaw: float, pitch: float, roll: float) -> np.ndarray:
    ca, sa = math.cos(yaw), math.sin(yaw)
    cb, sb = math.cos(pitch), math.sin(pitch)
    cc, sc = math.cos(roll), math.sin(roll)
    return np.array(
        [
            [ca * cb, ca * sb * sc - sa * cc, ca * sb * cc + sa * sc],
            [sa * cb, sa * sb * sc + ca * cc, sa * sb * cc - ca * sc],
            [-sb, cb * sc, cb * cc],
        ]
    )


GIMBAL_TOL = 1e-6


def matrix_to_euler_zyx(rotation: np.ndarray) -> EulerAngles:
    """Decompose a rotation into intrinsic Z-Y-X angles.

    Near pitch = +-pi/2 (gimbal lock) only yaw + roll is determined; roll is
    pinned to 0 there and the result is flagged.
    """
    r = np.asarray(rotation, dtype=np.float64)
    sb = -r[2, 0]
    sb = min(1.0, max(-1.0, sb))
    pitch = math.asin(sb)
    if abs(abs(pitch) - math.pi / 2.0) < GIMBAL_TOL:
        # cos(pitch) ~ 0: fold roll into yaw deterministically.
        yaw = math.atan2(-r[0, 1], r[1, 1])
        roll = 0.0
        return EulerAngles(wrap_angle(yaw), pitch, roll, gimbal_lock=True)
    yaw = math.atan2(r[1, 0], r[0, 0])
    roll = math.atan2(r[2, 1], r[2, 2])
    return EulerAngles(wrap_angle(yaw), pitch, wrap_angle(roll))


def svd3(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed SVD of a 3x3 matrix, or of each in a (B, 3, 3) stack:
    ``m = u @ diag(s) @ v.T``.

    LAPACK SVD with one sign convention on top: ``u`` and ``v`` are proper
    rotations (det = +1); any reflection sign is absorbed into the last
    entry of ``s``, so ``s`` is descending with ``s[2]`` possibly negative.
    A stack gives (B, 3, 3), (B, 3) and (B, 3, 3) arrays, each matrix's
    equal to its own SVD bit for bit.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.shape[-2:] != (3, 3) or a.ndim not in (2, 3):
        raise InvalidInputError(f"expected a 3x3 matrix or a (B, 3, 3) stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix entries must be finite")

    # The sign flips write only into LAPACK's fresh u and vt, never into m.
    u, sigma, vt = np.linalg.svd(a)
    v = vt.swapaxes(-1, -2)
    flips = np.linalg.det(np.array((u, v))) < 0.0
    if flips.any():
        for w, flip in zip((u, v), flips):
            sign = np.where(flip, -1.0, 1.0)
            w[..., :, 2] *= sign[..., None]
            sigma[..., 2] *= sign
    return u, sigma, v


def procrustes_solve(src, dst) -> RigidTransform:
    """Closed-form least-squares rigid alignment of matched point lists.

    Returns the transform minimizing the mean squared residual
    ``|R x_i + t - y_i|^2``. Rank-deficient cross-covariance (collinear
    points) still yields a proper rotation and emits a
    :class:`DegeneracyWarning`.
    """
    x = _as_points(src)
    y = _as_points(dst)
    if x.shape[0] != y.shape[0]:
        raise InvalidInputError(f"matched lists differ in length: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 3:
        raise InsufficientDataError(f"alignment needs at least 3 point pairs, got {x.shape[0]}")

    # sum / n is x.mean(axis=0) bit for bit, without its wrapper.
    cx = x.sum(axis=0) / x.shape[0]
    cy = y.sum(axis=0) / y.shape[0]
    h = (x - cx).T @ (y - cy)
    u, s, v = svd3(h)

    if abs(s[0]) == 0.0 or abs(s[1]) <= 1e-12 * abs(s[0]):
        warnings.warn(
            "cross-covariance is rank-deficient; rotation is not uniquely determined",
            DegeneracyWarning,
            stacklevel=2,
        )

    rotation = v @ u.T
    return RigidTransform(rotation, cy - rotation @ cx)


def apply_transform(transform: RigidTransform, points) -> np.ndarray:
    pts = _as_points(points)
    return pts @ transform.rotation.T + transform.translation


@dataclass(frozen=True)
class TransformErrors:
    """Per-axis rotation errors (degrees) and per-component translation errors."""

    rot_sq_deg: np.ndarray
    rot_abs_deg: np.ndarray
    trans_sq: np.ndarray
    trans_abs: np.ndarray
    gimbal_lock: bool = False


def rotation_metrics(pred: RigidTransform, gt: RigidTransform) -> TransformErrors:
    """Per-axis Euler-angle and translation errors between two transforms.

    Angle differences are wrapped into (-180, 180] degrees before squaring.
    A gimbal flag marks pitch within ~1e-6 of +-pi/2 on either input; the
    values are still returned.
    """
    ep = matrix_to_euler_zyx(pred.rotation)
    eg = matrix_to_euler_zyx(gt.rotation)
    diff = np.array(
        [
            wrap_angle(ep.yaw - eg.yaw),
            wrap_angle(ep.pitch - eg.pitch),
            wrap_angle(ep.roll - eg.roll),
        ]
    )
    deg = np.degrees(diff)
    tdiff = pred.translation - gt.translation
    return TransformErrors(
        rot_sq_deg=deg**2,
        rot_abs_deg=np.abs(deg),
        trans_sq=tdiff**2,
        trans_abs=np.abs(tdiff),
        gimbal_lock=ep.gimbal_lock or eg.gimbal_lock,
    )
