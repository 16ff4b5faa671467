"""Vector, quaternion, and trajectory primitives used by the controller and planners.

Conventions:
- Vectors are float64 numpy arrays of shape (3,), SI units.
- Quaternions are wxyz arrays of shape (4,), unit norm, canonical sign w >= 0.
- The 6D rotation encoding is the first two columns of the rotation matrix,
  decoded by Gram-Schmidt orthonormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirection, DegenerateInput

# Degeneracy thresholds for the tangent projection: below these the commanded
# motion carries no usable tangent information and callers must fall back to
# isotropic stiffness.
EPS_POS = 1e-6
EPS_PROJ = 1e-6


def unchecked(cls, **fields):
    """An instance of the dataclass `cls` holding `fields` as given.

    Skips __post_init__: for values the 1 kHz loop has already coerced and
    checked. Outside callers use the public constructors, which validate.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def sq_norm(v) -> float:
    """v @ v for a vector, through numpy's dot.

    Sums of squares that reach a stored or logged value use this rounding:
    the BLAS kernel behind the dot fuses multiply and add, so a Python sum of
    squares differs from it in the last bit for about a third of all inputs.
    np.linalg.norm of a vector is exactly sqrt(sq_norm(v)).
    """
    a = np.asarray(v, dtype=float)
    return float(a.dot(a))


def normalized(v: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = math.sqrt(sq_norm(v))
    if n < eps:
        raise DegenerateInput(f"cannot normalize near-zero vector (norm={n:g})")
    return v / n


# --------------------------------------------------------------------------
# Quaternions (wxyz)
# --------------------------------------------------------------------------

def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Unit-normalize and pick the canonical sign (w >= 0)."""
    return np.array(_unit_quat(np.asarray(q, dtype=float).tolist()))


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(_quat_mul(np.asarray(a, dtype=float).tolist(),
                              np.asarray(b, dtype=float).tolist()))


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    return np.array(_quat_from_axis_angle(normalized(axis).tolist(), angle))


def quat_from_rotvec(w: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle) to quaternion."""
    return np.array(_quat_from_rotvec(np.asarray(w, dtype=float).tolist()))


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Log map: quaternion to rotation vector, angle in [0, pi]."""
    return np.array(_quat_to_rotvec(np.asarray(q, dtype=float).tolist()))


# The quaternion algebra itself, on sequences of Python floats. Elementwise
# float arithmetic rounds exactly as numpy's does; only the sums of squares go
# through sq_norm. The 1 kHz controller tick calls these directly.

def _unit_quat(q) -> tuple:
    n = math.sqrt(sq_norm(q))
    if n < 1e-12:
        raise DegenerateInput("zero quaternion")
    w, x, y, z = q
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0:
        return (-w, -x, -y, -z)
    return (w, x, y, z)


def _quat_mul(a, b) -> tuple:
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _quat_from_axis_angle(unit_axis, angle: float) -> tuple:
    half = 0.5 * angle
    s = math.sin(half)
    ax, ay, az = unit_axis
    return _unit_quat((math.cos(half), s * ax, s * ay, s * az))


def _quat_from_rotvec(w) -> tuple:
    angle = math.sqrt(sq_norm(w))
    if angle < 1e-12:
        return (1.0, 0.0, 0.0, 0.0)
    axis = normalized([c / angle for c in w])
    return _quat_from_axis_angle(axis.tolist(), angle)


def _quat_to_rotvec(q) -> tuple:
    w, x, y, z = _unit_quat(q)
    s = math.sqrt(sq_norm((x, y, z)))
    if s < 1e-12:
        return (0.0, 0.0, 0.0)
    angle = 2.0 * math.atan2(s, w)
    return ((x / s) * angle, (y / s) * angle, (z / s) * angle)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = _unit_quat(np.asarray(q, dtype=float).tolist())
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to quaternion (Shepperd's branch method)."""
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array([(R[2, 1] - R[1, 2]) / s,
                      0.25 * s,
                      (R[0, 1] + R[1, 0]) / s,
                      (R[0, 2] + R[2, 0]) / s])
    elif R[1, 1] > R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array([(R[0, 2] - R[2, 0]) / s,
                      (R[0, 1] + R[1, 0]) / s,
                      0.25 * s,
                      (R[1, 2] + R[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array([(R[1, 0] - R[0, 1]) / s,
                      (R[0, 2] + R[2, 0]) / s,
                      (R[1, 2] + R[2, 1]) / s,
                      0.25 * s])
    return quat_normalize(q)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return quat_to_matrix(q) @ np.asarray(v, dtype=float)


def quat_slerp(a: np.ndarray, b: np.ndarray, s: float) -> np.ndarray:
    """Shortest-arc spherical interpolation, s in [0, 1]."""
    a = quat_normalize(a)
    b = quat_normalize(b)
    dot = float(a @ b)
    if dot < 0.0:
        b = -b
        dot = -dot
    if dot > 1.0 - 1e-12:
        # Nearly identical: linear blend keeps the endpoints exact.
        return quat_normalize((1.0 - s) * a + s * b)
    theta = math.acos(min(1.0, dot))
    sin_theta = math.sin(theta)
    wa = math.sin((1.0 - s) * theta) / sin_theta
    wb = math.sin(s * theta) / sin_theta
    return quat_normalize(wa * a + wb * b)


# --------------------------------------------------------------------------
# 6D rotation encoding
# --------------------------------------------------------------------------

def rot6d_encode(q: np.ndarray) -> np.ndarray:
    """First two columns of the rotation matrix, flattened column-first."""
    R = quat_to_matrix(q)
    return np.concatenate([R[:, 0], R[:, 1]])


def rot6d_decode(v6: np.ndarray) -> np.ndarray:
    """Gram-Schmidt the two encoded columns back into a quaternion.

    Raises DegenerateInput when the first column is near zero or the columns
    are parallel within 1e-6.
    """
    v6 = np.asarray(v6, dtype=float)
    a, b = v6[:3], v6[3:6]
    na = float(np.linalg.norm(a))
    if na <= 1e-6:
        raise DegenerateInput("rot6d first column near zero")
    b1 = a / na
    b2 = b - (b1 @ b) * b1
    nb = float(np.linalg.norm(b2))
    if nb <= 1e-6:
        raise DegenerateInput("rot6d columns parallel")
    b2 = b2 / nb
    b3 = np.cross(b1, b2)
    return matrix_to_quat(np.column_stack([b1, b2, b3]))


# --------------------------------------------------------------------------
# Rodrigues rotation about an arbitrary line
# --------------------------------------------------------------------------

def rodrigues_rotate(p: np.ndarray, axis: np.ndarray, pivot: np.ndarray, angle: float) -> np.ndarray:
    """Rotate point p by angle about the line through pivot along unit axis."""
    p = np.asarray(p, dtype=float)
    axis = np.asarray(axis, dtype=float)
    pivot = np.asarray(pivot, dtype=float)
    r = p - pivot
    c, s = math.cos(angle), math.sin(angle)
    rotated = r * c + np.cross(axis, r) * s + axis * float(axis @ r) * (1.0 - c)
    return pivot + rotated


# --------------------------------------------------------------------------
# Tangent projection (the force-direction split)
# --------------------------------------------------------------------------

def tangent_direction(n: np.ndarray, x_cmd: np.ndarray, x_r: np.ndarray) -> np.ndarray:
    """Unit motion direction projected onto the plane orthogonal to n.

    Raises DegenerateDirection when the commanded motion is shorter than
    EPS_POS or (after projection) parallel to n within EPS_PROJ; the caller
    is expected to fall back to isotropic stiffness.
    """
    d = np.asarray(x_cmd, dtype=float) - np.asarray(x_r, dtype=float)
    t = tangent_or_none(np.asarray(n, dtype=float), d)
    if t is None:
        if math.sqrt(sq_norm(d)) <= EPS_POS:
            raise DegenerateDirection("commanded motion too short for a tangent")
        raise DegenerateDirection("commanded motion parallel to the normal")
    return t


def tangent_or_none(n: np.ndarray, d: np.ndarray) -> np.ndarray | None:
    """tangent_direction for the motion d = x_cmd - x_r, or None where it raises."""
    dist = math.sqrt(sq_norm(d))
    if dist <= EPS_POS:
        return None
    v = d / dist
    proj = v - float(n.dot(v)) * n
    pn = math.sqrt(sq_norm(proj))
    if pn <= EPS_PROJ:
        return None
    return proj / pn


# --------------------------------------------------------------------------
# Poses and the 10-d pose/gripper encoding
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """End-effector position (m) and orientation (unit quaternion, wxyz)."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation", quat_normalize(self.orientation))


def interpolate_pose(a: Pose, b: Pose, s: float) -> Pose:
    """Linear position blend with shortest-arc orientation slerp."""
    pos = (1.0 - s) * a.position + s * b.position
    return Pose(pos, quat_slerp(a.orientation, b.orientation, s))


POSE10_DIM = 10


def pose10_encode(pose: Pose, gripper: float) -> np.ndarray:
    """Pack (position, 6D rotation, gripper command) into a 10-vector."""
    return np.concatenate([pose.position, rot6d_encode(pose.orientation), [float(gripper)]])


def pose10_decode(v: np.ndarray) -> tuple[Pose, float]:
    v = np.asarray(v, dtype=float)
    return Pose(v[:3], rot6d_decode(v[3:9])), float(v[9])
