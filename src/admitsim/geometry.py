"""Vector, quaternion, and trajectory primitives used by the controller and planners.

Conventions:
- A 3-vector is a tuple of three Python floats in SI units, a quaternion a
  tuple of four (wxyz, unit norm, canonical sign w >= 0) and a `Pose` a pair
  of them. The public constructors (`vec3`, `Pose`) coerce any sequence, an
  array or a list, into that form.
- The 6D rotation encoding is the first two columns of the rotation matrix.

Numerics contract. Every dot product of 3-vectors whose value reaches state,
a log or an output file is `dot3(a, b) = a0*b0 + a1*b1 + a2*b2`, evaluated left
to right on Python floats with one rounding per operation. `sq_norm(v)` is
`dot3(v, v)`, a quaternion's squared norm is the same left-to-right sum over
its four components, and a 3x3 matrix times a vector is three row `dot3`s.
No BLAS call (`ndarray.dot`, the `@` operator, `np.linalg.norm` of one
vector) feeds an output: a BLAS kernel may fuse multiply and add, so its last
bit depends on the CPU. The columnwise numpy form
`a[:, 0]*b[:, 0] + a[:, 1]*b[:, 1] + a[:, 2]*b[:, 2]` rounds exactly like
`dot3`, so a batch of N vectors reproduces N single ones bit for bit; the
axis-wise `np.linalg.norm(x, axis=1)` of the ink grid's 2-column rows is such
a columnwise sum too.

Per-value transcendentals come from the `math` module: `sqrt` is correctly
rounded, and `sin`, `cos`, `atan2` and `acos` come from the C math library,
so outputs are identical on any host with the same libm. On the reference
host numpy's `sqrt`, `sin` and `cos` ufuncs equal `math` bit for bit (a
tier-1 property test pins this), but `np.arctan2` differs from `math.atan2`
in about 8 % of inputs, so a batched caller takes `math.atan2` per value.
Arrays appear only where whole arrays are the point, and numpy ufuncs give
the same bits at any array length and in any layout there: the `RunLog` of a
finished episode, built once from the per-tick logs, the ink grid, the
verifier's lane chunks, judged a chunk of steps at a time, and a demo's
supervision records, one (n, 14) float64 block in the dataset layout
(`admitsim.datasets`) whose tuples are made as row views on access.
Elementwise float arithmetic rounds exactly like numpy's, so the tuples carry
the bits an array would: the records' 6D rotations are computed on numpy
columns of all a demo's quaternions (`_unit_matrix` serves floats and
columns alike), and equal the per-pose `rot6d_encode`; a controller
command's position is the float tuple of a record's `pose10[:3]`.

Every quaternion keeps the `_unit_quat` passes of the formulas the outputs
were pinned with (a slerp's own, the one of the `Pose` constructor): a
repeated pass changes at least one component of about a third of unit
quaternions. The planners build each waypoint's `Pose` once, with
`Pose._make`, from floats that have had that pass. No quaternion reaches the
translational controller: the 6D rotations of the supervision records reach
the demo datasets only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateInput

# Degeneracy thresholds for the tangent projection: below these the commanded
# motion carries no usable tangent information and callers must fall back to
# isotropic stiffness.
EPS_POS = 1e-6
EPS_PROJ = 1e-6


def vec3(v) -> tuple:
    """Any sequence of three numbers (an array, a list) as a tuple of Python floats."""
    t = tuple(map(float, v))
    if len(t) != 3:
        raise ValueError(f"expected 3 components, got {len(t)}")
    return t


def dot3(a, b) -> float:
    """a0*b0 + a1*b1 + a2*b2, left to right: the one 3-vector dot (see above)."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a0 * b0 + a1 * b1 + a2 * b2


def sq_norm(v) -> float:
    """dot3(v, v): the squared norm of a 3-vector."""
    x, y, z = v
    return x * x + y * y + z * z


def _normalize(v) -> tuple:
    """v / |v| for a float 3-sequence v, as floats."""
    return _unit(v, math.sqrt(sq_norm(v)))


def _unit(v, n: float) -> tuple:
    """_normalize(v) for the floats v, given their norm n = sqrt(sq_norm(v))."""
    if n < 1e-12:
        raise DegenerateInput(f"cannot normalize near-zero vector (norm={n:g})")
    v0, v1, v2 = v
    return (v0 / n, v1 / n, v2 / n)


def _cross(a, b) -> tuple:
    """a x b of two float 3-sequences, in numpy's (np.cross) order of operations."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _add(a, b) -> tuple:
    """a + b for two float 3-sequences, as floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a0 + b0, a1 + b1, a2 + b2)


def _sub(a, b) -> tuple:
    """a - b for two float 3-sequences, as floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a0 - b0, a1 - b1, a2 - b2)


def _perp(v, axis) -> tuple:
    """v - (v . axis) axis for the unit axis, as floats."""
    a = dot3(v, axis)
    v0, v1, v2 = v
    x0, x1, x2 = axis
    return (v0 - a * x0, v1 - a * x1, v2 - a * x2)


def _matvec(rows, v) -> tuple:
    """The 3x3 matrix with the given rows times v, as three row dot3s."""
    r0, r1, r2 = rows
    return (dot3(r0, v), dot3(r1, v), dot3(r2, v))


# --------------------------------------------------------------------------
# Quaternions (wxyz)
# --------------------------------------------------------------------------

def _unit_quat(q) -> tuple:
    """q normalized, with the canonical sign w >= 0."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)  # sq_norm's sum, four terms
    if n < 1e-12:
        raise DegenerateInput("zero quaternion")
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0:
        return (-w, -x, -y, -z)
    return (w, x, y, z)


def quat_mul(a, b) -> tuple:
    """The Hamilton product a b."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_from_axis_angle(axis, angle: float) -> tuple:
    """The rotation by angle about axis, which is normalized first."""
    ax, ay, az = _normalize(axis)
    half = 0.5 * angle
    s = math.sin(half)
    return _unit_quat((math.cos(half), s * ax, s * ay, s * az))


def _quat_matrix(q) -> tuple:
    """Rows of the rotation matrix of q, as float tuples."""
    return _unit_matrix(*_unit_quat(q))


def _unit_matrix(w, x, y, z) -> tuple:
    """Rows of the rotation matrix of the unit quaternion (w, x, y, z).

    The components are floats, or numpy columns of many quaternions, which
    the same operations round alike.
    """
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )


def quat_rotate(q, v) -> tuple:
    """The 3-vector v rotated by q."""
    return _matvec(_quat_matrix(q), v)


def _slerp_ends(a, b) -> tuple:
    """The terms of a shortest-arc slerp from a to b that do not depend on s.

    (a, b, theta, sin theta) with a and b unit, b on a's hemisphere and theta
    None where the two nearly coincide and the blend is linear.
    """
    aw, ax, ay, az = a = _unit_quat(a)
    bw, bx, by, bz = b = _unit_quat(b)
    dot = aw * bw + ax * bx + ay * by + az * bz
    if dot < 0.0:
        b = (-bw, -bx, -by, -bz)
        dot = -dot
    if dot > 1.0 - 1e-12:
        return a, b, None, None
    theta = math.acos(min(1.0, dot))
    return a, b, theta, math.sin(theta)


def _slerp(ends, s: float) -> tuple:
    """Spherical interpolation at s in [0, 1] between the _slerp_ends."""
    (aw, ax, ay, az), (bw, bx, by, bz), theta, sin_theta = ends
    if theta is None:
        # Nearly identical: linear blend keeps the endpoints exact.
        wa, wb = 1.0 - s, s
    else:
        wa = math.sin((1.0 - s) * theta) / sin_theta
        wb = math.sin(s * theta) / sin_theta
    return _unit_quat((wa * aw + wb * bw, wa * ax + wb * bx, wa * ay + wb * by,
                       wa * az + wb * bz))


# --------------------------------------------------------------------------
# 6D rotation encoding
# --------------------------------------------------------------------------

def rot6d_encode(q) -> tuple:
    """First two columns of the rotation matrix, flattened column-first."""
    (r00, r01, _), (r10, r11, _), (r20, r21, _) = _quat_matrix(q)
    return (r00, r10, r20, r01, r11, r21)


# --------------------------------------------------------------------------
# Rodrigues rotation about an arbitrary line
# --------------------------------------------------------------------------

def _rodrigues_fixed(p, axis, pivot) -> tuple:
    """The terms of the rotation of point p about the line through pivot along
    unit axis that do not depend on the angle, from float 3-sequences: pivot,
    r = p - pivot, axis x r and axis (axis . r)."""
    r = _sub(p, pivot)
    k = dot3(axis, r)
    a0, a1, a2 = axis
    return pivot, r, _cross(axis, r), (a0 * k, a1 * k, a2 * k)


def _rodrigues(fixed, angle: float) -> tuple:
    """The point of the _rodrigues_fixed terms rotated by angle, as floats, in
    the order of operations of the array formula
    pivot + (r c + (axis x r) s + (axis (axis . r)) (1 - c))."""
    (o0, o1, o2), (r0, r1, r2), (x0, x1, x2), (k0, k1, k2) = fixed
    c, s = math.cos(angle), math.sin(angle)
    omc = 1.0 - c
    return (o0 + (r0 * c + x0 * s + k0 * omc),
            o1 + (r1 * c + x1 * s + k1 * omc),
            o2 + (r2 * c + x2 * s + k2 * omc))


# --------------------------------------------------------------------------
# Tangent projection (the force-direction split)
# --------------------------------------------------------------------------

def tangent_or_none(n, d) -> tuple | None:
    """Unit motion direction d = x_cmd - x_r projected onto the plane orthogonal to n.

    None when the motion is no longer than EPS_POS or, after projection,
    parallel to n within EPS_PROJ: the caller falls back to isotropic
    stiffness. n and d are float 3-sequences; the tangent is a float tuple.
    """
    dist = math.sqrt(sq_norm(d))
    if dist <= EPS_POS:
        return None
    d0, d1, d2 = d
    v = (d0 / dist, d1 / dist, d2 / dist)
    proj = _perp(v, n)
    pn = math.sqrt(sq_norm(proj))
    if pn <= EPS_PROJ:
        return None
    p0, p1, p2 = proj
    return (p0 / pn, p1 / pn, p2 / pn)


# --------------------------------------------------------------------------
# Poses and the 10-d pose/gripper encoding
# --------------------------------------------------------------------------

class _PoseFields(NamedTuple):
    position: tuple
    orientation: tuple


class Pose(_PoseFields):
    """End-effector position (m) and orientation (unit quaternion, wxyz).

    The public constructor coerces both to float tuples and gives the
    orientation one `_unit_quat` pass; code holding finished floats builds a
    pose with the NamedTuple method `_make`, which skips both.
    """

    __slots__ = ()

    def __new__(cls, position, orientation):
        return super().__new__(cls, vec3(position), _unit_quat(tuple(map(float, orientation))))


def _lerp(a, b, s: float) -> tuple:
    """(1 - s) a + s b for two float 3-sequences, as floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    t = 1.0 - s
    return (t * a0 + s * b0, t * a1 + s * b1, t * a2 + s * b2)


def pose10_encode(pose: Pose, gripper: float) -> tuple:
    """Pack (position, 6D rotation, gripper command) into 10 floats."""
    return (*pose.position, *rot6d_encode(pose.orientation), float(gripper))
