"""Vector, quaternion, and trajectory primitives used by the controller and planners.

Conventions:
- A 3-vector is a tuple of three Python floats in SI units and a quaternion a
  tuple of four (wxyz, unit norm, canonical sign w >= 0). Quaternions describe
  environment geometry only: a board's rotation and its tilt, a door's yaw,
  and the normal-cone noise of `policy.predict`. A `Pose` is an expert
  waypoint, its position alone: the controller is translational. The public
  constructors (`vec3`, `Pose`) coerce any sequence, an array or a list, into
  that form.

Numerics contract. Every dot product of 3-vectors whose value reaches state,
a log or an output file is `dot3(a, b) = a0*b0 + a1*b1 + a2*b2`, evaluated left
to right on Python floats with one rounding per operation. `sq_norm(v)` is
`dot3(v, v)`, a quaternion's squared norm is the same left-to-right sum over
its four components, and a 3x3 matrix times a vector is three row `dot3`s.
No BLAS call (`ndarray.dot`, the `@` operator, `np.linalg.norm` of one
vector) feeds an output: a BLAS kernel may fuse multiply and add, so its last
bit depends on the CPU. The per-tick code of the 1 kHz loop
(`controller_tick`, the environments' `external_wrench` and
`HingedDoor.update`, and the loop body) writes `dot3`, `sq_norm`, `_sub`,
`_perp`, `_cross` and `_unit` out as their left-to-right expressions instead
of calling them: the same operations in the same order, so the same bits,
without a Python call per vector operation. Demo generation does the same
per waypoint and per supervision step (see `admitsim.expert`). The columnwise
numpy form `a[:, 0]*b[:, 0] + a[:, 1]*b[:, 1] + a[:, 2]*b[:, 2]` rounds
exactly like `dot3`, so a batch of N vectors reproduces N single ones bit for
bit; the axis-wise `np.linalg.norm(x, axis=1)` of 2-column rows is such a
columnwise sum too, and the ink grid's stroke distances `sqrt(dx*dx + dy*dy)`
equal it.

Per-value transcendentals come from the `math` module: `sqrt` is correctly
rounded, and `sin`, `cos` and `atan2` come from the C math library, so
outputs are identical on any host with the same libm. On the reference
host numpy's `sqrt`, `sin` and `cos` ufuncs equal `math` bit for bit (a
tier-1 property test pins this), but `np.arctan2` differs from `math.atan2`
in about 8 % of inputs, so a batched caller takes `math.atan2` per value.
Arrays appear only where whole arrays are the point, and numpy ufuncs give
the same bits at any array length and in any layout there: the `RunLog` of a
finished episode, whose float series are column views of the loop's packed
(n, 15) tick records, the ink grid, the verifier's lane chunks, judged a
chunk of steps at a time, and a demo's supervision records, one (n, 14)
float64 block in the dataset layout (`admitsim.datasets`) whose tuples are
made as row views on access. A predicted controller command's position is
the float tuple of a record's `pose10[:3]` plus its position noise, added as
arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateInput

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
    if not n >= 1e-12:  # NaN fails the comparison too
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
    if not n >= 1e-12:  # NaN fails the comparison too
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
    w, x, y, z = _unit_quat(q)
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )


def quat_rotate(q, v) -> tuple:
    """The 3-vector v rotated by q."""
    return _matvec(_quat_matrix(q), v)


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


# --------------------------------------------------------------------------
# Poses
# --------------------------------------------------------------------------

class _PoseFields(NamedTuple):
    position: tuple


class Pose(_PoseFields):
    """An expert waypoint: the end-effector position (m).

    The controller is translational, so a plan carries no orientation. The
    public constructor coerces the position to a float tuple; code holding
    finished floats builds a pose with `tuple.__new__(Pose, (position,))`,
    which skips that.
    """

    __slots__ = ()

    def __new__(cls, position):
        return super().__new__(cls, vec3(position))
