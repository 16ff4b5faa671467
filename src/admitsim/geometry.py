"""Vector, quaternion, and trajectory primitives used by the controller and planners.

Conventions:
- A 3-vector is a tuple of three Python floats in SI units and a quaternion a
  tuple of four (wxyz, unit norm, canonical sign w >= 0). Quaternions describe
  environment geometry only: a board's rotation and its tilt, a door's yaw,
  and the normal-cone noise of `policy.predict`. An expert waypoint is a
  3-vector, its position alone: the controller is translational. `vec3` is
  the one check of a point, direction or rotation input: a component that is
  not a real number, or not finite, is a ValueError naming the field, `<name>
  must be 3 real numbers, got <value>` (4 for a quaternion) or `<name> must be
  finite, got <tuple>`. A norm that `_unit` or `_unit_quat` is given that is
  zero, NaN or infinite is `DegenerateInput`, in `_degenerate`'s one wording.

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
finished episode, whose series are column views of the loop's packed tick
records (an (n, 16) float64 view, its last column the flag bytes), whose
peak force is `np.sqrt` of the columnwise `f_ext` sum, the ink grid, the verifier's lane chunks, judged a
chunk of steps at a time, and a demo's supervision records, one (n, 14)
float64 block in the record layout of `admitsim.expert`, whose tuples are
made as row views on access. A predicted controller command's position is
the float tuple of a record's position columns plus its position noise.
"""

from __future__ import annotations

import math
from numbers import Real

from .errors import DegenerateInput

def vec3(name: str, v, size: int = 3) -> tuple:
    """v, `size` finite real numbers (an array, a list; 4 for a quaternion), as
    a float tuple, else a ValueError naming the field (see above). Three finite
    floats cost no Python call: vec3 runs per command."""
    try:
        t = tuple(v)
    except TypeError:  # not iterable
        t = ()
    if len(t) == size == 3:
        x, y, z = t
        if (type(x) is float and type(y) is float and type(z) is float
                and x - x == 0.0 and y - y == 0.0 and z - z == 0.0):  # inf - inf is NaN
            return t
    # float first: isinstance(c, Real) of a float is an abc check, a Python call.
    if len(t) != size or not all(map(isinstance, t, ((float, Real),) * size)):
        raise ValueError(f"{name} must be {size} real numbers, got {v!r}")
    try:
        t = tuple(map(float, t))
        finite = all(map(math.isfinite, t))
    except OverflowError:  # an integer past the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {t}")
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
    """_normalize(v) for the floats v, given their finite norm n = sqrt(sq_norm(v))."""
    if not 1e-12 <= n < math.inf:  # NaN fails the comparison too
        raise _degenerate(n)
    v0, v1, v2 = v
    return (v0 / n, v1 / n, v2 / n)


def _degenerate(n: float) -> DegenerateInput:
    """The error of a vector or quaternion whose norm n is zero (below 1e-12),
    NaN or infinite: the one wording of every normalization."""
    return DegenerateInput(f"cannot normalize a vector of norm {n:g}")


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
    if not 1e-12 <= n < math.inf:  # _unit's range test
        raise _degenerate(n)
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

