"""Task environments supplying the external force on the end-effector.

Three variants: a plane board with an ink grid (wiping), a hole fixture with a
bottom spring and compliant walls (insertion), and a hinged door with a latch
force field (articulated opening). All contact is single-point: a unilateral
linear spring along the surface normal plus regularized Coulomb/viscous
friction in the tangent plane.

A constructor takes only what a task builder or a config override sets: the
pose of the geometry, the contact stiffness k_e and the door's latch_force. A
door is one built with a handle pose; without one it is a microwave. Every
other dimension (the bore's vertical axis and the ink pen's radius among
them), stiffness, friction law and threshold is a module constant below, the
same for every environment of its kind.

There is no base class. Each environment has `k_e`, `external_wrench(pos,
vel)`, `apply_disturbance_state(offset, tilt, tilt_axis)`, `measure(x_r)` and
the per-tick `update(x_r, gripper)`, which the board and the bore set to None.

Scripted disturbances act through `apply_disturbances`, which also reports
when every event has settled (`DisturbanceEvent.envelope`): from then on the
episode loop holds its result. A tilt sets the board's `frame`, the rows of
its rotation matrix, which the contact normal, `update_ink` and the wiping
planner read.

Sign convention: `surface_normal` points out of the environment toward free
space, so contact forces on the end-effector have a non-negative component
along it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import check_finite, check_finite_components, check_range
from .geometry import (
    _add,
    _cross,
    _matvec,
    _normalize,
    _perp,
    _quat_matrix,
    _sub,
    _unit,
    dot3,
    quat_from_axis_angle,
    quat_mul,
    sq_norm,
    vec3,
)

# Slip speed below which the Coulomb magnitude ramps linearly to zero, so that
# the friction force is continuous through zero slip. The ramp does not stop
# sign chatter at 1 kHz: below this speed the force grows with slope
# mu f_n / COULOMB_V_EPS, about 17,800 N s/m at the 5.9 N raw normal force of
# a 4 N board press, while the explicit 1 kHz step is stable only for slopes
# below 2 m / dt = 2000 N s/m (m = 1 kg, the default admittance mass). So a
# sticking contact flips the sign of its tangential velocity on most ticks.
COULOMB_V_EPS = 1e-4


_ZERO3 = (0.0, 0.0, 0.0)
_X_AXIS = (1.0, 0.0, 0.0)
_Z_AXIS = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class FrictionModel:
    """The regularized Coulomb/viscous friction law, with one instance per
    environment kind (BOARD_FRICTION, HOLE_FRICTION, DOOR_FRICTION)."""

    coulomb_mu: float
    viscous_c: float

    def slip_force(self, v_t, speed: float, f_n: float) -> tuple:
        """Resistance to the tangential velocity v_t (floats) of norm speed.

        (0.0, 0.0, 0.0) under the cut-off speed below, the one for every
        contact; above it the Coulomb magnitude ramps linearly to 0 below
        COULOMB_V_EPS, and the viscous part is linear in v_t.
        """
        if speed < 1e-15:
            return _ZERO3
        coulomb = self.coulomb_mu * abs(f_n) * min(1.0, speed / COULOMB_V_EPS)
        a = -(coulomb / speed)
        c = self.viscous_c
        v0, v1, v2 = v_t
        return (a * v0 - c * v0, a * v1 - c * v1, a * v2 - c * v2)


# --------------------------------------------------------------------------
# Disturbances
# --------------------------------------------------------------------------

PERSISTENT_KINDS = ("raise", "lower", "shift", "tilt")
WINDOWED_KINDS = ("force_pulse", "sinusoid")
DISTURBANCE_KINDS = PERSISTENT_KINDS + WINDOWED_KINDS


@dataclass(frozen=True)
class DisturbanceEvent:
    """One scripted disturbance.

    raise/lower/shift/tilt displace the environment geometry, ramping in over
    `ramp` seconds and holding afterwards. force_pulse adds an external force
    and sinusoid oscillates the rest point, both only inside
    [start, start + duration] with ramped edges. `envelope` gives both the
    activation, continuous in t, and whether it has settled.
    """

    kind: str
    start: float
    duration: float
    magnitude: float
    direction: tuple = (0.0, 0.0, 1.0)  # any 3-sequence; held as a unit float tuple
    ramp: float = 0.0
    omega: float = 2.0 * math.pi

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        for name in ("start", "duration", "magnitude", "ramp", "omega"):
            check_finite(name, getattr(self, name))
        if self.duration <= 0.0:
            raise ValueError("duration must be > 0")
        if not 0.0 <= self.ramp <= self.duration:
            raise ValueError("ramp must lie in [0, duration]")
        if not abs(self.omega * self.duration) < math.inf:  # the sinusoid's largest phase
            raise ValueError(f"omega * duration must be finite, got {self.omega} * {self.duration}")
        d = vec3(self.direction)
        norm = math.sqrt(sq_norm(d))
        if not norm < math.inf:  # a non-finite component, or a squared norm that overflows
            raise ValueError(f"direction must be finite with a finite norm, got {d}")
        object.__setattr__(self, "direction", _unit(d, norm))

    def envelope(self, t: float) -> tuple:
        """(p, settled) at t: the activation envelope p in [0, 1], and whether
        p and the amplitude that `apply_disturbances` reads hold their values
        from t on.

        A persistent kind settles once p reaches 1 (rel / ramp only grows with
        t), a windowed kind once its window has passed (p is 0 from then on).
        Monotone: settled at t means settled at every later time.
        """
        if t < self.start:
            return 0.0, False
        rel = t - self.start
        if self.kind in PERSISTENT_KINDS:
            p = 1.0 if self.ramp <= 0.0 else min(1.0, rel / self.ramp)
            return p, p == 1.0
        if rel > self.duration:
            return 0.0, True
        if self.ramp <= 0.0:
            return 1.0, False
        return max(0.0, min(1.0, rel / self.ramp, (self.duration - rel) / self.ramp)), False

    def amplitude(self, t: float, p: float) -> float:
        """Signed magnitude along `direction` (m, N or rad by kind) at envelope value p."""
        if self.kind == "lower":
            return -self.magnitude * p
        if self.kind == "sinusoid":
            return self.magnitude * math.sin(self.omega * (t - self.start)) * p
        return self.magnitude * p


# --------------------------------------------------------------------------
# Ink bookkeeping (non-visual analogue of erasure)
# --------------------------------------------------------------------------

CELL_SIZE = 0.005  # 0.5 cm ink cells
BOARD_EXTENT = (0.30, 0.20)  # the board's size along its x and y axes (m)
ERASER_HALF = 0.01  # half the side of the square eraser footprint (m)
PEN_RADIUS = 0.004  # the radius of the pen that inks a stroke (m)


class InkGrid:
    """Boolean grid over BOARD_EXTENT, indexed in the board frame."""

    def __init__(self):
        extent_x, extent_y = BOARD_EXTENT
        self.nx = int(round(extent_x / CELL_SIZE))
        self.ny = int(round(extent_y / CELL_SIZE))
        self.inked = np.zeros((self.nx, self.ny), dtype=bool)
        # The board-frame origin's offsets in the index formulas of wipe.
        self._x0 = 0.5 * extent_x
        self._y0 = 0.5 * extent_y

    def ink_stroke(self, points_xy):
        """Ink every cell whose center lies within PEN_RADIUS of the polyline
        through points_xy, (x, y) points in an (n, 2) array-like. An empty
        stroke inks nothing.

        Only the cells in the stroke's bounding box widened by PEN_RADIUS and
        one more cell are evaluated: no cell outside it lies that close.
        """
        pts = np.asarray(points_xy, dtype=float)
        if pts.size == 0:
            return
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"stroke points must have shape (n, 2), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("stroke points must be finite")
        reach = PEN_RADIUS + CELL_SIZE
        lo = (pts.min(axis=0) - reach + (self._x0, self._y0)) / CELL_SIZE - 0.5
        hi = (pts.max(axis=0) + reach + (self._x0, self._y0)) / CELL_SIZE - 0.5
        i_lo, j_lo = max(0, math.floor(lo[0])), max(0, math.floor(lo[1]))
        i_hi = min(self.nx, math.ceil(hi[0]) + 1)
        j_hi = min(self.ny, math.ceil(hi[1]) + 1)
        if i_lo < i_hi and j_lo < j_hi:
            self.inked[i_lo:i_hi, j_lo:j_hi] |= self._near(pts, i_lo, i_hi, j_lo, j_hi)

    def _near(self, pts, i_lo, i_hi, j_lo, j_hi) -> np.ndarray:
        """Whether each cell of the index box lies within PEN_RADIUS of the polyline.

        All segments at once, over a (segments x cells) grid: each cell
        center c's distance to segment a-b is |c - (a + s (b - a))| at the
        projection s clipped to [0, 1], its squared terms summed as
        `np.linalg.norm(..., axis=1)` sums them. A degenerate segment
        (squared length below 1e-18) takes s = 0, its start point, and a
        single point is the zero-length segment from it to itself.
        """
        if len(pts) == 1:
            pts = pts[[0, 0]]
        cx = ((np.arange(i_lo, i_hi) + 0.5) * CELL_SIZE - self._x0)[:, None]
        cy = (np.arange(j_lo, j_hi) + 0.5) * CELL_SIZE - self._y0
        # The segments' starts and vectors, one (segments, 1, 1) array per axis.
        a0, a1 = pts[:-1].T[:, :, None, None]
        ab0, ab1 = (pts[1:] - pts[:-1]).T[:, :, None, None]
        den = ab0 * ab0 + ab1 * ab1
        point = den < 1e-18
        s = np.clip(((cx - a0) * ab0 + (cy - a1) * ab1) / np.where(point, 1.0, den), 0.0, 1.0)
        s[point.ravel()] = 0.0
        dx, dy = cx - (a0 + s * ab0), cy - (a1 + s * ab1)
        return np.sqrt(dx * dx + dy * dy).min(axis=0) <= PEN_RADIUS

    def wipe(self, x: np.ndarray, y: np.ndarray) -> int:
        """Clean the inked cells whose centers fall in the eraser's square
        (ERASER_HALF each way) around any of the board-frame points (x, y),
        given as two columns; return how many were cleaned.

        Each window's index bounds are the ceil and floor of the same float
        expressions as for a single point, clamped to the grid. A window
        equal to the one before it is wiped once.
        """
        h, cell, nx, ny = ERASER_HALF, CELL_SIZE, self.nx, self.ny
        bounds = np.stack([np.ceil((x - h + self._x0) / cell - 0.5),  # i_lo
                           np.floor((x + h + self._x0) / cell - 0.5) + 1,  # i_hi
                           np.ceil((y - h + self._y0) / cell - 0.5),  # j_lo
                           np.floor((y + h + self._y0) / cell - 0.5) + 1])  # j_hi
        fresh = np.ones(bounds.shape[1], dtype=bool)
        fresh[1:] = (bounds[:, 1:] != bounds[:, :-1]).any(axis=0)
        windows = np.clip(bounds[:, fresh].T, 0, (nx, nx, ny, ny)).astype(np.intp)
        inked = self.inked
        before = np.count_nonzero(inked)
        for i_lo, i_hi, j_lo, j_hi in windows.tolist():
            inked[i_lo:i_hi, j_lo:j_hi] = False  # empty when lo >= hi
        return int(before - np.count_nonzero(inked))

    def inked_count(self) -> int:
        return int(self.inked.sum())

    def inked_centers(self) -> np.ndarray:
        """Board-frame xy centers of the inked cells, one row each, origin at the board center."""
        i, j = np.nonzero(self.inked)
        return np.column_stack([(i + 0.5) * CELL_SIZE - self._x0,
                                (j + 0.5) * CELL_SIZE - self._y0])


# --------------------------------------------------------------------------
# Environments
# --------------------------------------------------------------------------

BOARD_FRICTION = FrictionModel(coulomb_mu=0.3, viscous_c=5.0)
F_MIN_WIPE = 1.0  # wiping force gate (N)


@dataclass
class PlaneBoard:
    """Flat board with an ink grid; the outward normal faces the robot.

    The contact's `rest_point` and unit `surface_normal` start at the center
    and the board's +z axis; disturbances move and tilt them. `frame` holds
    the rows of `rotation`'s matrix, the board's axes in the world, and a
    tilt sets both.

    The episode loop records the tick of each press at or above F_MIN_WIPE
    in `presses` and wipes them all at once with `update_ink`. `segments` says
    which geometry each press was made under: `(start, rest_point, frame)`
    holds from `presses[start]` on, and `apply_disturbance_state` starts a
    new one.
    """

    center: tuple = (0.25, 0.0, 0.10)  # any 3-sequence
    rotation: tuple = (1.0, 0.0, 0.0, 0.0)  # any 4-sequence, wxyz
    k_e: float = 1000.0
    update = None  # no state of its own to update per tick

    def __post_init__(self):
        self.center = check_finite_components("center", vec3(self.center))
        self.rotation = self._base_rotation = check_finite_components(
            "rotation", tuple(map(float, self.rotation)))
        self.frame = _quat_matrix(self.rotation)
        self.ink = InkGrid()
        check_range("k_e", self.k_e)
        self.rest_point = self.center
        n = _matvec(self.frame, _Z_AXIS)
        self.surface_normal = _unit(n, math.sqrt(sq_norm(n)))
        # Zero tilt restores the board as built, with its unit normal.
        self._untilted = (self.rotation, self.frame, self.surface_normal)
        self.presses = []  # the ticks that pressed, indices into update_ink's positions
        self.segments = [(0, self.rest_point, self.frame)]

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        self.rest_point = _add(self.center, offset)
        if tilt != 0.0:
            self.rotation = quat_mul(quat_from_axis_angle(tilt_axis, tilt), self._base_rotation)
            self.frame = _quat_matrix(self.rotation)
            self.surface_normal = _matvec(self.frame, _Z_AXIS)
        else:
            self.rotation, self.frame, self.surface_normal = self._untilted
        segment = (len(self.presses), self.rest_point, self.frame)
        if self.segments[-1][0] == segment[0]:  # no press under the geometry it replaces
            self.segments[-1] = segment
        else:
            self.segments.append(segment)

    def external_wrench(self, pos, vel) -> tuple:
        # The normal spring plus the friction of the velocity's component off
        # the normal, written out on floats.
        n0, n1, n2 = self.surface_normal
        r0, r1, r2 = self.rest_point
        p0, p1, p2 = pos
        pen = (r0 - p0) * n0 + (r1 - p1) * n1 + (r2 - p2) * n2
        if pen <= 0.0:
            return _ZERO3
        f_n = self.k_e * pen
        u0, u1, u2 = vel
        a = u0 * n0 + u1 * n1 + u2 * n2
        u0, u1, u2 = u0 - a * n0, u1 - a * n1, u2 - a * n2
        speed = sqrt(u0 * u0 + u1 * u1 + u2 * u2)
        g0, g1, g2 = BOARD_FRICTION.slip_force((u0, u1, u2), speed, f_n)
        return (f_n * n0 + g0, f_n * n1 + g1, f_n * n2 + g2)

    def measure(self, x_r) -> float:
        """Ink left on the board, as stroke length in cm."""
        return self.ink.inked_count() * CELL_SIZE * 100.0


BORE_AXIS = (0.0, 0.0, 1.0)  # unit; the bore opens upward
HOLE_RADIUS = 0.005
CLEARANCE = 0.001  # lateral play before wall contact
HOLE_DEPTH = 0.025
CHAMFER = 0.004  # 45-degree entry funnel width
WALL_STIFFNESS = 20000.0
HOLE_FRICTION = FrictionModel(coulomb_mu=0.2, viscous_c=2.0)


@dataclass
class HoleFixture:
    """Bore along BORE_AXIS with compliant walls and a spring-loaded bottom.

    Disturbances move the rim center; the axis stays vertical.
    """

    rim_center: tuple = (0.30, 0.10, 0.08)  # any 3-sequence
    k_e: float = 1000.0
    update = None  # no state of its own to update per tick

    def __post_init__(self):
        self.rim_center = check_finite_components("rim_center", vec3(self.rim_center))
        check_range("k_e", self.k_e)
        self._base_rest = self.rim_center

    def bottom_center(self) -> tuple:
        r0, r1, r2 = self.rim_center
        a0, a1, a2 = BORE_AXIS
        d = HOLE_DEPTH
        return (r0 - d * a0, r1 - d * a1, r2 - d * a2)

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        self.rim_center = _add(self._base_rest, offset)

    def measure(self, x_r) -> float:
        """Depth of the peg tip at x_r below the rim along the axis, clamped to
        [0, HOLE_DEPTH], in mm."""
        d_ax = -dot3(_sub(x_r, self.rim_center), BORE_AXIS)
        return 1000.0 * min(HOLE_DEPTH, max(0.0, d_ax))

    def external_wrench(self, pos, vel) -> tuple:
        # Floats throughout, summed from +0.0 in the order of the force terms.
        # Written for any unit axis: a vertical-only form could flip signed zeros.
        p0, p1, p2 = pos
        c0, c1, c2 = self.rim_center
        u0, u1, u2 = BORE_AXIS
        q0, q1, q2 = p0 - c0, p1 - c1, p2 - c2
        along = q0 * u0 + q1 * u1 + q2 * u2
        d_ax = -along  # depth below the rim
        if d_ax <= 0.0:
            return _ZERO3
        q0, q1, q2 = q0 - along * u0, q1 - along * u1, q2 - along * u2  # off the axis
        r = sqrt(q0 * q0 + q1 * q1 + q2 * q2)
        f0 = f1 = f2 = 0.0
        # Each region gives the spring's penetration and unit normal.
        if r <= HOLE_RADIUS:
            # Inside the bore: compliant wall beyond the clearance.
            if r > CLEARANCE:
                w = WALL_STIFFNESS * (r - CLEARANCE)
                f0, f1, f2 = f0 - w * (q0 / r), f1 - w * (q1 / r), f2 - w * (q2 / r)
            pen = d_ax - HOLE_DEPTH
            n0, n1, n2 = BORE_AXIS
        elif r <= HOLE_RADIUS + CHAMFER:
            # 45-degree entry funnel: the reaction tilts toward the axis and
            # guides a misaligned tip into the bore.
            h = math.sqrt(0.5)
            pen = (d_ax - (HOLE_RADIUS + CHAMFER - r)) * h
            n0, n1, n2 = (u0 - q0 / r) * h, (u1 - q1 / r) * h, (u2 - q2 / r) * h
        else:
            # Landed on the top plate beside the hole.
            pen = d_ax
            n0, n1, n2 = BORE_AXIS
        if pen <= 0.0:
            return (f0, f1, f2)
        # The pressed spring along its unit normal, and the friction of the
        # velocity's component off it.
        f_n = self.k_e * pen
        f0, f1, f2 = f0 + f_n * n0, f1 + f_n * n1, f2 + f_n * n2
        v0, v1, v2 = vel
        a = v0 * n0 + v1 * n1 + v2 * n2
        v0, v1, v2 = v0 - a * n0, v1 - a * n1, v2 - a * n2
        speed = sqrt(v0 * v0 + v1 * v1 + v2 * v2)
        g0, g1, g2 = HOLE_FRICTION.slip_force((v0, v1, v2), speed, f_n)
        return (f0 + g0, f1 + g1, f2 + g2)


HINGE_AXIS = (0.0, 0.0, 1.0)  # unit; the door swings about a vertical axis
HANDLE_LEVER = 0.06  # m, from the handle axis to the grasp point
OPENING_SIGN = -1.0  # the sense of rotation about HINGE_AXIS that opens the door
LATCH_THRESHOLD = math.radians(30.0)  # handle rotation releasing the bolt
RELEASE_ANGLE = math.radians(5.0)     # door angle releasing the snap lock
HANDLE_SPRING = 12.0  # N per rad of handle rotation
DOOR_FRICTION = FrictionModel(coulomb_mu=0.05, viscous_c=6.0)
GRASP_TOL = 0.03  # m, the gripper closes on the handle within this distance


@dataclass
class HingedDoor:
    """Door or microwave: handle latch, snap lock, circular constraint manifolds.

    A door is built with both `handle_pivot` and `handle_axis`, a microwave
    with neither; `microwave` says which. While latched a door's constraint
    manifold is the circle about the handle axis; after release, and for a
    microwave throughout, it is the circle about the hinge axis. The
    latch is a constant force field resisting door opening, disengaged by
    handle rotation beyond the threshold (door) or by the door angle exceeding
    a small release angle (microwave snap lock). Release is latching-free:
    once disengaged it stays disengaged.
    """

    hinge_pivot: tuple = (0.45, 0.25, 0.15)  # any 3-sequences
    grasp0: tuple = (0.45, -0.05, 0.15)
    handle_pivot: tuple = None  # a door's handle; None for a microwave
    handle_axis: tuple = None
    latch_force: float = 15.0
    k_e: float = 1000.0

    def __post_init__(self):
        check_range("k_e", self.k_e)
        check_range("latch_force", self.latch_force, closed=True)
        self.microwave = self.handle_pivot is None
        if self.microwave != (self.handle_axis is None):
            raise ValueError("a door takes both handle_pivot and handle_axis, a microwave "
                             f"neither; got handle_pivot {self.handle_pivot!r} and "
                             f"handle_axis {self.handle_axis!r}")
        self.hinge_pivot = check_finite_components("hinge_pivot", vec3(self.hinge_pivot))
        self.grasp0 = check_finite_components("grasp0", vec3(self.grasp0))
        if not self.microwave:
            self.handle_pivot = check_finite_components("handle_pivot", vec3(self.handle_pivot))
            self.handle_axis = _normalize(vec3(self.handle_axis))
            # Handle lever at the closed grasp, perpendicular to the handle axis.
            self._lever0_perp = _perp(_sub(self.grasp0, self.handle_pivot), self.handle_axis)
        # Orthonormal basis perpendicular to the hinge axis, for azimuth angles.
        rad0 = _perp(_sub(self.grasp0, self.hinge_pivot), HINGE_AXIS)  # the hinge radial
        self.pull_radius = math.sqrt(sq_norm(rad0))
        self._e1 = _unit(rad0, self.pull_radius)
        self._e2 = _cross(HINGE_AXIS, self._e1)
        self.engaged = False
        self.latch_released = False
        self.door_angle = 0.0
        self.handle_angle = 0.0
        self._az_ref = 0.0  # azimuth at grasp engagement, defines door_angle = 0

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        """No-op: a door takes force pulses only, which move no geometry."""

    def measure(self, x_r) -> float:
        """Current door angle about the hinge axis, in degrees."""
        return math.degrees(self.door_angle)

    def update(self, eef_pos, gripper: float):
        """Per-tick state update at the float position eef_pos: grasp engagement,
        angles, latch hysteresis."""
        p0, p1, p2 = eef_pos
        engaging = not self.engaged
        if engaging:
            if not gripper > 0.5:
                return
            g0, g1, g2 = self.grasp0
            d0, d1, d2 = p0 - g0, p1 - g1, p2 - g2
            if not sqrt(d0 * d0 + d1 * d1 + d2 * d2) < GRASP_TOL:
                return
            self.engaged = True
        elif gripper < 0.5:
            self.engaged = False
            return
        # The hinge radial: eef_pos - hinge_pivot off the hinge axis. Its
        # azimuth in (_e1, _e2) at engagement defines door_angle = 0.
        c0, c1, c2 = self.hinge_pivot
        h0, h1, h2 = HINGE_AXIS
        q0, q1, q2 = p0 - c0, p1 - c1, p2 - c2
        a = q0 * h0 + q1 * h1 + q2 * h2
        q0, q1, q2 = q0 - a * h0, q1 - a * h1, q2 - a * h2
        x0, x1, x2 = self._e1
        y0, y1, y2 = self._e2
        az = math.atan2(q0 * y0 + q1 * y1 + q2 * y2, q0 * x0 + q1 * x1 + q2 * x2)
        if engaging:
            self._az_ref = az
        rel_az = az - self._az_ref
        rel_az = (rel_az + math.pi) % (2.0 * math.pi) - math.pi
        self.door_angle = max(0.0, OPENING_SIGN * rel_az)
        if self.latch_released:
            return
        if self.microwave:
            # The snap lock yields to pulling past the release angle.
            released = self.door_angle > RELEASE_ANGLE
        else:
            # The handle angle: the lever (eef_pos - handle_pivot off the
            # handle axis) against the closed one, signed about the axis. The
            # door bolt disengages only through it.
            a0, a1, a2 = self.handle_axis
            o0, o1, o2 = self.handle_pivot
            l0, l1, l2 = p0 - o0, p1 - o1, p2 - o2
            a = l0 * a0 + l1 * a1 + l2 * a2
            l0, l1, l2 = l0 - a * a0, l1 - a * a1, l2 - a * a2
            r0, r1, r2 = self._lever0_perp
            cosv = r0 * l0 + r1 * l1 + r2 * l2
            sinv = (a0 * (r1 * l2 - r2 * l1) + a1 * (r2 * l0 - r0 * l2)
                    + a2 * (r0 * l1 - r1 * l0))
            self.handle_angle = max(0.0, math.atan2(sinv, cosv))
            released = self.handle_angle >= LATCH_THRESHOLD
        if released:
            self.latch_released = True
            self.pull_radius = sqrt(q0 * q0 + q1 * q1 + q2 * q2)

    def external_wrench(self, pos, vel) -> tuple:
        # Floats throughout, summed from +0.0 in the order of the force terms.
        if not self.engaged:
            return _ZERO3
        p0, p1, p2 = pos
        latched = not self.latch_released
        # The constraint circle in force: a latched door's handle circle, else
        # the hinge circle.
        on_handle = latched and not self.microwave
        if on_handle:
            (c0, c1, c2), (a0, a1, a2), radius = (self.handle_pivot, self.handle_axis,
                                                  HANDLE_LEVER)
        else:
            (c0, c1, c2), (a0, a1, a2), radius = self.hinge_pivot, HINGE_AXIS, self.pull_radius
        q0, q1, q2 = p0 - c0, p1 - c1, p2 - c2
        a = q0 * a0 + q1 * a1 + q2 * a2
        q0, q1, q2 = q0 - a * a0, q1 - a * a1, q2 - a * a2  # the radial off the axis
        r = sqrt(q0 * q0 + q1 * q1 + q2 * q2)
        f0 = f1 = f2 = 0.0
        if r > 1e-9:
            q0, q1, q2 = q0 / r, q1 / r, q2 / r
            f_con = -self.k_e * (r - radius)
            f0, f1, f2 = f0 + f_con * q0, f1 + f_con * q1, f2 + f_con * q2
            # The circle's tangent axis x radial, and the velocity along it.
            t0, t1, t2 = a1 * q2 - a2 * q1, a2 * q0 - a0 * q2, a0 * q1 - a1 * q0
            v0, v1, v2 = vel
            s = v0 * t0 + v1 * t1 + v2 * t2
            u0, u1, u2 = s * t0, s * t1, s * t2
            speed = sqrt(u0 * u0 + u1 * u1 + u2 * u2)
            g0, g1, g2 = DOOR_FRICTION.slip_force((u0, u1, u2), speed, f_con)
            f0, f1, f2 = f0 + g0, f1 + g1, f2 + g2
        if latched and self.door_angle > 0.0:
            # The latch: a constant force against opening, along the hinge
            # circle's tangent, from the hinge radial as above. On the hinge
            # axis the tangent is undefined and the latch term is left out, as
            # the constraint term is above.
            c0, c1, c2 = self.hinge_pivot
            h0, h1, h2 = HINGE_AXIS
            w0, w1, w2 = p0 - c0, p1 - c1, p2 - c2
            a = w0 * h0 + w1 * h1 + w2 * h2
            w0, w1, w2 = w0 - a * h0, w1 - a * h1, w2 - a * h2
            h = sqrt(w0 * w0 + w1 * w1 + w2 * w2)
            if h > 1e-9:
                w0, w1, w2 = w0 / h, w1 / h, w2 / h
                l0, l1, l2 = h1 * w2 - h2 * w1, h2 * w0 - h0 * w2, h0 * w1 - h1 * w0
                a, sign = -self.latch_force, OPENING_SIGN
                f0, f1, f2 = f0 + a * (sign * l0), f1 + a * (sign * l1), f2 + a * (sign * l2)
        if latched and self.handle_angle > 0.0 and r > 1e-9:
            # Handle return spring, tangential on the handle circle, which is
            # the active circle here: its tangent is t. A microwave's
            # handle_angle stays 0.
            k = HANDLE_SPRING * self.handle_angle
            f0, f1, f2 = f0 - k * t0, f1 - k * t1, f2 - k * t2
        return (f0, f1, f2)


# --------------------------------------------------------------------------
# Module-level operations
# --------------------------------------------------------------------------

def update_ink(board: PlaneBoard, positions: np.ndarray) -> int:
    """Wipe under the eraser at every press the board recorded since the last
    call, each in the board frame of its own segment; return the cells cleaned.

    positions holds the end-effector position of each tick, one row per tick,
    and each press names its tick's row. One columnwise pass over the
    presses: the board-plane x and y of each are the dot3s of to-board rows
    with its offset from the rest point, so they equal a per-press transform
    bit for bit. The wipes together clean the union of their windows, which
    no order of wiping changes.
    """
    presses, segments = board.presses, board.segments
    starts, rests, frames = zip(*segments)
    runs = np.diff(starts + (len(presses),))  # the presses under each segment
    # axes[c, k] is the frame's entry (k, c) under each press, and d each
    # press's offset from its rest point, one row per world axis: x (c = 0)
    # and y (c = 1) sum their products as a per-press _matvec by the
    # world-to-board rows does.
    axes = np.repeat(np.array(frames).T[:2], runs, axis=2)
    d = positions[presses].T - np.repeat(np.array(rests).T, runs, axis=1)
    x, y = (a0 * d[0] + a1 * d[1] + a2 * d[2] for a0, a1, a2 in axes)
    presses.clear()
    board.segments = [(0, board.rest_point, board.frame)]
    return board.ink.wipe(x, y)


def apply_disturbances(env, events, t: float):
    """Sum all events' geometry offsets; return (extra force, any active,
    all settled).

    Once every event is settled (see `DisturbanceEvent.envelope`), each later
    call returns the same result and sets the same environment state. The
    sums run on Python floats from +0.0, in event order, as the rest offsets
    and pulse forces of the events would add up as arrays; the extra force is
    a float tuple. Tilt angles add up about the last tilt event's
    axis, so `ScenarioConfig` admits only tilt events that share one.
    """
    if not events:
        return _ZERO3, False, True
    o0 = o1 = o2 = 0.0
    e0 = e1 = e2 = 0.0
    tilt = 0.0
    tilt_axis = _X_AXIS
    active, settled = False, True
    for ev in events:
        p, done = ev.envelope(t)
        active = active or p > 0.0
        settled = settled and done
        if ev.kind == "tilt":
            tilt += ev.amplitude(t, p)
            tilt_axis = ev.direction
        elif ev.kind == "force_pulse":
            a = ev.amplitude(t, p)
            d0, d1, d2 = ev.direction
            e0, e1, e2 = e0 + a * d0, e1 + a * d1, e2 + a * d2
        elif p != 0.0:
            a = ev.amplitude(t, p)
            d0, d1, d2 = ev.direction
            o0, o1, o2 = o0 + a * d0, o1 + a * d1, o2 + a * d2
    env.apply_disturbance_state((o0, o1, o2), tilt, tilt_axis)
    return (e0, e1, e2), active, settled

