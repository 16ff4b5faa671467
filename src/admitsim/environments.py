"""Task environments supplying the external force on the end-effector.

Three variants: a plane board with an ink grid (wiping), a hole fixture with a
bottom spring and compliant walls (insertion), and a hinged door with a latch
force field (articulated opening). All contact is single-point: a unilateral
linear spring along the surface normal plus regularized Coulomb/viscous
friction in the tangent plane.

A constructor takes only what a task builder or a config override sets: the
pose of the geometry, the contact stiffness k_e and the door's latch_force.
Every other dimension, stiffness, friction law and threshold is a module
constant below, the same for every environment of its kind.

Sign convention: `surface_normal` points out of the environment toward free
space, so contact forces on the end-effector have a non-negative component
along it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_finite, check_range
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


@dataclass(frozen=True)
class FrictionModel:
    """The regularized Coulomb/viscous friction law, with one instance per
    environment kind (BOARD_FRICTION, HOLE_FRICTION, DOOR_FRICTION)."""

    coulomb_mu: float
    viscous_c: float

    def slip_force(self, v_t, speed: float, f_n: float) -> tuple:
        """Resistance to the tangential velocity v_t (floats) of norm speed > 0.

        Coulomb magnitude is ramped linearly below COULOMB_V_EPS so it vanishes
        at zero slip speed; the viscous part is linear in v_t.
        """
        coulomb = self.coulomb_mu * abs(f_n) * min(1.0, speed / COULOMB_V_EPS)
        a = -(coulomb / speed)
        c = self.viscous_c
        v0, v1, v2 = v_t
        return (a * v0 - c * v0, a * v1 - c * v1, a * v2 - c * v2)


def _friction(model: FrictionModel, vel, normal, f_n: float) -> tuple:
    """Tangential resistance opposing the velocity's component off the unit normal.

    vel and normal are float 3-sequences; the force is a float tuple.
    """
    v_t = _perp(vel, normal)
    speed = math.sqrt(sq_norm(v_t))
    if speed < 1e-15:
        return _ZERO3
    return model.slip_force(v_t, speed, f_n)


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
    [start, start + duration] with ramped edges (profiles are continuous in t).
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
        d = vec3(self.direction)
        norm = math.sqrt(sq_norm(d))
        if not norm < math.inf:  # a non-finite component, or a squared norm that overflows
            raise ValueError(f"direction must be finite with a finite norm, got {d}")
        object.__setattr__(self, "direction", _unit(d, norm))

    def profile(self, t: float) -> float:
        """Activation envelope in [0, 1]."""
        if t < self.start:
            return 0.0
        rel = t - self.start
        if self.kind in PERSISTENT_KINDS:
            if self.ramp <= 0.0:
                return 1.0
            return min(1.0, rel / self.ramp)
        if rel > self.duration:
            return 0.0
        if self.ramp <= 0.0:
            return 1.0
        return max(0.0, min(1.0, rel / self.ramp, (self.duration - rel) / self.ramp))

    def settled(self, t: float) -> bool:
        """Whether `profile` and the amplitude that `apply_disturbances` reads
        hold their values from t on.

        Mirrors `profile`'s branches: a persistent kind settles at the end of
        its ramp (rel / ramp only grows with t), a windowed kind once its
        window has passed (its profile is 0 from then on). Monotone: settled
        at t means settled at every later time.
        """
        if t < self.start:
            return False
        rel = t - self.start
        if self.kind in PERSISTENT_KINDS:
            return self.ramp <= 0.0 or rel / self.ramp >= 1.0
        return rel > self.duration

    def amplitude(self, t: float, p: float) -> float:
        """Signed magnitude along `direction` (m, N or rad by kind) at profile value p."""
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

    def ink_stroke(self, points_xy: np.ndarray, pen_radius: float = 0.004) -> int:
        """Ink every cell whose center lies within pen_radius of the polyline.

        Only the cells in the stroke's bounding box widened by pen_radius and
        one more cell are evaluated: no cell outside it lies that close.
        """
        pts = np.asarray(points_xy, dtype=float)
        if not (np.isfinite(pts).all() and 0.0 <= pen_radius < math.inf):
            raise ValueError("stroke points must be finite and pen_radius finite and >= 0")
        mask = np.zeros_like(self.inked)
        if len(pts):
            reach = pen_radius + CELL_SIZE
            lo = (pts.min(axis=0) - reach + (self._x0, self._y0)) / CELL_SIZE - 0.5
            hi = (pts.max(axis=0) + reach + (self._x0, self._y0)) / CELL_SIZE - 0.5
            i_lo, j_lo = max(0, math.floor(lo[0])), max(0, math.floor(lo[1]))
            i_hi = min(self.nx, math.ceil(hi[0]) + 1)
            j_hi = min(self.ny, math.ceil(hi[1]) + 1)
            if i_lo < i_hi and j_lo < j_hi:
                mask[i_lo:i_hi, j_lo:j_hi] = self._near(pts, pen_radius, i_lo, i_hi, j_lo, j_hi)
        fresh = mask & ~self.inked
        self.inked |= mask
        return int(fresh.sum())

    def _near(self, pts, pen_radius, i_lo, i_hi, j_lo, j_hi) -> np.ndarray:
        """Whether each cell of the index box lies within pen_radius of the polyline."""
        cx = (np.arange(i_lo, i_hi) + 0.5) * CELL_SIZE - self._x0
        cy = (np.arange(j_lo, j_hi) + 0.5) * CELL_SIZE - self._y0
        centers = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1).reshape(-1, 2)
        dmin = np.full(len(centers), np.inf)
        if len(pts) == 1:
            dmin = np.linalg.norm(centers - pts[0], axis=1)
        for a, b in zip(pts[:-1], pts[1:]):
            ab0, ab1 = ab = b - a
            den = float(ab0 * ab0 + ab1 * ab1)
            if den < 1e-18:
                d = np.linalg.norm(centers - a, axis=1)
            else:
                rel = centers - a  # columnwise dot with ab, as in geometry.dot3
                s = np.clip((rel[:, 0] * ab0 + rel[:, 1] * ab1) / den, 0.0, 1.0)
                d = np.linalg.norm(centers - (a + s[:, None] * ab), axis=1)
            dmin = np.minimum(dmin, d)
        return (dmin <= pen_radius).reshape(i_hi - i_lo, j_hi - j_lo)

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

class TaskEnvironment:
    """Common interface: contact stiffness k_e and per-variant geometry.

    The per-tick methods take the end-effector position and velocity as float
    3-sequences and return float tuples. Every geometry parameter is a float
    tuple, coerced once by the constructor.
    """

    k_e: float

    # The per-tick state update, update(x_r, gripper), run before the wrench;
    # None for a variant without state of its own to update.
    update = None

    def external_wrench(self, pos, vel) -> tuple:
        """The contact force on the end-effector (no environment produces torque)."""
        raise NotImplementedError

    def apply_disturbance_state(self, offset, tilt: float, tilt_axis):
        """Move the geometry by the float offset and tilt (an angle about the unit tilt_axis)."""
        raise NotImplementedError

    def measure(self, x_r) -> float:
        """The task's final metric with the end-effector at x_r (a float 3-sequence)."""
        raise NotImplementedError


BOARD_FRICTION = FrictionModel(coulomb_mu=0.3, viscous_c=5.0)
F_MIN_WIPE = 1.0  # wiping force gate (N)


@dataclass
class PlaneBoard(TaskEnvironment):
    """Flat board with an ink grid; the outward normal faces the robot.

    The contact's `rest_point` and unit `surface_normal` start at the center
    and the board's +z axis; disturbances move and tilt them.

    The episode loop records each press at or above F_MIN_WIPE in `presses`
    and wipes them all at once with `update_ink`. `segments` says which
    geometry each press was made under: `(start, rest_point, rotation)` holds
    from `presses[start]` on, and `apply_disturbance_state` starts a new one.
    """

    center: tuple = (0.25, 0.0, 0.10)  # any 3-sequence
    rotation: tuple = (1.0, 0.0, 0.0, 0.0)  # any 4-sequence, wxyz
    k_e: float = 1000.0

    def __post_init__(self):
        self.center = vec3(self.center)
        self.rotation = self._base_rotation = tuple(map(float, self.rotation))
        self.ink = InkGrid()
        check_range("k_e", self.k_e)
        self.rest_point = self.center
        n = self.normal()
        self.surface_normal = _unit(n, math.sqrt(sq_norm(n)))
        # Zero tilt restores the board as built, with its unit normal, and
        # its rotation object, which update_ink turns into a frame once.
        self._untilted = (self.rotation, self.surface_normal)
        self.presses = []  # the pressed positions' x, y, z floats, one after another
        self.segments = [(0, self.rest_point, self.rotation)]

    def normal(self) -> tuple:
        """The board's +z axis in the world, as floats."""
        return _matvec(_quat_matrix(self.rotation), (0.0, 0.0, 1.0))

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        self.rest_point = _add(self.center, offset)
        if tilt != 0.0:
            self.rotation = quat_mul(quat_from_axis_angle(tilt_axis, tilt), self._base_rotation)
            self.surface_normal = self.normal()
        else:
            self.rotation, self.surface_normal = self._untilted
        segment = (len(self.presses), self.rest_point, self.rotation)
        if self.segments[-1][0] == segment[0]:  # no press under the geometry it replaces
            self.segments[-1] = segment
        else:
            self.segments.append(segment)

    def external_wrench(self, pos, vel) -> tuple:
        nu = self.surface_normal
        pen = dot3(_sub(self.rest_point, pos), nu)
        if pen <= 0.0:
            return _ZERO3
        f_n = self.k_e * pen
        n0, n1, n2 = nu
        g0, g1, g2 = _friction(BOARD_FRICTION, vel, nu, f_n)
        return (f_n * n0 + g0, f_n * n1 + g1, f_n * n2 + g2)

    def measure(self, x_r) -> float:
        """Ink left on the board, as stroke length in cm."""
        return self.ink.inked_count() * CELL_SIZE * 100.0


HOLE_RADIUS = 0.005
CLEARANCE = 0.001  # lateral play before wall contact
HOLE_DEPTH = 0.025
CHAMFER = 0.004  # 45-degree entry funnel width
WALL_STIFFNESS = 20000.0
HOLE_FRICTION = FrictionModel(coulomb_mu=0.2, viscous_c=2.0)


@dataclass
class HoleFixture(TaskEnvironment):
    """Vertical bore with compliant walls and a spring-loaded bottom.

    Disturbances move the rim center; the axis is fixed and held unit.
    """

    rim_center: tuple = (0.30, 0.10, 0.08)  # any 3-sequence
    axis_up: tuple = (0.0, 0.0, 1.0)  # any 3-sequence
    k_e: float = 1000.0

    def __post_init__(self):
        self.rim_center = vec3(self.rim_center)
        self.axis_up = _normalize(vec3(self.axis_up))
        check_range("k_e", self.k_e)
        self._base_rest = self.rim_center

    def bottom_center(self) -> tuple:
        r0, r1, r2 = self.rim_center
        a0, a1, a2 = self.axis_up
        d = HOLE_DEPTH
        return (r0 - d * a0, r1 - d * a1, r2 - d * a2)

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        self.rim_center = _add(self._base_rest, offset)

    def measure(self, x_r) -> float:
        """Depth of the peg tip at x_r below the rim along the axis, clamped to
        [0, HOLE_DEPTH], in mm."""
        d_ax = -dot3(_sub(x_r, self.rim_center), self.axis_up)
        return 1000.0 * min(HOLE_DEPTH, max(0.0, d_ax))

    def external_wrench(self, pos, vel) -> tuple:
        # Floats throughout, summed from +0.0 in the order of the force terms.
        rel = _sub(pos, self.rim_center)
        axis_up = self.axis_up
        d_ax = -dot3(rel, axis_up)  # depth below the rim
        if d_ax <= 0.0:
            return _ZERO3
        r_perp = _perp(rel, axis_up)
        p0, p1, p2 = r_perp
        r = math.sqrt(sq_norm(r_perp))
        f0 = f1 = f2 = 0.0
        spring = None  # (force, unit normal) of a pressed spring
        if r <= HOLE_RADIUS:
            # Inside the bore: compliant wall beyond the clearance.
            if r > CLEARANCE:
                w = WALL_STIFFNESS * (r - CLEARANCE)
                f0, f1, f2 = f0 - w * (p0 / r), f1 - w * (p1 / r), f2 - w * (p2 / r)
            pen = d_ax - HOLE_DEPTH
            if pen > 0.0:
                spring = (self.k_e * pen, axis_up)
        elif r <= HOLE_RADIUS + CHAMFER:
            # 45-degree entry funnel: the reaction tilts toward the axis and
            # guides a misaligned tip into the bore.
            d_surf = HOLE_RADIUS + CHAMFER - r
            h = math.sqrt(0.5)
            pen = (d_ax - d_surf) * h
            if pen > 0.0:
                u0, u1, u2 = axis_up
                cone_n = ((u0 - p0 / r) * h, (u1 - p1 / r) * h, (u2 - p2 / r) * h)
                spring = (self.k_e * pen, cone_n)
        else:
            # Landed on the top plate beside the hole.
            spring = (self.k_e * d_ax, axis_up)
        if spring is not None:
            f_n, normal = spring
            n0, n1, n2 = normal
            f0, f1, f2 = f0 + f_n * n0, f1 + f_n * n1, f2 + f_n * n2
            g0, g1, g2 = _friction(HOLE_FRICTION, vel, normal, f_n)
            f0, f1, f2 = f0 + g0, f1 + g1, f2 + g2
        return (f0, f1, f2)


HINGE_AXIS = (0.0, 0.0, 1.0)  # unit; the door swings about a vertical axis
HANDLE_LEVER = 0.06  # m, from the handle axis to the grasp point
OPENING_SIGN = -1.0  # the sense of rotation about HINGE_AXIS that opens the door
LATCH_THRESHOLD = math.radians(30.0)  # handle rotation releasing the bolt
RELEASE_ANGLE = math.radians(5.0)     # door angle releasing the snap lock
HANDLE_SPRING = 12.0  # N per rad of handle rotation
DOOR_FRICTION = FrictionModel(coulomb_mu=0.05, viscous_c=6.0)
GRASP_TOL = 0.03  # m, the gripper closes on the handle within this distance


@dataclass
class HingedDoor(TaskEnvironment):
    """Door or microwave: handle latch, snap lock, circular constraint manifolds.

    While latched the (non-microwave) constraint manifold is the circle about
    the handle axis; after release it is the circle about the hinge axis. The
    latch is a constant force field resisting door opening, disengaged by
    handle rotation beyond the threshold (door) or by the door angle exceeding
    a small release angle (microwave snap lock). Release is latching-free:
    once disengaged it stays disengaged.
    """

    hinge_pivot: tuple = (0.45, 0.25, 0.15)  # any 3-sequences
    grasp0: tuple = (0.45, -0.05, 0.15)
    handle_pivot: tuple = None  # non-microwave only
    handle_axis: tuple = None
    microwave: bool = True
    latch_force: float = 15.0
    k_e: float = 1000.0

    def __post_init__(self):
        check_range("k_e", self.k_e)
        check_range("latch_force", self.latch_force, closed=True)
        self.hinge_pivot = vec3(self.hinge_pivot)
        self.grasp0 = vec3(self.grasp0)
        if not self.microwave:
            self.handle_pivot = vec3(self.handle_pivot)
            self.handle_axis = _normalize(vec3(self.handle_axis))
            # Handle lever at the closed grasp, perpendicular to the handle axis.
            self._lever0_perp = _perp(_sub(self.grasp0, self.handle_pivot), self.handle_axis)
        # Orthonormal basis perpendicular to the hinge axis, for azimuth angles.
        rad0 = self._radial(self.grasp0)
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

    def _radial(self, p) -> tuple:
        """Component of the float point p - hinge_pivot perpendicular to the hinge axis."""
        return _perp(_sub(p, self.hinge_pivot), HINGE_AXIS)

    def _azimuth(self, p) -> float:
        rad = self._radial(p)
        return math.atan2(dot3(rad, self._e2), dot3(rad, self._e1))

    def update(self, eef_pos, gripper: float):
        """Per-tick state update at the float position eef_pos: grasp engagement,
        angles, latch hysteresis."""
        if not self.engaged:
            if gripper > 0.5 and \
                    math.sqrt(sq_norm(_sub(eef_pos, self.grasp0))) < GRASP_TOL:
                self.engaged = True
                self._az_ref = self._azimuth(eef_pos)
        elif gripper < 0.5:
            self.engaged = False
        if not self.engaged:
            return
        rel_az = self._azimuth(eef_pos) - self._az_ref
        rel_az = (rel_az + math.pi) % (2.0 * math.pi) - math.pi
        self.door_angle = max(0.0, OPENING_SIGN * rel_az)
        if not self.microwave and not self.latch_released:
            handle_axis = self.handle_axis
            lever_perp = _perp(_sub(eef_pos, self.handle_pivot), handle_axis)
            ref = self._lever0_perp
            cosv = dot3(ref, lever_perp)
            sinv = dot3(handle_axis, _cross(ref, lever_perp))
            self.handle_angle = max(0.0, math.atan2(sinv, cosv))
        if not self.latch_released:
            # Microwave snap lock yields to pulling past the release angle; the
            # door bolt disengages only through the handle rotation.
            if self.microwave:
                if self.door_angle > RELEASE_ANGLE:
                    self._release(eef_pos)
            elif self.handle_angle >= LATCH_THRESHOLD:
                self._release(eef_pos)

    def _release(self, eef_pos):
        self.latch_released = True
        self.pull_radius = math.sqrt(sq_norm(self._radial(eef_pos)))

    def _active_circle(self):
        """(center, axis, radius) of the constraint circle currently in force, as floats."""
        if not self.microwave and not self.latch_released:
            return self.handle_pivot, self.handle_axis, HANDLE_LEVER
        return self.hinge_pivot, HINGE_AXIS, self.pull_radius

    def _latched(self) -> bool:
        """Whether the latch force field acts: engaged, still latched, door opened."""
        return self.engaged and not self.latch_released and self.door_angle > 0.0

    def external_wrench(self, pos, vel) -> tuple:
        # Floats throughout, summed from +0.0 in the order of the force terms.
        if not self.engaged:
            return _ZERO3
        center, axis, radius = self._active_circle()
        rad = _perp(_sub(pos, center), axis)
        r = math.sqrt(sq_norm(rad))
        f0 = f1 = f2 = 0.0
        if r > 1e-9:
            rho = _unit(rad, r)
            f_con = -self.k_e * (r - radius)
            f0, f1, f2 = f0 + f_con * rho[0], f1 + f_con * rho[1], f2 + f_con * rho[2]
            t_hat = _cross(axis, rho)
            s = dot3(vel, t_hat)
            v_arc = (s * t_hat[0], s * t_hat[1], s * t_hat[2])
            speed = math.sqrt(sq_norm(v_arc))
            if speed > 1e-15:
                g0, g1, g2 = DOOR_FRICTION.slip_force(v_arc, speed, f_con)
                f0, f1, f2 = f0 + g0, f1 + g1, f2 + g2
        if self._latched():
            # Constant force against opening, along the hinge circle's tangent.
            # The microwave's active circle is the hinge circle; a latched
            # door's is the handle circle. On the hinge axis the tangent is
            # undefined and the latch term is left out, as the constraint
            # term is above.
            if self.microwave:
                hinge_rad, h = rad, r
            else:
                hinge_rad = self._radial(pos)
                h = math.sqrt(sq_norm(hinge_rad))
            if h > 1e-9:
                a = -self.latch_force
                sign = OPENING_SIGN
                t0, t1, t2 = _cross(HINGE_AXIS, _unit(hinge_rad, h))
                f0, f1, f2 = f0 + a * (sign * t0), f1 + a * (sign * t1), f2 + a * (sign * t2)
        if not self.microwave and not self.latch_released and self.handle_angle > 0.0 \
                and r > 1e-9:
            # Handle return spring, tangential on the handle circle, which is
            # the active circle here: its tangent is t_hat.
            k = HANDLE_SPRING * self.handle_angle
            f0, f1, f2 = f0 - k * t_hat[0], f1 - k * t_hat[1], f2 - k * t_hat[2]
        return (f0, f1, f2)


# --------------------------------------------------------------------------
# Module-level operations
# --------------------------------------------------------------------------

def update_ink(board: PlaneBoard) -> int:
    """Wipe under the eraser at every press the board recorded since the last
    call, each in the board frame of its own segment; return the cells cleaned.

    One columnwise pass over the presses: the board-plane x and y of each are
    the dot3s of to-board rows with its offset from the rest point, so they
    equal a per-press transform bit for bit. The wipes together clean the
    union of their windows, which no order of wiping changes.
    """
    presses, segments = board.presses, board.segments
    starts = [start for start, _, _ in segments] + [len(presses)]
    runs = np.diff(starts) // 3  # the presses under each segment
    frames, rotation, frame = [], None, None
    for _, _, rot in segments:
        if rot is not rotation:  # one frame per distinct rotation object
            rotation, frame = rot, _quat_matrix(rot)
        frames.append(frame)
    # axes[c, k] is the rotation matrix's entry (k, c) under each press, and
    # d each press's offset from its rest point, one row per world axis: x
    # (c = 0) and y (c = 1) sum their products as a per-press _matvec by the
    # world-to-board rows does.
    axes = np.repeat(np.array(frames).T[:2], runs, axis=2)
    rest = np.repeat(np.array([rest_point for _, rest_point, _ in segments]).T, runs, axis=1)
    d = np.fromiter(presses, float, len(presses)).reshape(-1, 3).T - rest
    x, y = (a0 * d[0] + a1 * d[1] + a2 * d[2] for a0, a1, a2 in axes)
    del presses[:]
    board.segments = [(0, board.rest_point, board.rotation)]
    return board.ink.wipe(x, y)


_X_AXIS = (1.0, 0.0, 0.0)


def apply_disturbances(env: TaskEnvironment, events, t: float):
    """Sum all events' geometry offsets; return (extra force, any_active).

    The sums run on Python floats from +0.0, in event order, as the rest
    offsets and pulse forces of the events would add up as arrays; the extra
    force is a float tuple. Tilt angles add up about the last tilt event's
    axis, so `ScenarioConfig` admits only tilt events that share one.
    """
    if not events:
        return _ZERO3, False
    o0 = o1 = o2 = 0.0
    e0 = e1 = e2 = 0.0
    tilt = 0.0
    tilt_axis = _X_AXIS
    active = False
    for ev in events:
        p = ev.profile(t)
        active = active or p > 0.0
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
    return (e0, e1, e2), active

