"""Task environments supplying the external force on the end-effector.

Three variants: a plane board with an ink grid (wiping), a hole fixture with a
bottom spring and compliant walls (insertion), and a hinged door with a latch
force field (articulated opening). All contact is single-point: a unilateral
linear spring along the surface normal plus regularized Coulomb/viscous
friction in the tangent plane.

Sign convention: `surface_normal` points out of the environment toward free
space, so contact forces on the end-effector have a non-negative component
along it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

# Velocity threshold regularizing Coulomb friction at 1 kHz (avoids sign chatter).
COULOMB_V_EPS = 1e-4


_ZERO3 = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class FrictionModel:
    coulomb_mu: float = 0.0
    viscous_c: float = 0.0

    def __post_init__(self):
        check_range("coulomb_mu", self.coulomb_mu, closed=True)
        check_range("viscous_c", self.viscous_c, closed=True)

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


@dataclass
class InkGrid:
    """Boolean grid over the board extent, indexed in the board frame.

    The grid keeps a half-open index box (i_lo, i_hi, j_lo, j_hi) that holds
    every inked cell, so that a wipe away from the ink costs no numpy call.
    The box is the whole grid until `ink_stroke` or a wipe that cleans cells
    recomputes it from `inked`. It also remembers the last window a wipe
    found or left clean, so that wiping it again costs no numpy call either;
    `refresh_box` forgets it. So every direct write to `inked` is followed by
    `refresh_box`.
    """

    extent_x: float
    extent_y: float
    cell: float = CELL_SIZE

    def __post_init__(self):
        self.nx = max(1, int(round(self.extent_x / self.cell)))
        self.ny = max(1, int(round(self.extent_y / self.cell)))
        self.inked = np.zeros((self.nx, self.ny), dtype=bool)
        # The board-frame origin's offsets in the index formulas of wipe_rect.
        self._x0 = 0.5 * self.extent_x
        self._y0 = 0.5 * self.extent_y
        self.box = (0, self.nx, 0, self.ny)
        self._clean = None  # the last window wiped clean, as (i_lo, i_hi, j_lo, j_hi)

    def refresh_box(self):
        """Recompute `box` from `inked`: the tightest box, empty when no cell is
        inked. Forgets the window last wiped clean."""
        self._clean = None
        rows = np.flatnonzero(self.inked.any(axis=1))
        if len(rows) == 0:
            self.box = (0, 0, 0, 0)
            return
        cols = np.flatnonzero(self.inked.any(axis=0))
        self.box = (int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1)

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
            reach = pen_radius + self.cell
            lo = (pts.min(axis=0) - reach + (self._x0, self._y0)) / self.cell - 0.5
            hi = (pts.max(axis=0) + reach + (self._x0, self._y0)) / self.cell - 0.5
            i_lo, j_lo = max(0, math.floor(lo[0])), max(0, math.floor(lo[1]))
            i_hi = min(self.nx, math.ceil(hi[0]) + 1)
            j_hi = min(self.ny, math.ceil(hi[1]) + 1)
            if i_lo < i_hi and j_lo < j_hi:
                mask[i_lo:i_hi, j_lo:j_hi] = self._near(pts, pen_radius, i_lo, i_hi, j_lo, j_hi)
        fresh = mask & ~self.inked
        self.inked |= mask
        self.refresh_box()
        return int(fresh.sum())

    def _near(self, pts, pen_radius, i_lo, i_hi, j_lo, j_hi) -> np.ndarray:
        """Whether each cell of the index box lies within pen_radius of the polyline."""
        cx = (np.arange(i_lo, i_hi) + 0.5) * self.cell - 0.5 * self.extent_x
        cy = (np.arange(j_lo, j_hi) + 0.5) * self.cell - 0.5 * self.extent_y
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

    def wipe_rect(self, center_xy, half_x: float, half_y: float) -> int:
        """Clean all inked cells whose centers fall in the axis-aligned rectangle.

        center_xy is any sequence whose first two items are the board-frame x, y.
        """
        cell = self.cell
        box_ilo, box_ihi, box_jlo, box_jhi = self.box
        x = center_xy[0]
        i_lo = max(box_ilo, math.ceil((x - half_x + self._x0) / cell - 0.5))
        i_hi = min(box_ihi, math.floor((x + half_x + self._x0) / cell - 0.5) + 1)
        if i_lo >= i_hi:
            return 0
        y = center_xy[1]
        j_lo = max(box_jlo, math.ceil((y - half_y + self._y0) / cell - 0.5))
        j_hi = min(box_jhi, math.floor((y + half_y + self._y0) / cell - 0.5) + 1)
        if j_lo >= j_hi:
            return 0
        key = (i_lo, i_hi, j_lo, j_hi)
        if key == self._clean:
            return 0
        window = self.inked[i_lo:i_hi, j_lo:j_hi]
        count = int(np.count_nonzero(window))
        if count:
            window[:] = False
            self.refresh_box()
        self._clean = key
        return count

    def inked_count(self) -> int:
        return int(self.inked.sum())

    def inked_centers(self) -> np.ndarray:
        """Board-frame xy centers of the inked cells, one row each, origin at the board center."""
        i, j = np.nonzero(self.inked)
        return np.column_stack([(i + 0.5) * self.cell - 0.5 * self.extent_x,
                                (j + 0.5) * self.cell - 0.5 * self.extent_y])


# --------------------------------------------------------------------------
# Environments
# --------------------------------------------------------------------------

class TaskEnvironment:
    """Common interface: contact stiffness k_e, friction and per-variant geometry.

    The per-tick methods take the end-effector position and velocity as float
    3-sequences and return float tuples. Every geometry parameter is a float
    tuple, coerced once by the constructor.
    """

    k_e: float
    friction: FrictionModel

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


@dataclass
class PlaneBoard(TaskEnvironment):
    """Flat board with an ink grid; the outward normal faces the robot.

    The contact's `rest_point` and unit `surface_normal` start at the center
    and the board's +z axis; disturbances move and tilt them.
    """

    center: tuple = (0.25, 0.0, 0.10)  # any 3-sequence
    rotation: tuple = (1.0, 0.0, 0.0, 0.0)  # any 4-sequence, wxyz
    extent: tuple = (0.30, 0.20)
    k_e: float = 1000.0
    friction: FrictionModel = field(default_factory=lambda: FrictionModel(coulomb_mu=0.3, viscous_c=5.0))
    eraser_half_x: float = 0.01
    eraser_half_y: float = 0.01
    f_min_wipe: float = 1.0  # wiping force gate (N)

    def __post_init__(self):
        check_range("eraser_half_x", self.eraser_half_x)
        check_range("eraser_half_y", self.eraser_half_y)
        check_range("f_min_wipe", self.f_min_wipe, closed=True)
        self.center = vec3(self.center)
        self.rotation = self._base_rotation = tuple(map(float, self.rotation))
        self.ink = InkGrid(self.extent[0], self.extent[1])
        check_range("k_e", self.k_e)
        self.rest_point = self.center
        n = self.normal()
        self.surface_normal = _unit(n, math.sqrt(sq_norm(n)))
        # (tilt key, (rotation, normal) at that tilt). Zero tilt restores the
        # board as built, with its unit normal.
        self._untilted = (0.0, (self.rotation, self.surface_normal))
        self._tilt = self._untilted
        self._frame = (None, None)  # (rotation, _frame_rows() at that rotation)

    def normal(self) -> tuple:
        """The board's +z axis in the world, as floats."""
        return _matvec(_quat_matrix(self.rotation), (0.0, 0.0, 1.0))

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        self.rest_point = _add(self.center, offset)
        # Rotation and normal are functions of the tilt alone: recompute them
        # only when it changes (every tick of a ramp, once for a held tilt).
        key = (tilt, tilt_axis) if tilt != 0.0 else 0.0
        if key != self._tilt[0]:
            if tilt != 0.0:
                self.rotation = quat_mul(quat_from_axis_angle(tilt_axis, tilt),
                                         self._base_rotation)
                self._tilt = (key, (self.rotation, self.normal()))
            else:
                self._tilt = self._untilted
        self.rotation, self.surface_normal = self._tilt[1]

    def _frame_rows(self) -> tuple:
        """The rows of the world-to-board rotation (the board axes in the world),
        cached until the rotation changes."""
        rotation, rows = self._frame
        if rotation is not self.rotation:
            rows = tuple(zip(*_quat_matrix(self.rotation)))
            self._frame = (self.rotation, rows)
        return rows

    def to_board_frame(self, p) -> tuple:
        """World point (a float 3-sequence) to board-frame coordinates (z along the normal)."""
        return _matvec(self._frame_rows(), _sub(p, self.rest_point))

    def external_wrench(self, pos, vel) -> tuple:
        nu = self.surface_normal
        pen = dot3(_sub(self.rest_point, pos), nu)
        if pen <= 0.0:
            return _ZERO3
        f_n = self.k_e * pen
        n0, n1, n2 = nu
        g0, g1, g2 = _friction(self.friction, vel, nu, f_n)
        return (f_n * n0 + g0, f_n * n1 + g1, f_n * n2 + g2)

    def measure(self, x_r) -> float:
        """Ink left on the board, as stroke length in cm."""
        return self.ink.inked_count() * self.ink.cell * 100.0


@dataclass
class HoleFixture(TaskEnvironment):
    """Vertical bore with compliant walls and a spring-loaded bottom.

    Disturbances move the rim center; the axis is fixed and held unit.
    """

    rim_center: tuple = (0.30, 0.10, 0.08)  # any 3-sequence
    axis_up: tuple = (0.0, 0.0, 1.0)  # any 3-sequence
    hole_radius: float = 0.005
    clearance: float = 0.001  # lateral play before wall contact
    depth: float = 0.025
    chamfer: float = 0.004  # 45-degree entry funnel width
    k_e: float = 1000.0
    wall_stiffness: float = 20000.0
    friction: FrictionModel = field(default_factory=lambda: FrictionModel(coulomb_mu=0.2, viscous_c=2.0))

    def __post_init__(self):
        self.rim_center = vec3(self.rim_center)
        self.axis_up = _normalize(vec3(self.axis_up))
        for name in ("depth", "hole_radius", "wall_stiffness", "k_e"):
            check_range(name, getattr(self, name))
        check_range("clearance", self.clearance, closed=True)
        check_range("chamfer", self.chamfer, closed=True)
        self._base_rest = self.rim_center

    def bottom_center(self) -> tuple:
        r0, r1, r2 = self.rim_center
        a0, a1, a2 = self.axis_up
        d = self.depth
        return (r0 - d * a0, r1 - d * a1, r2 - d * a2)

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        self.rim_center = _add(self._base_rest, offset)

    def measure(self, x_r) -> float:
        """Depth of the peg tip at x_r below the rim along the axis, clamped to
        [0, depth], in mm."""
        d_ax = -dot3(_sub(x_r, self.rim_center), self.axis_up)
        return 1000.0 * min(self.depth, max(0.0, d_ax))

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
        if r <= self.hole_radius:
            # Inside the bore: compliant wall beyond the clearance.
            if r > self.clearance:
                w = self.wall_stiffness * (r - self.clearance)
                f0, f1, f2 = f0 - w * (p0 / r), f1 - w * (p1 / r), f2 - w * (p2 / r)
            pen = d_ax - self.depth
            if pen > 0.0:
                spring = (self.k_e * pen, axis_up)
        elif r <= self.hole_radius + self.chamfer:
            # 45-degree entry funnel: the reaction tilts toward the axis and
            # guides a misaligned tip into the bore.
            d_surf = self.hole_radius + self.chamfer - r
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
            g0, g1, g2 = _friction(self.friction, vel, normal, f_n)
            f0, f1, f2 = f0 + g0, f1 + g1, f2 + g2
        return (f0, f1, f2)


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
    hinge_axis: tuple = (0.0, 0.0, 1.0)
    grasp0: tuple = (0.45, -0.05, 0.15)
    handle_pivot: tuple = None  # non-microwave only
    handle_axis: tuple = None
    handle_lever: float = 0.06
    microwave: bool = True
    opening_sign: float = -1.0
    latch_threshold: float = math.radians(30.0)  # handle rotation releasing the bolt
    release_angle: float = math.radians(5.0)     # door angle releasing the snap lock
    latch_force: float = 15.0
    handle_spring: float = 12.0  # N per rad of handle rotation
    k_e: float = 1000.0
    friction: FrictionModel = field(default_factory=lambda: FrictionModel(coulomb_mu=0.05, viscous_c=6.0))
    grasp_tol: float = 0.03

    def __post_init__(self):
        for name in ("handle_lever", "grasp_tol", "k_e"):
            check_range(name, getattr(self, name))
        for name in ("latch_force", "handle_spring", "latch_threshold", "release_angle"):
            check_range(name, getattr(self, name), closed=True)
        self.hinge_pivot = vec3(self.hinge_pivot)
        self.hinge_axis = _normalize(vec3(self.hinge_axis))
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
        self._e2 = _cross(self.hinge_axis, self._e1)
        self.engaged = False
        self.latch_released = False
        self.door_angle = 0.0
        self.handle_angle = 0.0
        self.max_door_angle = 0.0
        self._az_ref = 0.0  # azimuth at grasp engagement, defines door_angle = 0

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        """No-op: a door takes force pulses only, which move no geometry."""

    def measure(self, x_r) -> float:
        """Current door angle about the hinge axis, in degrees."""
        return math.degrees(self.door_angle)

    def _radial(self, p) -> tuple:
        """Component of the float point p - hinge_pivot perpendicular to the hinge axis."""
        return _perp(_sub(p, self.hinge_pivot), self.hinge_axis)

    def _azimuth(self, p) -> float:
        rad = self._radial(p)
        return math.atan2(dot3(rad, self._e2), dot3(rad, self._e1))

    def update(self, eef_pos, gripper: float):
        """Per-tick state update at the float position eef_pos: grasp engagement,
        angles, latch hysteresis."""
        if not self.engaged:
            if gripper > 0.5 and \
                    math.sqrt(sq_norm(_sub(eef_pos, self.grasp0))) < self.grasp_tol:
                self.engaged = True
                self._az_ref = self._azimuth(eef_pos)
        elif gripper < 0.5:
            self.engaged = False
        if not self.engaged:
            return
        rel_az = self._azimuth(eef_pos) - self._az_ref
        rel_az = (rel_az + math.pi) % (2.0 * math.pi) - math.pi
        self.door_angle = max(0.0, self.opening_sign * rel_az)
        self.max_door_angle = max(self.max_door_angle, self.door_angle)
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
                if self.door_angle > self.release_angle:
                    self._release(eef_pos)
            elif self.handle_angle >= self.latch_threshold:
                self._release(eef_pos)

    def _release(self, eef_pos):
        self.latch_released = True
        self.pull_radius = math.sqrt(sq_norm(self._radial(eef_pos)))

    def _active_circle(self):
        """(center, axis, radius) of the constraint circle currently in force, as floats."""
        if not self.microwave and not self.latch_released:
            return self.handle_pivot, self.handle_axis, self.handle_lever
        return self.hinge_pivot, self.hinge_axis, self.pull_radius

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
                g0, g1, g2 = self.friction.slip_force(v_arc, speed, f_con)
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
                sign = self.opening_sign
                t0, t1, t2 = _cross(self.hinge_axis, _unit(hinge_rad, h))
                f0, f1, f2 = f0 + a * (sign * t0), f1 + a * (sign * t1), f2 + a * (sign * t2)
        if not self.microwave and not self.latch_released and self.handle_angle > 0.0 \
                and r > 1e-9:
            # Handle return spring, tangential on the handle circle, which is
            # the active circle here: its tangent is t_hat.
            k = self.handle_spring * self.handle_angle
            f0, f1, f2 = f0 - k * t_hat[0], f1 - k * t_hat[1], f2 - k * t_hat[2]
        return (f0, f1, f2)


# --------------------------------------------------------------------------
# Module-level operations
# --------------------------------------------------------------------------

def update_ink(env: PlaneBoard, position, normal_force: float) -> int:
    """Clean cells under the eraser footprint at the end-effector position (a
    float 3-sequence); gated on the normal contact force. A board without ink
    left costs no transform."""
    if normal_force < env.f_min_wipe:
        return 0
    ink = env.ink
    i_lo, i_hi, _, _ = ink.box
    if i_lo >= i_hi:  # no ink left
        return 0
    # The board-plane (x, y) of to_board_frame: wipe_rect reads no z.
    r0, r1, _ = env._frame_rows()
    d = _sub(position, env.rest_point)
    return ink.wipe_rect((dot3(r0, d), dot3(r1, d)), env.eraser_half_x, env.eraser_half_y)


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

