"""Task environments supplying external wrenches.

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

from .admittance import WrenchSample
from .errors import WrongVariant
from .geometry import (
    Pose,
    _cross,
    _unit,
    normalized,
    quat_from_axis_angle,
    quat_mul,
    quat_rotate,
    quat_to_matrix,
    sq_norm,
    unchecked,
)

# Velocity threshold regularizing Coulomb friction at 1 kHz (avoids sign chatter).
COULOMB_V_EPS = 1e-4


# The wrench of every tick without contact, shared: its arrays are read-only.
_ZERO = np.zeros(3)
_ZERO.flags.writeable = False
_NO_WRENCH = unchecked(WrenchSample, force=_ZERO, torque=_ZERO)


@dataclass
class SpringContact:
    """Linear environment spring: rest point, stiffness, outward normal."""

    k_e: float
    rest_point: np.ndarray
    surface_normal: np.ndarray

    def __post_init__(self):
        # Written so that NaN fails each test: every comparison with NaN is false.
        if not 0.0 < self.k_e < math.inf:
            raise ValueError(f"environment stiffness k_e must be finite and > 0, got {self.k_e}")
        self.rest_point = np.asarray(self.rest_point, dtype=float)
        self.surface_normal = normalized(self.surface_normal)


@dataclass(frozen=True)
class FrictionModel:
    coulomb_mu: float = 0.0
    viscous_c: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.coulomb_mu < math.inf and 0.0 <= self.viscous_c < math.inf):
            raise ValueError("friction coefficients must be finite and >= 0, got "
                             f"{self.coulomb_mu}, {self.viscous_c}")

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


_ZERO3 = (0.0, 0.0, 0.0)


def _friction(model: FrictionModel, vel: np.ndarray, normal: np.ndarray, f_n: float) -> tuple:
    """friction_force as floats; vel and normal are arrays (dot operands)."""
    d = float(vel.dot(normal))
    v0, v1, v2 = vel.tolist()
    n0, n1, n2 = normal.tolist()
    v_t = (v0 - d * n0, v1 - d * n1, v2 - d * n2)
    speed = math.sqrt(sq_norm(v_t))
    if speed < 1e-15:
        return _ZERO3
    return model.slip_force(v_t, speed, f_n)


def friction_force(model: FrictionModel, vel: np.ndarray, normal: np.ndarray, f_n: float) -> np.ndarray:
    """Tangential resistance opposing the velocity's component off the normal."""
    return np.array(_friction(model, np.asarray(vel, dtype=float),
                              np.asarray(normal, dtype=float), f_n))


def _perp(rel: np.ndarray, axis: np.ndarray) -> tuple:
    """rel - (rel . axis) axis for the unit axis, as floats."""
    a = float(rel.dot(axis))
    r0, r1, r2 = rel.tolist()
    x0, x1, x2 = axis.tolist()
    return (r0 - a * x0, r1 - a * x1, r2 - a * x2)


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
    direction: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    ramp: float = 0.0
    omega: float = 2.0 * math.pi

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        for name in ("start", "duration", "magnitude", "ramp", "omega"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.duration <= 0.0:
            raise ValueError("duration must be > 0")
        if not 0.0 <= self.ramp <= self.duration:
            raise ValueError("ramp must lie in [0, duration]")
        object.__setattr__(self, "direction", normalized(self.direction))

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
    """Boolean grid over the board extent, indexed in the board frame."""

    extent_x: float
    extent_y: float
    cell: float = CELL_SIZE

    def __post_init__(self):
        self.nx = max(1, int(round(self.extent_x / self.cell)))
        self.ny = max(1, int(round(self.extent_y / self.cell)))
        self.inked = np.zeros((self.nx, self.ny), dtype=bool)

    def cell_center(self, i: int, j: int) -> np.ndarray:
        """Cell center in board-frame xy, origin at the board center."""
        return np.array([
            (i + 0.5) * self.cell - 0.5 * self.extent_x,
            (j + 0.5) * self.cell - 0.5 * self.extent_y,
        ])

    def ink_stroke(self, points_xy: np.ndarray, pen_radius: float = 0.004) -> int:
        """Ink every cell whose center lies within pen_radius of the polyline."""
        pts = np.asarray(points_xy, dtype=float)
        cx = (np.arange(self.nx) + 0.5) * self.cell - 0.5 * self.extent_x
        cy = (np.arange(self.ny) + 0.5) * self.cell - 0.5 * self.extent_y
        centers = np.stack(np.meshgrid(cx, cy, indexing="ij"), axis=-1).reshape(-1, 2)
        dmin = np.full(len(centers), np.inf)
        if len(pts) == 1:
            dmin = np.linalg.norm(centers - pts[0], axis=1)
        for a, b in zip(pts[:-1], pts[1:]):
            ab = b - a
            den = float(ab @ ab)
            if den < 1e-18:
                d = np.linalg.norm(centers - a, axis=1)
            else:
                s = np.clip((centers - a) @ ab / den, 0.0, 1.0)
                d = np.linalg.norm(centers - (a + s[:, None] * ab), axis=1)
            dmin = np.minimum(dmin, d)
        mask = (dmin <= pen_radius).reshape(self.nx, self.ny)
        fresh = mask & ~self.inked
        self.inked |= mask
        return int(fresh.sum())

    def wipe_rect(self, center_xy: np.ndarray, half_x: float, half_y: float) -> int:
        """Clean all inked cells whose centers fall in the axis-aligned rectangle."""
        i_lo = max(0, int(math.ceil((center_xy[0] - half_x + 0.5 * self.extent_x) / self.cell - 0.5)))
        i_hi = min(self.nx, int(math.floor((center_xy[0] + half_x + 0.5 * self.extent_x) / self.cell - 0.5)) + 1)
        j_lo = max(0, int(math.ceil((center_xy[1] - half_y + 0.5 * self.extent_y) / self.cell - 0.5)))
        j_hi = min(self.ny, int(math.floor((center_xy[1] + half_y + 0.5 * self.extent_y) / self.cell - 0.5)) + 1)
        if i_lo >= i_hi or j_lo >= j_hi:
            return 0
        window = self.inked[i_lo:i_hi, j_lo:j_hi]
        count = int(np.count_nonzero(window))
        if count:
            window[:] = False
        return count

    def inked_count(self) -> int:
        return int(self.inked.sum())

    def inked_centers(self) -> np.ndarray:
        idx = np.argwhere(self.inked)
        if len(idx) == 0:
            return np.zeros((0, 2))
        return np.stack([self.cell_center(i, j) for i, j in idx])


# --------------------------------------------------------------------------
# Environments
# --------------------------------------------------------------------------

class TaskEnvironment:
    """Common interface: spring + friction + per-variant geometry."""

    variant = "base"
    spring: SpringContact
    friction: FrictionModel

    def external_wrench(self, eef: Pose, vel: np.ndarray) -> WrenchSample:
        raise NotImplementedError

    def apply_disturbance_state(self, offset: np.ndarray, tilt: float, tilt_axis: np.ndarray):
        """Default: displace the spring rest point; tilt ignored."""
        self.spring.rest_point = self._base_rest + offset


@dataclass
class PlaneBoard(TaskEnvironment):
    """Flat board with an ink grid; the outward normal faces the robot."""

    center: np.ndarray = field(default_factory=lambda: np.array([0.25, 0.0, 0.10]))
    rotation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    extent: tuple = (0.30, 0.20)
    k_e: float = 1000.0
    friction: FrictionModel = field(default_factory=lambda: FrictionModel(coulomb_mu=0.3, viscous_c=5.0))
    eraser_half_x: float = 0.01
    eraser_half_y: float = 0.01
    f_min_wipe: float = 1.0  # wiping force gate (N)

    variant = "plane_board"

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.rotation = np.asarray(self.rotation, dtype=float)
        self._base_rest = self.center.copy()
        self._base_rotation = self.rotation.copy()
        self.ink = InkGrid(self.extent[0], self.extent[1])
        self.spring = SpringContact(self.k_e, self.center.copy(), self.normal())
        self._tilt = (None, None)   # (tilt key, (rotation, normal) at that tilt)
        self._frame = (None, None)  # (rotation, its matrix transposed)

    def normal(self) -> np.ndarray:
        return quat_rotate(self.rotation, np.array([0.0, 0.0, 1.0]))

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        self.spring.rest_point = self._base_rest + offset
        # Rotation and normal are functions of the tilt alone: recompute them
        # only when it changes (every tick of a ramp, once for a held tilt).
        key = (tilt, tuple(tilt_axis.tolist())) if tilt != 0.0 else 0.0
        if key != self._tilt[0]:
            if tilt != 0.0:
                self.rotation = quat_mul(quat_from_axis_angle(tilt_axis, tilt),
                                         self._base_rotation)
            else:
                self.rotation = self._base_rotation.copy()
            self._tilt = (key, (self.rotation, self.normal()))
        self.rotation, self.spring.surface_normal = self._tilt[1]

    def to_board_frame(self, p: np.ndarray) -> np.ndarray:
        """World point to board-frame coordinates (z along the normal)."""
        if self._frame[0] is not self.rotation:
            self._frame = (self.rotation, quat_to_matrix(self.rotation).T)
        return self._frame[1] @ (np.asarray(p, dtype=float) - self.spring.rest_point)

    def external_wrench(self, eef: Pose, vel: np.ndarray) -> WrenchSample:
        nu = self.spring.surface_normal
        pen = float((self.spring.rest_point - eef.position).dot(nu))
        if pen <= 0.0:
            return _NO_WRENCH
        f_n = self.spring.k_e * pen
        n0, n1, n2 = nu.tolist()
        g0, g1, g2 = _friction(self.friction, vel, nu, f_n)
        force = np.array([f_n * n0 + g0, f_n * n1 + g1, f_n * n2 + g2])
        return unchecked(WrenchSample, force=force, torque=_ZERO)

    def normal_force(self, eef: Pose) -> float:
        pen = float((self.spring.rest_point - eef.position) @ self.spring.surface_normal)
        return self.spring.k_e * max(0.0, pen)


@dataclass
class HoleFixture(TaskEnvironment):
    """Vertical bore with compliant walls and a spring-loaded bottom."""

    rim_center: np.ndarray = field(default_factory=lambda: np.array([0.30, 0.10, 0.08]))
    axis_up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    hole_radius: float = 0.005
    clearance: float = 0.001  # lateral play before wall contact
    depth: float = 0.025
    chamfer: float = 0.004  # 45-degree entry funnel width
    k_e: float = 1000.0
    wall_stiffness: float = 20000.0
    friction: FrictionModel = field(default_factory=lambda: FrictionModel(coulomb_mu=0.2, viscous_c=2.0))

    variant = "hole_fixture"

    def __post_init__(self):
        self.rim_center = np.asarray(self.rim_center, dtype=float)
        self.axis_up = normalized(self.axis_up)
        if not 0.0 < self.depth < math.inf:
            raise ValueError(f"hole depth must be finite and > 0, got {self.depth}")
        self._base_rest = self.rim_center.copy()
        self.spring = SpringContact(self.k_e, self.bottom_center(), self.axis_up)

    def bottom_center(self) -> np.ndarray:
        return self.rim_center - self.depth * self.axis_up

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        self.rim_center = self._base_rest + offset
        self.spring.rest_point = self.bottom_center()

    def external_wrench(self, eef: Pose, vel: np.ndarray) -> WrenchSample:
        # Floats throughout, summed from +0.0 in the order of the force terms.
        rel = eef.position - self.rim_center
        d_ax = -float(rel.dot(self.axis_up))  # depth below the rim
        if d_ax <= 0.0:
            return _NO_WRENCH
        vel = np.asarray(vel, dtype=float)
        r_perp = _perp(rel, self.axis_up)
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
                spring = (self.spring.k_e * pen, self.axis_up)
        elif r <= self.hole_radius + self.chamfer:
            # 45-degree entry funnel: the reaction tilts toward the axis and
            # guides a misaligned tip into the bore.
            d_surf = self.hole_radius + self.chamfer - r
            h = math.sqrt(0.5)
            pen = (d_ax - d_surf) * h
            if pen > 0.0:
                u0, u1, u2 = self.axis_up.tolist()
                cone_n = [(u0 - p0 / r) * h, (u1 - p1 / r) * h, (u2 - p2 / r) * h]
                spring = (self.spring.k_e * pen, np.array(cone_n))
        else:
            # Landed on the top plate beside the hole.
            spring = (self.spring.k_e * d_ax, self.axis_up)
        if spring is not None:
            f_n, normal = spring
            n0, n1, n2 = normal.tolist()
            f0, f1, f2 = f0 + f_n * n0, f1 + f_n * n1, f2 + f_n * n2
            g0, g1, g2 = _friction(self.friction, vel, normal, f_n)
            f0, f1, f2 = f0 + g0, f1 + g1, f2 + g2
        return unchecked(WrenchSample, force=np.array([f0, f1, f2]), torque=_ZERO)


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

    hinge_pivot: np.ndarray = field(default_factory=lambda: np.array([0.45, 0.25, 0.15]))
    hinge_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    grasp0: np.ndarray = field(default_factory=lambda: np.array([0.45, -0.05, 0.15]))
    handle_pivot: np.ndarray = None   # non-microwave only
    handle_axis: np.ndarray = None
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

    variant = "hinged_door"

    def __post_init__(self):
        self.hinge_pivot = np.asarray(self.hinge_pivot, dtype=float)
        self.hinge_axis = normalized(self.hinge_axis)
        self.grasp0 = np.asarray(self.grasp0, dtype=float)
        if not self.microwave:
            self.handle_pivot = np.asarray(self.handle_pivot, dtype=float)
            self.handle_axis = normalized(self.handle_axis)
            # Handle lever at the closed grasp, perpendicular to the handle axis.
            self._lever0_perp = np.array(_perp(self.grasp0 - self.handle_pivot, self.handle_axis))
        self._base_rest = self.hinge_pivot.copy()
        # Orthonormal basis perpendicular to the hinge axis, for azimuth angles.
        rad0 = self._radial(self.grasp0)
        self._e1 = normalized(rad0)
        self._e2 = np.cross(self.hinge_axis, self._e1)
        self.engaged = False
        self.latch_released = False
        self.door_angle = 0.0
        self.handle_angle = 0.0
        self.max_door_angle = 0.0
        self.pull_radius = float(np.linalg.norm(rad0))
        self._az_ref = 0.0  # azimuth at grasp engagement, defines door_angle = 0
        self.spring = SpringContact(self.k_e, self.grasp0.copy(), self._e1.copy())

    def _radial(self, p: np.ndarray) -> tuple:
        """Component of p - hinge_pivot perpendicular to the hinge axis, as floats."""
        return _perp(p - self.hinge_pivot, self.hinge_axis)

    def _azimuth(self, p: np.ndarray) -> float:
        rad = np.array(self._radial(p))
        return math.atan2(float(rad.dot(self._e2)), float(rad.dot(self._e1)))

    def update(self, eef_pos: np.ndarray, gripper: float):
        """Per-tick state update: grasp engagement, angles, latch hysteresis."""
        eef_pos = np.asarray(eef_pos, dtype=float)
        if not self.engaged:
            if gripper > 0.5 and math.sqrt(sq_norm(eef_pos - self.grasp0)) < self.grasp_tol:
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
            lever_perp = _perp(eef_pos - self.handle_pivot, self.handle_axis)
            ref = self._lever0_perp
            cosv = float(ref.dot(np.array(lever_perp)))
            sinv = float(self.handle_axis.dot(np.array(_cross(ref.tolist(), lever_perp))))
            self.handle_angle = max(0.0, math.atan2(sinv, cosv))
        if not self.latch_released:
            # Microwave snap lock yields to pulling past the release angle; the
            # door bolt disengages only through the handle rotation.
            if self.microwave:
                if self.door_angle > self.release_angle:
                    self._release(eef_pos)
            elif self.handle_angle >= self.latch_threshold:
                self._release(eef_pos)

    def _release(self, eef_pos: np.ndarray):
        self.latch_released = True
        self.pull_radius = math.sqrt(sq_norm(self._radial(eef_pos)))

    def _active_circle(self):
        """(center, axis, radius) of the constraint circle currently in force."""
        if not self.microwave and not self.latch_released:
            return self.handle_pivot, self.handle_axis, self.handle_lever
        return self.hinge_pivot, self.hinge_axis, self.pull_radius

    def constraint_normal(self, p: np.ndarray) -> np.ndarray:
        """Outward radial of the active circle at point p."""
        center, axis, _ = self._active_circle()
        return normalized(_perp(np.asarray(p, dtype=float) - center, axis))

    def _latched(self) -> bool:
        """Whether the latch force field acts: engaged, still latched, door opened."""
        return self.engaged and not self.latch_released and self.door_angle > 0.0

    def _latch_force(self, rad_hat) -> tuple:
        """Latch force (floats) at the unit hinge radial rad_hat, against opening."""
        a = -self.latch_force
        s = self.opening_sign
        t0, t1, t2 = _cross(self.hinge_axis.tolist(), rad_hat)
        return (a * (s * t0), a * (s * t1), a * (s * t2))

    def latch_resistance_at(self, p: np.ndarray) -> np.ndarray:
        """Constant force field resisting door opening while latched."""
        if not self._latched():
            return np.zeros(3)
        rad = self._radial(np.asarray(p, dtype=float))
        return np.array(self._latch_force(_unit(rad, math.sqrt(sq_norm(rad)))))

    def external_wrench(self, eef: Pose, vel: np.ndarray) -> WrenchSample:
        # Floats throughout, summed from +0.0 in the order of the force terms.
        if not self.engaged:
            return _NO_WRENCH
        p = eef.position
        center, axis, radius = self._active_circle()
        rad = _perp(p - center, axis)
        r = math.sqrt(sq_norm(rad))
        f0 = f1 = f2 = 0.0
        if r > 1e-9:
            rho = _unit(rad, r)
            f_con = -self.spring.k_e * (r - radius)
            f0, f1, f2 = f0 + f_con * rho[0], f1 + f_con * rho[1], f2 + f_con * rho[2]
            t_hat = _cross(axis.tolist(), rho)
            s = float(np.asarray(vel, dtype=float).dot(np.array(t_hat)))
            v_arc = (s * t_hat[0], s * t_hat[1], s * t_hat[2])
            speed = math.sqrt(sq_norm(v_arc))
            if speed > 1e-15:
                g0, g1, g2 = self.friction.slip_force(v_arc, speed, f_con)
                f0, f1, f2 = f0 + g0, f1 + g1, f2 + g2
        if self._latched():
            # The microwave's active circle is the hinge circle, whose unit
            # radial the latch uses; a latched door's is the handle circle.
            if self.microwave:
                rad_hat = _unit(rad, r)
            else:
                hinge_rad = self._radial(p)
                rad_hat = _unit(hinge_rad, math.sqrt(sq_norm(hinge_rad)))
            g0, g1, g2 = self._latch_force(rad_hat)
            f0, f1, f2 = f0 + g0, f1 + g1, f2 + g2
        if not self.microwave and not self.latch_released and self.handle_angle > 0.0 \
                and r > 1e-9:
            # Handle return spring, tangential on the handle circle, which is
            # the active circle here: its tangent is t_hat.
            k = self.handle_spring * self.handle_angle
            f0, f1, f2 = f0 - k * t_hat[0], f1 - k * t_hat[1], f2 - k * t_hat[2]
        return unchecked(WrenchSample, force=np.array([f0, f1, f2]), torque=_ZERO)


# --------------------------------------------------------------------------
# Module-level operations (variant-checked)
# --------------------------------------------------------------------------

def update_ink(env: TaskEnvironment, eef: Pose, contact_active: bool, normal_force: float) -> int:
    """Clean cells under the eraser footprint; gated on contact and force."""
    if not isinstance(env, PlaneBoard):
        raise WrongVariant("update_ink requires a PlaneBoard")
    if not contact_active or normal_force < env.f_min_wipe:
        return 0
    local = env.to_board_frame(eef.position)
    return env.ink.wipe_rect(local[:2], env.eraser_half_x, env.eraser_half_y)


_X_AXIS = np.array([1.0, 0.0, 0.0])


def apply_disturbances(env: TaskEnvironment, events, t: float):
    """Sum all events' geometry offsets; return (extra force, any_active).

    The sums run on Python floats from +0.0, in event order, as the rest
    offsets and pulse forces of the events would add up as arrays.
    """
    if not events:
        return _ZERO, False
    offset = (0.0, 0.0, 0.0)
    extra = (0.0, 0.0, 0.0)
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
            extra = tuple(e + a * c for e, c in zip(extra, ev.direction.tolist()))
        elif p != 0.0:
            a = ev.amplitude(t, p)
            offset = tuple(o + a * c for o, c in zip(offset, ev.direction.tolist()))
    env.apply_disturbance_state(np.array(offset), tilt, tilt_axis)
    return np.array(extra), active


def insertion_depth(env: TaskEnvironment, eef: Pose) -> float:
    """Peg-tip depth below the hole rim along the axis, clamped to [0, depth], in mm."""
    if not isinstance(env, HoleFixture):
        raise WrongVariant("insertion_depth requires a HoleFixture")
    d_ax = -float((eef.position - env.rim_center) @ env.axis_up)
    return 1000.0 * min(env.depth, max(0.0, d_ax))


def remaining_ink_length(env: TaskEnvironment) -> float:
    """Inked cell count expressed as stroke length in cm."""
    if not isinstance(env, PlaneBoard):
        raise WrongVariant("remaining_ink_length requires a PlaneBoard")
    return env.ink.inked_count() * env.ink.cell * 100.0


def opening_angle(env: TaskEnvironment) -> float:
    """Current door angle about the hinge axis, in degrees."""
    if not isinstance(env, HingedDoor):
        raise WrongVariant("opening_angle requires a HingedDoor")
    return math.degrees(env.door_angle)
