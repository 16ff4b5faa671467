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
        if self.k_e <= 0.0:
            raise ValueError("environment stiffness k_e must be > 0")
        self.rest_point = np.asarray(self.rest_point, dtype=float)
        self.surface_normal = normalized(self.surface_normal)


@dataclass(frozen=True)
class FrictionModel:
    coulomb_mu: float = 0.0
    viscous_c: float = 0.0

    def __post_init__(self):
        if self.coulomb_mu < 0.0 or self.viscous_c < 0.0:
            raise ValueError("friction coefficients must be >= 0")


def friction_force(model: FrictionModel, vel: np.ndarray, normal: np.ndarray, f_n: float) -> np.ndarray:
    """Tangential resistance opposing the tangential velocity.

    Coulomb magnitude is ramped linearly below COULOMB_V_EPS so it vanishes
    at zero slip speed.
    """
    v_t = vel - float(vel.dot(normal)) * normal
    speed = math.sqrt(sq_norm(v_t))
    if speed < 1e-15:
        return np.zeros(3)
    coulomb = model.coulomb_mu * abs(f_n) * min(1.0, speed / COULOMB_V_EPS)
    return -(coulomb / speed) * v_t - model.viscous_c * v_t


# --------------------------------------------------------------------------
# Disturbances
# --------------------------------------------------------------------------

PERSISTENT_KINDS = ("raise", "lower", "shift", "tilt")
WINDOWED_KINDS = ("force_pulse", "sinusoid")
DISTURBANCE_KINDS = PERSISTENT_KINDS + WINDOWED_KINDS
OFFSET_KINDS = ("raise", "lower", "shift", "sinusoid")


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

    def rest_offset(self, t: float) -> np.ndarray:
        p = self.profile(t)
        if p == 0.0 or self.kind not in OFFSET_KINDS:
            return np.zeros(3)
        return self.amplitude(t, p) * self.direction

    def tilt_angle(self, t: float) -> float:
        if self.kind != "tilt":
            return 0.0
        return self.amplitude(t, self.profile(t))

    def pulse_force(self, t: float) -> np.ndarray:
        if self.kind != "force_pulse":
            return np.zeros(3)
        return self.amplitude(t, self.profile(t)) * self.direction

    def active(self, t: float) -> bool:
        return self.profile(t) > 0.0


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
        force = f_n * nu + friction_force(self.friction, vel, nu, f_n)
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
        if self.depth <= 0.0:
            raise ValueError("hole depth must be > 0")
        self._base_rest = self.rim_center.copy()
        self.spring = SpringContact(self.k_e, self.bottom_center(), self.axis_up)

    def bottom_center(self) -> np.ndarray:
        return self.rim_center - self.depth * self.axis_up

    def apply_disturbance_state(self, offset, tilt, tilt_axis):
        self.rim_center = self._base_rest + offset
        self.spring.rest_point = self.bottom_center()

    def external_wrench(self, eef: Pose, vel: np.ndarray) -> WrenchSample:
        tip = eef.position
        vel = np.asarray(vel, dtype=float)
        rel = tip - self.rim_center
        d_ax = -float(rel @ self.axis_up)  # depth below the rim
        r_perp = rel - float(rel @ self.axis_up) * self.axis_up
        r = float(np.linalg.norm(r_perp))
        force = np.zeros(3)
        if d_ax <= 0.0:
            return _NO_WRENCH
        if r <= self.hole_radius:
            # Inside the bore: compliant wall beyond the clearance.
            if r > self.clearance:
                w = self.wall_stiffness * (r - self.clearance)
                force -= w * (r_perp / r)
            pen = d_ax - self.depth
            if pen > 0.0:
                f_bottom = self.spring.k_e * pen
                force += f_bottom * self.axis_up
                force += friction_force(self.friction, vel, self.axis_up, f_bottom)
        elif r <= self.hole_radius + self.chamfer:
            # 45-degree entry funnel: the reaction tilts toward the axis and
            # guides a misaligned tip into the bore.
            rho = r_perp / r
            d_surf = self.hole_radius + self.chamfer - r
            pen = (d_ax - d_surf) * math.sqrt(0.5)
            if pen > 0.0:
                cone_n = (self.axis_up - rho) * math.sqrt(0.5)
                f_cone = self.spring.k_e * pen
                force += f_cone * cone_n
                force += friction_force(self.friction, vel, cone_n, f_cone)
        else:
            # Landed on the top plate beside the hole.
            f_plate = self.spring.k_e * d_ax
            force += f_plate * self.axis_up
            force += friction_force(self.friction, vel, self.axis_up, f_plate)
        return unchecked(WrenchSample, force=force, torque=_ZERO)


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
            self._lever0 = self.grasp0 - self.handle_pivot
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

    def _radial(self, p: np.ndarray) -> np.ndarray:
        rel = p - self.hinge_pivot
        return rel - float(rel @ self.hinge_axis) * self.hinge_axis

    def _azimuth(self, p: np.ndarray) -> float:
        rad = self._radial(p)
        return math.atan2(float(rad @ self._e2), float(rad @ self._e1))

    def update(self, eef_pos: np.ndarray, gripper: float):
        """Per-tick state update: grasp engagement, angles, latch hysteresis."""
        eef_pos = np.asarray(eef_pos, dtype=float)
        if not self.engaged:
            if gripper > 0.5 and float(np.linalg.norm(eef_pos - self.grasp0)) < self.grasp_tol:
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
            lever = eef_pos - self.handle_pivot
            lever_perp = lever - float(lever @ self.handle_axis) * self.handle_axis
            ref = self._lever0 - float(self._lever0 @ self.handle_axis) * self.handle_axis
            cosv = float(lever_perp @ ref)
            sinv = float(self.handle_axis @ np.cross(ref, lever_perp))
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
        self.pull_radius = float(np.linalg.norm(self._radial(eef_pos)))

    def _active_circle(self):
        """(center, axis, radius) of the constraint circle currently in force."""
        if not self.microwave and not self.latch_released:
            return self.handle_pivot, self.handle_axis, self.handle_lever
        return self.hinge_pivot, self.hinge_axis, self.pull_radius

    def constraint_normal(self, p: np.ndarray) -> np.ndarray:
        """Outward radial of the active circle at point p."""
        center, axis, _ = self._active_circle()
        rel = np.asarray(p, dtype=float) - center
        rad = rel - float(rel @ axis) * axis
        return normalized(rad)

    def latch_resistance_at(self, p: np.ndarray) -> np.ndarray:
        """Constant force field resisting door opening while latched."""
        if self.latch_released or not self.engaged:
            return np.zeros(3)
        if self.door_angle <= 0.0:
            return np.zeros(3)
        rad = self._radial(p)
        t_open = self.opening_sign * np.cross(self.hinge_axis, normalized(rad))
        return -self.latch_force * t_open

    def external_wrench(self, eef: Pose, vel: np.ndarray) -> WrenchSample:
        if not self.engaged:
            return _NO_WRENCH
        p = eef.position
        vel = np.asarray(vel, dtype=float)
        center, axis, radius = self._active_circle()
        rel = p - center
        rad = rel - float(rel @ axis) * axis
        r = float(np.linalg.norm(rad))
        force = np.zeros(3)
        f_con = 0.0
        if r > 1e-9:
            rho = rad / r
            f_con = -self.spring.k_e * (r - radius)
            force += f_con * rho
            t_hat = np.cross(axis, rho)
            v_arc = float(vel @ t_hat) * t_hat
            speed = float(np.linalg.norm(v_arc))
            if speed > 1e-15:
                coulomb = self.friction.coulomb_mu * abs(f_con) * min(1.0, speed / COULOMB_V_EPS)
                force += -(coulomb / speed) * v_arc - self.friction.viscous_c * v_arc
        force += self.latch_resistance_at(p)
        if not self.microwave and not self.latch_released and self.handle_angle > 0.0:
            # Handle return spring, tangential on the handle circle.
            lev = p - self.handle_pivot
            lev_perp = lev - float(lev @ self.handle_axis) * self.handle_axis
            if float(np.linalg.norm(lev_perp)) > 1e-9:
                t_handle = np.cross(self.handle_axis, normalized(lev_perp))
                force -= self.handle_spring * self.handle_angle * t_handle
        return unchecked(WrenchSample, force=force, torque=_ZERO)


# --------------------------------------------------------------------------
# Module-level operations (variant-checked)
# --------------------------------------------------------------------------

def external_wrench(env: TaskEnvironment, eef: Pose, vel: np.ndarray) -> WrenchSample:
    return env.external_wrench(eef, vel)


def latch_resistance(env: TaskEnvironment, handle_angle: float, door_angle: float) -> np.ndarray:
    """Latch force field magnitude/direction for the given joint angles."""
    if not isinstance(env, HingedDoor):
        raise WrongVariant("latch_resistance requires a HingedDoor")
    if env.latch_released:
        return np.zeros(3)
    if env.microwave:
        released = door_angle > env.release_angle
    else:
        released = handle_angle >= env.latch_threshold
    if released:
        return np.zeros(3)
    rad = env._radial(env.grasp0)
    t_open = env.opening_sign * np.cross(env.hinge_axis, normalized(rad))
    return -env.latch_force * t_open


def update_ink(env: TaskEnvironment, eef: Pose, contact_active: bool, normal_force: float) -> int:
    """Clean cells under the eraser footprint; gated on contact and force."""
    if not isinstance(env, PlaneBoard):
        raise WrongVariant("update_ink requires a PlaneBoard")
    if not contact_active or normal_force < env.f_min_wipe:
        return 0
    local = env.to_board_frame(eef.position)
    return env.ink.wipe_rect(local[:2], env.eraser_half_x, env.eraser_half_y)


def apply_disturbance(env: TaskEnvironment, ev: DisturbanceEvent, t: float) -> TaskEnvironment:
    """Displace environment geometry per a single event's profile at time t."""
    env.apply_disturbance_state(ev.rest_offset(t), ev.tilt_angle(t), ev.direction)
    return env


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
