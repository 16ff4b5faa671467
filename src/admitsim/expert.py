"""Privileged-state expert: phase segmentation, reference-trajectory planners,
and supervision-tuple extraction.

Plans are executed kinematically (ideal pose tracking) when generating
demonstrations; the admittance loop only enters at replay time.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .environments import HingedDoor, HoleFixture, PlaneBoard, TaskEnvironment
from .errors import (
    EmptySchedule,
    LengthMismatch,
    NoContactManifold,
    NotAligned,
    NothingToWipe,
)
from .geometry import (
    Pose,
    _add,
    _lerp,
    _matvec,
    _normalize,
    _quat_matrix,
    _rodrigues,
    _rodrigues_fixed,
    _slerp,
    _slerp_ends,
    _sub,
    _unit_quat,
    dot3,
    pose10_encode,
    quat_from_axis_angle,
    quat_mul,
    sq_norm,
)


class PhaseLabel(Enum):
    """The expert phase of a demo step; its value is the phase index a log records."""

    APPROACH = 0
    GRASP = 1
    CONTACT = 2
    RETRACT = 3

    @property
    def contact_flag(self) -> int:
        # c=1 exactly during contact interaction, by construction.
        return 1 if self is PhaseLabel.CONTACT else 0


class _SupervisionFields(NamedTuple):
    pose10: np.ndarray
    normal: np.ndarray
    contact: int


class SupervisionTuple(_SupervisionFields):
    """Per-step training target: 10-d pose/gripper, normal direction, contact flag.

    The tuples of a generated or read-back demo are views of one (n, 14)
    float64 block in the dataset's record layout: pose10 is row[:10], normal
    row[10:13], and contact, a Python int 0 or 1, is stored as row[13]. Those
    are built with the NamedTuple method `_make`; the public constructor
    coerces pose10 and normal to float arrays and rejects a contact flag
    other than 0 or 1, which the dataset format cannot hold.
    """

    __slots__ = ()

    def __new__(cls, pose10, normal, contact):
        if contact not in (0, 1):
            raise ValueError(f"contact flag must be 0 or 1, got {contact!r}")
        return super().__new__(cls, np.asarray(pose10, dtype=float),
                               np.asarray(normal, dtype=float), contact)


# Placeholder normal for out-of-contact steps; the loss masks it.
ZERO_NORMAL = (0.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# Planners
# --------------------------------------------------------------------------

def plan_free_motion(schedule: list[Pose], steps_per_segment: int) -> list[Pose]:
    """Piecewise pose interpolation through the schedule of key poses.

    One segment of s steps yields s+1 poses; later segments share their start
    pose with the previous end, contributing s poses each.
    """
    if not schedule:
        raise EmptySchedule("schedule has no key poses")
    if steps_per_segment < 1:
        raise ValueError("steps_per_segment must be >= 1")
    poses = [schedule[0]]
    for a, b in zip(schedule[:-1], schedule[1:]):
        pa, pb = a.position, b.position
        ends = _slerp_ends(a.orientation, b.orientation)
        for i in range(1, steps_per_segment + 1):
            s = i / steps_per_segment
            poses.append(Pose._make((_lerp(pa, pb, s), _unit_quat(_slerp(ends, s)))))
    return poses


def plan_insertion(hole: HoleFixture, start_height: float, step: float,
                   orientation=None,
                   align_tol: float = math.radians(5.0)) -> list[Pose]:
    """Descend along the hole axis from start_height above the bottom to the bottom."""
    orientation = (1.0, 0.0, 0.0, 0.0) if orientation is None else \
        tuple(map(float, orientation))
    # Peg axis is the tool -z direction; it must oppose the hole's up axis.
    peg_dir = _matvec(_quat_matrix(orientation), (0.0, 0.0, -1.0))
    up = hole.axis_up
    if -dot3(peg_dir, up) < math.cos(align_tol):
        raise NotAligned("peg axis deviates from the hole axis beyond tolerance")
    if step <= 0.0:
        raise ValueError("step must be > 0")
    q = _unit_quat(orientation)
    bottom = b0, b1, b2 = hole.bottom_center()
    u0, u1, u2 = up
    n_steps = int(math.ceil(start_height / step - 1e-12)) if start_height > 0 else 0
    positions = []
    for i in range(n_steps + 1):
        h = max(0.0, start_height - i * step)
        positions.append((b0 + h * u0, b1 + h * u1, b2 + h * u2))
    if math.sqrt(sq_norm(_sub(positions[-1], bottom))) > 1e-12:
        positions.append(bottom)
    return [Pose._make((p, q)) for p in positions]


def plan_wiping(board: PlaneBoard, step_len: float = 0.015, lane_overlap: float = 0.5,
                press_depth: float | None = None, margin: float = 0.025,
                passes: int = 1) -> list[Pose]:
    """Boustrophedon sweep over the bounding box of the inked cells.

    Lanes run along the board-frame x axis with pitch (1 - lane_overlap) times
    the eraser footprint width; the eraser orientation aligns with the surface
    normal. Waypoints sit press_depth below the surface so that ideal tracking
    produces contact force k_e * press_depth. The sweep repeats `passes` times
    (>= 1).
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    centers = board.ink.inked_centers()
    if len(centers) == 0:
        raise NothingToWipe("board has no inked cells")
    if press_depth is None:
        press_depth = 0.004
    fw = 2.0 * board.eraser_half_y
    pitch = (1.0 - lane_overlap) * fw
    x_lo = float(centers[:, 0].min()) - margin
    x_hi = float(centers[:, 0].max()) + margin
    y_lo = float(centers[:, 1].min())
    y_hi = float(centers[:, 1].max())
    # First and last lanes sit directly on the extreme inked rows, so edge
    # cells are covered from above rather than by the footprint boundary.
    lanes = [y_lo]
    while lanes[-1] < y_hi - 1e-12:
        lanes.append(min(lanes[-1] + pitch, y_hi))
    R = _quat_matrix(board.rotation)
    q = _unit_quat(board.rotation)  # eraser frame aligned with the board surface
    rest = board.spring.rest_point

    poses: list[Pose] = []
    for _ in range(passes):
        for li, y in enumerate(lanes):
            xs = _lane_waypoints(x_lo, x_hi, step_len)
            if li % 2 == 1:
                xs = xs[::-1]
            for x in xs:
                poses.append(Pose._make((_add(rest, _matvec(R, (x, y, -press_depth))), q)))
    return poses


def _lane_waypoints(x_lo: float, x_hi: float, step_len: float) -> list[float]:
    n = max(1, int(math.ceil((x_hi - x_lo) / step_len)))
    return [x_lo + (x_hi - x_lo) * i / n for i in range(n + 1)]


def plan_articulated(door: HingedDoor, target_angle: float, step: float,
                     grasp_pose: Pose | None = None,
                     turn_angle: float | None = None) -> list[Pose]:
    """Circular arcs about the ground-truth joint axes, orientation co-rotating.

    Microwave: a single arc about the hinge. Door: a handle-turn arc (to
    turn_angle, default twice the latch threshold) followed by the hinge arc,
    encoding the turn-then-pull sequence.
    """
    if grasp_pose is None:
        grasp_pose = Pose(door.grasp0, (1.0, 0.0, 0.0, 0.0))
    if step <= 0.0:
        raise ValueError("step must be > 0")
    poses: list[Pose] = []
    start = grasp_pose
    if not door.microwave:
        if turn_angle is None:
            turn_angle = 2.0 * door.latch_threshold
        poses.extend(_arc(start, door.handle_axis, door.handle_pivot, turn_angle, step))
        start = poses[-1]
        pull = _arc(start, door.hinge_axis, door.hinge_pivot,
                    target_angle, step, sign=door.opening_sign)
        poses.extend(pull[1:])  # junction pose already emitted
    else:
        poses.extend(_arc(start, door.hinge_axis, door.hinge_pivot,
                          target_angle, step, sign=door.opening_sign))
    return poses


def _arc(start: Pose, axis, pivot, total: float, step: float,
         sign: float = 1.0) -> list[Pose]:
    """`start` turned about the line through pivot along the unit axis (float
    3-sequences), co-rotating, by sign * min(total, i * step) for
    i = 0 .. ceil(total / step)."""
    n = int(math.ceil(total / step - 1e-12)) if total > 0 else 0
    turn = _rodrigues_fixed(start.position, axis, pivot)
    q0 = start.orientation
    out = []
    for i in range(n + 1):
        ang = sign * min(total, i * step)
        q = quat_mul(quat_from_axis_angle(axis, ang), q0)
        out.append(Pose._make((_rodrigues(turn, ang), _unit_quat(q))))
    return out


# --------------------------------------------------------------------------
# Contact-manifold normals and supervision extraction
# --------------------------------------------------------------------------

def manifold_normal(env: TaskEnvironment, eef: Pose) -> tuple:
    """Outward constraint normal at the end-effector, as floats.

    This is the direction of the contact force the environment exerts on the
    robot; the controller presses along its negative.
    """
    if isinstance(env, PlaneBoard):
        return env.spring.surface_normal
    if isinstance(env, HoleFixture):
        return env.axis_up
    if isinstance(env, HingedDoor):
        return env.constraint_normal(eef.position)
    raise NoContactManifold(f"no manifold for environment {type(env).__name__}")


def extract_supervision(poses: list[Pose], phases: list[PhaseLabel], grippers: list[float],
                        env: TaskEnvironment, normals: list | None = None
                        ) -> list[SupervisionTuple]:
    """Shifted supervision: tuple[t] = (pose[t+1], normal at t+1, contact[t]).

    The gripper command in the 10-vector is the expert command at time t.
    When `normals` is given (door tasks, where the manifold depends on plan
    progression) it supplies the per-pose normals, float 3-sequences, instead
    of manifold_normal. The tuples are row views of one (n, 14) record block.
    """
    if not (len(poses) == len(phases) == len(grippers)):
        raise LengthMismatch("poses, phases, grippers must have equal lengths")
    if normals is not None and len(normals) != len(poses):
        raise LengthMismatch("normals length must match poses")
    if len(poses) < 2:
        raise LengthMismatch("need at least two steps to extract supervision")
    contacts = [ph.contact_flag for ph in phases[:-1]]
    fixed = None  # the board's and the bore's manifold normal is the same at every pose
    rows = []
    for t, c in enumerate(contacts):
        if c == 1:
            if normals is not None:
                n = normals[t + 1]
                if sq_norm(n) < 0.25:
                    n = normals[t]  # contact ends at t+1: keep the incoming manifold
                n = _normalize(n)
            elif isinstance(env, HingedDoor):
                n = _normalize(manifold_normal(env, poses[t + 1]))
            else:
                if fixed is None:
                    fixed = _normalize(manifold_normal(env, poses[t + 1]))
                n = fixed
        else:
            n = ZERO_NORMAL
        rows.append((*pose10_encode(poses[t + 1], grippers[t]), *n, float(c)))
    block = np.array(rows)
    return list(map(SupervisionTuple._make, zip(block[:, :10], block[:, 10:13], contacts)))
