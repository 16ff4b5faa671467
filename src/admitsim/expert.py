"""Privileged-state expert: phase segmentation, reference-trajectory planners,
and supervision-tuple extraction.

Plans are executed kinematically (ideal pose tracking) when generating
demonstrations; the admittance loop only enters at replay time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
    _matvec,
    _quat_matrix,
    dot3,
    interpolate_pose,
    normalized,
    pose10_decode,
    pose10_encode,
    quat_from_axis_angle,
    quat_mul,
    quat_rotate,
    rodrigues_rotate,
    sq_norm,
)


class PhaseLabel(Enum):
    APPROACH = 0
    GRASP = 1
    CONTACT = 2
    RETRACT = 3


@dataclass(frozen=True)
class FsmPhase:
    label: PhaseLabel

    @property
    def contact_flag(self) -> int:
        # c=1 exactly during contact interaction, by construction.
        return 1 if self.label is PhaseLabel.CONTACT else 0


@dataclass(frozen=True)
class KeyPose:
    pose: Pose
    gripper: float
    label: PhaseLabel


@dataclass(frozen=True)
class SupervisionTuple:
    """Per-step training target: 10-d pose/gripper, normal direction, contact flag."""

    pose10: np.ndarray
    normal: np.ndarray
    contact: int

    def __post_init__(self):
        object.__setattr__(self, "pose10", np.asarray(self.pose10, dtype=float))
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))

    def decode_pose(self) -> tuple[Pose, float]:
        return pose10_decode(self.pose10)


# Placeholder normal for out-of-contact steps; the loss masks it.
ZERO_NORMAL = np.zeros(3)


# --------------------------------------------------------------------------
# Planners
# --------------------------------------------------------------------------

def plan_free_motion(schedule: list[KeyPose], steps_per_segment: int) -> list[Pose]:
    """Piecewise pose interpolation through the key-pose schedule.

    One segment of s steps yields s+1 poses; later segments share their start
    pose with the previous end, contributing s poses each.
    """
    if not schedule:
        raise EmptySchedule("schedule has no key poses")
    if steps_per_segment < 1:
        raise ValueError("steps_per_segment must be >= 1")
    poses = [schedule[0].pose]
    for a, b in zip(schedule[:-1], schedule[1:]):
        for i in range(1, steps_per_segment + 1):
            poses.append(interpolate_pose(a.pose, b.pose, i / steps_per_segment))
    return poses


def plan_insertion(hole: HoleFixture, start_height: float, step: float,
                   orientation: np.ndarray | None = None,
                   align_tol: float = math.radians(5.0)) -> list[Pose]:
    """Descend along the hole axis from start_height above the bottom to the bottom."""
    if orientation is None:
        orientation = np.array([1.0, 0.0, 0.0, 0.0])
    # Peg axis is the tool -z direction; it must oppose the hole's up axis.
    peg_dir = quat_rotate(orientation, np.array([0.0, 0.0, -1.0]))
    if -dot3(peg_dir.tolist(), hole.axis_up.tolist()) < math.cos(align_tol):
        raise NotAligned("peg axis deviates from the hole axis beyond tolerance")
    if step <= 0.0:
        raise ValueError("step must be > 0")
    bottom = hole.bottom_center()
    n_steps = int(math.ceil(start_height / step - 1e-12)) if start_height > 0 else 0
    poses = []
    for i in range(n_steps + 1):
        h = max(0.0, start_height - i * step)
        poses.append(Pose(bottom + h * hole.axis_up, orientation))
    if math.sqrt(sq_norm((poses[-1].position - bottom).tolist())) > 1e-12:
        poses.append(Pose(bottom, orientation))
    return poses


def plan_wiping(board: PlaneBoard, step_len: float = 0.015, lane_overlap: float = 0.5,
                press_depth: float | None = None, margin: float = 0.025,
                passes: int = 1) -> list[Pose]:
    """Boustrophedon sweep over the bounding box of the inked cells.

    Lanes run along the board-frame x axis with pitch (1 - lane_overlap) times
    the eraser footprint width; the eraser orientation aligns with the surface
    normal. Waypoints sit press_depth below the surface so that ideal tracking
    produces contact force k_e * press_depth.
    """
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
    orientation = board.rotation  # eraser frame aligned with the board surface

    def world(x: float, y: float) -> np.ndarray:
        return board.spring.rest_point + np.array(_matvec(R, (x, y, -press_depth)))

    poses: list[Pose] = []
    for _ in range(max(1, passes)):
        for li, y in enumerate(lanes):
            xs = _lane_waypoints(x_lo, x_hi, step_len)
            if li % 2 == 1:
                xs = xs[::-1]
            for x in xs:
                poses.append(Pose(world(x, y), orientation))
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
        grasp_pose = Pose(door.grasp0, np.array([1.0, 0.0, 0.0, 0.0]))
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


def _arc(start: Pose, axis: np.ndarray, pivot: np.ndarray, total: float, step: float,
         sign: float = 1.0) -> list[Pose]:
    n = int(math.ceil(total / step - 1e-12)) if total > 0 else 0
    out = []
    for i in range(n + 1):
        ang = sign * min(total, i * step)
        pos = rodrigues_rotate(start.position, axis, pivot, ang)
        q = quat_mul(quat_from_axis_angle(axis, ang), start.orientation)
        out.append(Pose(pos, q))
    return out


# --------------------------------------------------------------------------
# Contact-manifold normals and supervision extraction
# --------------------------------------------------------------------------

def manifold_normal(env: TaskEnvironment, eef: Pose) -> np.ndarray:
    """Outward constraint normal at the end-effector.

    This is the direction of the contact force the environment exerts on the
    robot; the controller presses along its negative.
    """
    if isinstance(env, PlaneBoard):
        return np.array(env.spring.surface_normal)
    if isinstance(env, HoleFixture):
        return env.axis_up.copy()
    if isinstance(env, HingedDoor):
        return env.constraint_normal(eef.position)
    raise NoContactManifold(f"no manifold for environment {type(env).__name__}")


def extract_supervision(poses: list[Pose], phases: list[FsmPhase], grippers: list[float],
                        env: TaskEnvironment, normals: list[np.ndarray] | None = None
                        ) -> list[SupervisionTuple]:
    """Shifted supervision: tuple[t] = (pose[t+1], normal at t+1, contact[t]).

    The gripper command in the 10-vector is the expert command at time t.
    When `normals` is given (door tasks, where the manifold depends on plan
    progression) it supplies the per-pose normals instead of manifold_normal.
    """
    if not (len(poses) == len(phases) == len(grippers)):
        raise LengthMismatch("poses, phases, grippers must have equal lengths")
    if normals is not None and len(normals) != len(poses):
        raise LengthMismatch("normals length must match poses")
    if len(poses) < 2:
        raise LengthMismatch("need at least two steps to extract supervision")
    out = []
    for t in range(len(poses) - 1):
        c = phases[t].contact_flag
        if c == 1:
            if normals is not None:
                n = normals[t + 1]
                if sq_norm(n.tolist()) < 0.25:
                    n = normals[t]  # contact ends at t+1: keep the incoming manifold
            else:
                n = manifold_normal(env, poses[t + 1])
            n = normalized(n)
        else:
            n = ZERO_NORMAL.copy()
        out.append(SupervisionTuple(pose10_encode(poses[t + 1], grippers[t]), n, c))
    return out
