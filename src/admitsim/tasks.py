"""Per-task glue: randomized environment construction and expert demonstrations.

Task codes: MO (microwave opening), PH (peg-in-hole), WW (whiteboard wiping),
DO (door opening). Initial object poses are randomized per seed within the
documented evaluation ranges; demonstrations chain approach / grasp / contact /
retract phases and end with shifted supervision tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environments import (
    DISTURBANCE_KINDS,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
    TaskEnvironment,
)
from .expert import (
    ZERO_NORMAL,
    PhaseLabel,
    SupervisionRecords,
    extract_supervision,
    plan_articulated,
    plan_free_motion,
    plan_insertion,
    plan_wiping,
)
from .geometry import Pose, _add, _normalize, _perp, _sub, quat_from_axis_angle, quat_rotate

TASKS = ("MO", "PH", "WW", "DO")

TASK_TIME_LIMIT = {"MO": 120.0, "PH": 60.0, "WW": 120.0, "DO": 120.0}

# Per-task controller flags and target normal force (tangent stiffening,
# normal force regulation, f_H in newtons).
TASK_FLAGS = {
    "MO": (True, False, 0.0),
    "PH": (False, True, 2.0),
    "WW": (True, True, 4.0),
    "DO": (True, False, 0.0),
}

# Disturbance kinds each task's environment responds to. The door wrench reads
# only the hinge and handle geometry, which no disturbance moves, and the bore
# has no tilt.
TASK_DISTURBANCES = {
    "MO": ("force_pulse",),
    "PH": ("raise", "lower", "shift", "force_pulse", "sinusoid"),
    "WW": DISTURBANCE_KINDS,
    "DO": ("force_pulse",),
}

IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)


@dataclass
class Demo:
    """One expert rollout: aligned pose and phase streams plus supervision."""

    task: str
    poses: list
    phases: list  # one PhaseLabel per pose
    tuples: SupervisionRecords  # one per pose but the last

    def __len__(self):
        return len(self.tuples)


# --------------------------------------------------------------------------
# Environment builders (randomization per the evaluation protocol ranges)
# --------------------------------------------------------------------------

def build_environment(task: str, rng: np.random.Generator | None = None,
                      overrides: dict | None = None) -> TaskEnvironment:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    rng = rng or np.random.default_rng(0)
    overrides = dict(overrides or {})
    if task == "WW":
        return _build_board(rng, overrides)
    if task == "PH":
        return _build_hole(rng, overrides)
    return _build_door(task, rng, overrides)


def _build_board(rng, overrides) -> PlaneBoard:
    # Height randomized within 10 cm, orientation about x within +/-20 deg.
    dz = rng.uniform(-0.05, 0.05)
    tilt = rng.uniform(-math.radians(20.0), math.radians(20.0))
    center = (0.30, 0.0, 0.12 + dz)
    rotation = quat_from_axis_angle((1.0, 0.0, 0.0), tilt)
    board = PlaneBoard(center=center, rotation=rotation,
                       k_e=overrides.get("k_e", 1000.0))
    _scribble(board, rng)
    return board


def _scribble(board: PlaneBoard, rng, n_segments: int = 3, seg_len: float = 0.05):
    """Random polyline stroke in the central region of the board."""
    half_x = 0.5 * board.extent[0] - 0.04
    half_y = 0.5 * board.extent[1] - 0.04
    p = np.array([rng.uniform(-half_x, half_x), rng.uniform(-half_y, half_y)])
    pts = [p]
    for _ in range(n_segments):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        q = pts[-1] + seg_len * np.array([math.cos(ang), math.sin(ang)])
        q = np.clip(q, [-half_x, -half_y], [half_x, half_y])
        pts.append(q)
    board.ink.ink_stroke(np.array(pts))


def _build_hole(rng, overrides) -> HoleFixture:
    # Placement randomized in a 40 cm x 40 cm x 20 cm volume; the vertical-axis
    # orientation randomization (+/-90 deg) is immaterial for a round hole.
    rim = (
        0.25 + rng.uniform(-0.2, 0.2),
        rng.uniform(-0.2, 0.2),
        0.10 + rng.uniform(-0.1, 0.1),
    )
    return HoleFixture(rim_center=rim, k_e=overrides.get("k_e", 1000.0))


def _build_door(task: str, rng, overrides) -> HingedDoor:
    yaw = rng.uniform(-math.radians(15.0), math.radians(15.0))
    rotz = quat_from_axis_angle((0.0, 0.0, 1.0), yaw)
    if task == "MO":
        base = (0.45 + rng.uniform(-0.05, 0.05),
                0.25 + rng.uniform(-0.10, 0.10),
                0.15 + rng.uniform(-0.05, 0.05))
        grasp = _add(base, quat_rotate(rotz, (0.0, -0.25, 0.0)))
        return HingedDoor(hinge_pivot=base, grasp0=grasp, microwave=True,
                          latch_force=overrides.get("latch_force", 15.0),
                          k_e=overrides.get("k_e", 1000.0))
    base = (0.55 + rng.uniform(-0.05, 0.05),
            0.35 + rng.uniform(-0.15, 0.15),
            rng.uniform(-0.05, 0.05))
    handle_pivot = _add(base, quat_rotate(rotz, (0.0, -0.42, 0.25)))
    handle_axis = quat_rotate(rotz, (1.0, 0.0, 0.0))
    grasp = _add(handle_pivot, quat_rotate(rotz, (0.0, -0.06, 0.0)))
    return HingedDoor(hinge_pivot=base, grasp0=grasp, microwave=False,
                      handle_pivot=handle_pivot, handle_axis=handle_axis,
                      handle_lever=0.06,
                      latch_force=overrides.get("latch_force", 15.0),
                      k_e=overrides.get("k_e", 1000.0))


# --------------------------------------------------------------------------
# Demonstration generation
# --------------------------------------------------------------------------

HOME = Pose((0.0, 0.0, 0.35), IDENTITY_Q)
GRASP_STEPS = 5


def generate_demo(task: str, env: TaskEnvironment, wipe_passes: int = 1) -> Demo:
    if task == "WW":
        return _ww_demo(env, wipe_passes)
    if task == "PH":
        return _ph_demo(env)
    if task in ("MO", "DO"):
        return _door_demo(task, env)
    raise ValueError(f"unknown task {task!r}")


def _chain(*sections):
    """Concatenate (poses, phases, grippers[, normals]) sections."""
    poses, phases, grippers, normals = [], [], [], []
    any_normals = any(len(s) == 4 for s in sections)
    for s in sections:
        poses.extend(s[0])
        phases.extend(s[1])
        grippers.extend(s[2])
        if any_normals:
            normals.extend(s[3] if len(s) == 4 else [ZERO_NORMAL] * len(s[0]))
    return poses, phases, grippers, (normals if any_normals else None)


def _along(p, s: float, d) -> tuple:
    """The float point p + s d."""
    p0, p1, p2 = p
    d0, d1, d2 = d
    return (p0 + s * d0, p1 + s * d1, p2 + s * d2)


def _section(poses, label: PhaseLabel, gripper, normals=None):
    phases = [label] * len(poses)
    grippers = [gripper] * len(poses) if np.isscalar(gripper) else list(gripper)
    if normals is None:
        return poses, phases, grippers
    return poses, phases, grippers, normals


def _ww_demo(board: PlaneBoard, wipe_passes: int) -> Demo:
    wipe = plan_wiping(board, passes=wipe_passes)
    start = wipe[0]
    nu = board.spring.surface_normal
    above = Pose(_along(start.position, 0.03, nu), start.orientation)
    high = Pose(_along(above.position, 0.05, nu), start.orientation)
    approach = plan_free_motion([HOME, high, above], steps_per_segment=8)
    descend = plan_free_motion([above, start], steps_per_segment=4)[1:]
    lift = Pose(_along(wipe[-1].position, 0.08, nu), wipe[-1].orientation)
    retract = plan_free_motion([wipe[-1], lift], steps_per_segment=6)[1:]
    dwell = [wipe[0]] * 6  # press and let the contact force converge before sweeping
    poses, phases, grippers, _ = _chain(
        _section(approach + descend, PhaseLabel.APPROACH, 1.0),
        _section(dwell + wipe, PhaseLabel.CONTACT, 1.0),
        _section(retract, PhaseLabel.RETRACT, 1.0),
    )
    tuples = extract_supervision(poses, phases, grippers, board)
    return Demo("WW", poses, phases, tuples)


def _ph_demo(hole: HoleFixture) -> Demo:
    insertion = plan_insertion(hole, start_height=hole.depth, step=0.001)
    rim_pose = insertion[0]
    above = Pose(_along(rim_pose.position, 0.04, hole.axis_up), rim_pose.orientation)
    approach = plan_free_motion([HOME, above, rim_pose], steps_per_segment=8)
    hold = [insertion[-1]] * 10  # press at the bottom to secure depth
    poses, phases, grippers, _ = _chain(
        _section(approach, PhaseLabel.APPROACH, 1.0),
        _section(insertion[1:] + hold, PhaseLabel.CONTACT, 1.0),
    )
    tuples = extract_supervision(poses, phases, grippers, hole)
    return Demo("PH", poses, phases, tuples)


def _door_demo(task: str, door: HingedDoor) -> Demo:
    grasp_pose = Pose(door.grasp0, IDENTITY_Q)
    # Approach from above: a vertical standoff leaves the hinge azimuth (and
    # with it the inferred door angle) unbiased when the gripper closes.
    standoff_dir = (0.0, 0.0, 1.0)
    pre = Pose(_along(door.grasp0, 0.08, standoff_dir), IDENTITY_Q)
    approach = plan_free_motion([HOME, pre, grasp_pose], steps_per_segment=8)
    grasp_poses = [grasp_pose] * GRASP_STEPS
    grasp_grip = [min(1.0, (i + 1) / GRASP_STEPS) for i in range(GRASP_STEPS)]
    target = math.radians(60.0) if task == "MO" else math.radians(40.0)
    turn_angle = None if door.microwave else 2.0 * door.latch_threshold
    arc = plan_articulated(door, target, math.radians(1.5), grasp_pose=grasp_pose,
                           turn_angle=turn_angle)
    arc_normals = _door_arc_normals(door, arc, turn_angle)
    open_pose = arc[-1]
    # Hold the end pose grasped so the compliant reference catches up with the
    # commanded arc before letting go.
    hold = [open_pose] * 12
    hold_normals = [arc_normals[-1]] * 12
    away = Pose(_along(open_pose.position, 0.06, standoff_dir), open_pose.orientation)
    retract_poses = plan_free_motion([open_pose, away], steps_per_segment=5)
    poses, phases, grippers, normals = _chain(
        _section(approach, PhaseLabel.APPROACH, 0.0),
        _section(grasp_poses, PhaseLabel.GRASP, grasp_grip),
        _section(arc + hold, PhaseLabel.CONTACT, 1.0, arc_normals + hold_normals),
        _section(retract_poses, PhaseLabel.RETRACT, 0.0),
    )
    tuples = extract_supervision(poses, phases, grippers, door, normals=normals)
    return Demo(task, poses, phases, tuples)


def _door_arc_normals(door: HingedDoor, arc: list, turn_angle: float | None) -> list:
    """Outward radial of the manifold each arc pose belongs to, as floats.

    For the door task the first segment lies on the handle circle and the rest
    on the hinge circle; at the switch step the incoming (handle) manifold's
    normal is used.
    """
    hinge = (door.hinge_pivot, door.hinge_axis)
    n_turn, handle = 0, hinge
    if not door.microwave:
        n_turn = int(math.ceil(turn_angle / math.radians(1.5) - 1e-12)) + 1
        handle = (door.handle_pivot, door.handle_axis)
    normals = []
    for i, pose in enumerate(arc):
        pivot, axis = handle if i < n_turn else hinge
        normals.append(_normalize(_perp(_sub(pose.position, pivot), axis)))
    return normals
