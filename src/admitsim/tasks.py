"""Per-task glue: randomized environment construction and expert demonstrations.

Task codes: MO (microwave opening), PH (peg-in-hole), WW (whiteboard wiping),
DO (door opening). Initial object poses are randomized per seed within the
documented evaluation ranges; demonstrations chain approach / grasp / contact /
retract phases and end with shifted supervision tuples.

Everything that sets one task apart is its `TaskSpec` record in `TASK_SPECS`.
The harness and the two entry points below read it; no code branches on the
task code.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .admittance import AdmittanceConfig
from .environments import (
    BOARD_EXTENT,
    BORE_AXIS,
    DISTURBANCE_KINDS,
    HANDLE_LEVER,
    DisturbanceEvent,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
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
from .geometry import Pose, _add, quat_from_axis_angle, quat_rotate


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

def _build_board(rng, **overrides) -> PlaneBoard:
    # Height randomized within 10 cm, orientation about x within +/-20 deg.
    dz = rng.uniform(-0.05, 0.05)
    tilt = rng.uniform(-math.radians(20.0), math.radians(20.0))
    center = (0.30, 0.0, 0.12 + dz)
    rotation = quat_from_axis_angle((1.0, 0.0, 0.0), tilt)
    board = PlaneBoard(center=center, rotation=rotation, **overrides)
    _scribble(board, rng)
    return board


# The ink stroke: a polyline of this many segments, each this long (m).
SCRIBBLE_SEGMENTS = 3
SCRIBBLE_SEG_LEN = 0.05


def _scribble(board: PlaneBoard, rng):
    """Random polyline stroke in the central region of the board: float
    points, each segment's end clipped to the region."""
    half_x = 0.5 * BOARD_EXTENT[0] - 0.04
    half_y = 0.5 * BOARD_EXTENT[1] - 0.04
    x, y = rng.uniform(-half_x, half_x), rng.uniform(-half_y, half_y)
    pts = [(x, y)]
    for _ in range(SCRIBBLE_SEGMENTS):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        x = min(max(x + SCRIBBLE_SEG_LEN * math.cos(ang), -half_x), half_x)
        y = min(max(y + SCRIBBLE_SEG_LEN * math.sin(ang), -half_y), half_y)
        pts.append((x, y))
    board.ink.ink_stroke(pts)


def _build_hole(rng, **overrides) -> HoleFixture:
    # Placement randomized in a 40 cm x 40 cm x 20 cm volume; the vertical-axis
    # orientation randomization (+/-90 deg) is immaterial for a round hole.
    rim = (
        0.25 + rng.uniform(-0.2, 0.2),
        rng.uniform(-0.2, 0.2),
        0.10 + rng.uniform(-0.1, 0.1),
    )
    return HoleFixture(rim_center=rim, **overrides)


def _build_door(rng, microwave: bool, **overrides) -> HingedDoor:
    yaw = rng.uniform(-math.radians(15.0), math.radians(15.0))
    rotz = quat_from_axis_angle((0.0, 0.0, 1.0), yaw)
    if microwave:
        base = (0.45 + rng.uniform(-0.05, 0.05),
                0.25 + rng.uniform(-0.10, 0.10),
                0.15 + rng.uniform(-0.05, 0.05))
        grasp = _add(base, quat_rotate(rotz, (0.0, -0.25, 0.0)))
        return HingedDoor(hinge_pivot=base, grasp0=grasp, **overrides)
    base = (0.55 + rng.uniform(-0.05, 0.05),
            0.35 + rng.uniform(-0.15, 0.15),
            rng.uniform(-0.05, 0.05))
    handle_pivot = _add(base, quat_rotate(rotz, (0.0, -0.42, 0.25)))
    handle_axis = quat_rotate(rotz, (1.0, 0.0, 0.0))
    grasp = _add(handle_pivot, quat_rotate(rotz, (0.0, -HANDLE_LEVER, 0.0)))
    return HingedDoor(hinge_pivot=base, grasp0=grasp, handle_pivot=handle_pivot,
                      handle_axis=handle_axis, **overrides)


# --------------------------------------------------------------------------
# Demonstration generation
# --------------------------------------------------------------------------

HOME = Pose((0.0, 0.0, 0.35))
GRASP_STEPS = 5


def _chain(*sections) -> tuple:
    """Concatenate (poses, phases, grippers, normals) sections."""
    return tuple(list(chain.from_iterable(parts)) for parts in zip(*sections))


def _along(p, s: float, d) -> tuple:
    """The float point p + s d."""
    p0, p1, p2 = p
    d0, d1, d2 = d
    return (p0 + s * d0, p1 + s * d1, p2 + s * d2)


def _section(poses, label: PhaseLabel, gripper, normals=None):
    """One phase of a plan: its poses, labels, gripper commands (one for all,
    or one per pose) and contact normals (one per pose; ZERO_NORMAL if None)."""
    n = len(poses)
    grippers = [gripper] * n if np.isscalar(gripper) else list(gripper)
    return poses, [label] * n, grippers, [ZERO_NORMAL] * n if normals is None else normals


def _ww_plan(board: PlaneBoard, wipe_passes: int) -> tuple:
    wipe = plan_wiping(board, passes=wipe_passes)
    start = wipe[0]
    nu = board.surface_normal
    above = Pose(_along(start.position, 0.03, nu))
    high = Pose(_along(above.position, 0.05, nu))
    approach = plan_free_motion([HOME, high, above], steps_per_segment=8)
    descend = plan_free_motion([above, start], steps_per_segment=4)[1:]
    lift = Pose(_along(wipe[-1].position, 0.08, nu))
    retract = plan_free_motion([wipe[-1], lift], steps_per_segment=6)[1:]
    dwell = [wipe[0]] * 6  # press and let the contact force converge before sweeping
    contact = dwell + wipe
    return _chain(
        _section(approach + descend, PhaseLabel.APPROACH, 1.0),
        _section(contact, PhaseLabel.CONTACT, 1.0, [nu] * len(contact)),
        _section(retract, PhaseLabel.RETRACT, 1.0),
    )


def _ph_plan(hole: HoleFixture) -> tuple:
    insertion = plan_insertion(hole)
    rim_pose = insertion[0]
    above = Pose(_along(rim_pose.position, 0.04, BORE_AXIS))
    approach = plan_free_motion([HOME, above, rim_pose], steps_per_segment=8)
    contact = insertion[1:] + [insertion[-1]] * 10  # press at the bottom to secure depth
    return _chain(
        _section(approach, PhaseLabel.APPROACH, 1.0),
        _section(contact, PhaseLabel.CONTACT, 1.0, [BORE_AXIS] * len(contact)),
    )


def _door_plan(door: HingedDoor, target: float) -> tuple:
    """Grasp the handle, open the door to target (rad) and let go."""
    grasp_pose = Pose(door.grasp0)
    # Approach from above: a vertical standoff leaves the hinge azimuth (and
    # with it the inferred door angle) unbiased when the gripper closes.
    standoff_dir = (0.0, 0.0, 1.0)
    pre = Pose(_along(door.grasp0, 0.08, standoff_dir))
    approach = plan_free_motion([HOME, pre, grasp_pose], steps_per_segment=8)
    grasp_poses = [grasp_pose] * GRASP_STEPS
    grasp_grip = [min(1.0, (i + 1) / GRASP_STEPS) for i in range(GRASP_STEPS)]
    arc, arc_normals = plan_articulated(door, target)
    open_pose = arc[-1]
    # Hold the end pose grasped so the compliant reference catches up with the
    # commanded arc before letting go.
    hold = [open_pose] * 12
    hold_normals = [arc_normals[-1]] * 12
    away = Pose(_along(open_pose.position, 0.06, standoff_dir))
    retract_poses = plan_free_motion([open_pose, away], steps_per_segment=5)
    return _chain(
        _section(approach, PhaseLabel.APPROACH, 0.0),
        _section(grasp_poses, PhaseLabel.GRASP, grasp_grip),
        _section(arc + hold, PhaseLabel.CONTACT, 1.0, arc_normals + hold_normals),
        _section(retract_poses, PhaseLabel.RETRACT, 0.0),
    )


@dataclass(frozen=True)
class TaskSpec:
    """Everything that sets one task apart. `admittance` is the force_aware
    controller: the task's flags and f_H (`target_force`), the other gains at
    their defaults; the blind baselines (`harness.BASELINES`) ignore it."""

    time_limit: float           # s, the longest episode
    admittance: AdmittanceConfig  # the force_aware controller
    disturbance_kinds: tuple    # the kinds the environment responds to (others are no-ops)
    suite_disturbance: tuple    # the scripted events of a disturbed suite run
    env_keys: tuple             # the overrides `build` passes to the environment
    build: Callable             # (rng, **overrides) -> the randomized environment
    plan: Callable              # (env[, wipe_passes]) -> (poses, phases, grippers, normals)
    metric: str                 # the final metric that decides success, env.measure's value
    threshold: float
    meets: Callable = operator.ge  # meets(metric, threshold): success
    multipass: bool = False     # plan repeats its coverage path wipe_passes times


# The door wrench reads only the hinge and handle geometry, which no
# disturbance moves; the round bore (PH) takes every kind but tilt.
_DOOR_KINDS = ("force_pulse",)
_DOOR_PULSE = (DisturbanceEvent("force_pulse", start=6.0, duration=2.0, magnitude=10.0,
                                direction=(0.0, 1.0, 0.0), ramp=0.3),)

# In this order: the index of a task seeds its episodes.
TASK_SPECS = {
    "MO": TaskSpec(
        time_limit=120.0, admittance=AdmittanceConfig(enable_tangent_stiffening=True),
        disturbance_kinds=_DOOR_KINDS, suite_disturbance=_DOOR_PULSE,
        env_keys=("k_e", "latch_force"), build=partial(_build_door, microwave=True),
        plan=partial(_door_plan, target=math.radians(60.0)), metric="opening_angle_deg",
        threshold=50.0),
    "PH": TaskSpec(
        time_limit=60.0,
        admittance=AdmittanceConfig(enable_normal_regulation=True, target_force=2.0),
        disturbance_kinds=("raise", "lower", "shift", "force_pulse", "sinusoid"),
        suite_disturbance=(DisturbanceEvent("shift", start=3.0, duration=5.0, magnitude=0.01,
                                            direction=(1.0, 0.0, 0.0), ramp=0.5),),
        env_keys=("k_e",), build=_build_hole, plan=_ph_plan,
        metric="insertion_depth_mm", threshold=10.0),
    "WW": TaskSpec(
        time_limit=120.0,
        admittance=AdmittanceConfig(enable_tangent_stiffening=True,
                                    enable_normal_regulation=True, target_force=4.0),
        disturbance_kinds=DISTURBANCE_KINDS,
        suite_disturbance=(DisturbanceEvent("raise", start=5.0, duration=10.0, magnitude=0.07,
                                            direction=(0.0, 0.0, 1.0), ramp=0.5),),
        env_keys=("k_e",), build=_build_board, plan=_ww_plan, multipass=True,
        metric="remaining_ink_cm", threshold=5.0, meets=operator.lt),
    "DO": TaskSpec(
        time_limit=120.0, admittance=AdmittanceConfig(enable_tangent_stiffening=True),
        disturbance_kinds=_DOOR_KINDS, suite_disturbance=_DOOR_PULSE,
        env_keys=("k_e", "latch_force"), build=partial(_build_door, microwave=False),
        plan=partial(_door_plan, target=math.radians(40.0)), metric="opening_angle_deg",
        threshold=30.0),
}
TASKS = tuple(TASK_SPECS)


def task_spec(task: str) -> TaskSpec:
    """The record of task (ValueError for an unknown one)."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    return TASK_SPECS[task]


def build_environment(task: str, rng: np.random.Generator,
                      overrides: dict | None = None):
    """The task's environment, randomized by rng, with overrides (of env_keys)."""
    return task_spec(task).build(rng, **(overrides or {}))


def generate_demo(task: str, env, wipe_passes: int = 1) -> Demo:
    spec = task_spec(task)
    poses, phases, grippers, normals = (spec.plan(env, wipe_passes) if spec.multipass
                                        else spec.plan(env))
    return Demo(task, poses, phases, extract_supervision(poses, phases, grippers, normals))
