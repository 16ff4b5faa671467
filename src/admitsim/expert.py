"""Privileged-state expert: phase segmentation, reference-trajectory planners,
and supervision extraction.

Plans are executed kinematically (ideal pose tracking) when generating
demonstrations; the admittance loop only enters at replay time. A demo's
supervision is one (n, 14) float64 record block in the dataset layout, built
column by column, held as a `SupervisionRecords` whose `SupervisionTuple`s
are row views made on access.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from typing import NamedTuple

import numpy as np

from .environments import (
    ERASER_HALF,
    HINGE_AXIS,
    HOLE_DEPTH,
    LATCH_THRESHOLD,
    OPENING_SIGN,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
)
from .errors import DegenerateInput, EmptySchedule, LengthMismatch, NotAligned, NothingToWipe
from .geometry import (
    Pose,
    _add,
    _lerp,
    _matvec,
    _normalize,
    _perp,
    _quat_matrix,
    _rodrigues,
    _rodrigues_fixed,
    _slerp,
    _slerp_ends,
    _sub,
    _unit_matrix,
    _unit_quat,
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

    The tuples of a generated or read-back demo are views of a row of its
    record block (see `SupervisionRecords`), built with the NamedTuple method
    `_make`. The public constructor coerces pose10 and normal to float arrays
    and rejects a contact flag other than 0 or 1, which the dataset format
    cannot hold.
    """

    __slots__ = ()

    def __new__(cls, pose10, normal, contact):
        if contact not in (0, 1):
            raise ValueError(f"contact flag must be 0 or 1, got {contact!r}")
        return super().__new__(cls, np.asarray(pose10, dtype=float),
                               np.asarray(normal, dtype=float), contact)


# Floats per supervision record: 10 pose/gripper, 3 normal, 1 contact flag.
RECORD_DIM = 14


class SupervisionRecords(Sequence):
    """A demo's supervision: its (n, 14) float64 record block, in the dataset's
    record layout, as a sequence of SupervisionTuple.

    Indexing and iteration make each tuple on access as views of its row:
    pose10 is row[:10], normal row[10:13], and contact the Python int of
    row[13], which holds 0.0 or 1.0. Negative indices count from the end; a
    slice is the records of the sliced block. Only the block is held, 112
    bytes per step.
    """

    __slots__ = ("block",)

    def __init__(self, block: np.ndarray):
        self.block = block

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(self, i):
        row = self.block[i]
        if row.ndim == 2:  # i is a slice
            return SupervisionRecords(row)
        return SupervisionTuple._make((row[:10], row[10:13], int(row[13])))

    def __iter__(self):
        block = self.block
        return map(SupervisionTuple._make,
                   zip(block[:, :10], block[:, 10:13], map(int, block[:, 13].tolist())))


# Placeholder normal for out-of-contact steps.
ZERO_NORMAL = (0.0, 0.0, 0.0)

# The identity orientation, wxyz: that of the peg and of the gripper at a
# door's grasp point.
IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)

# Largest angle between the peg axis and the bore axis that insertion accepts.
ALIGN_TOL = math.radians(5.0)


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


# The insertion's waypoint spacing along the bore axis (m).
INSERT_STEP = 0.001


def plan_insertion(hole: HoleFixture) -> list[Pose]:
    """Descend along the hole axis from the rim, HOLE_DEPTH above the bottom,
    to the bottom in steps of INSERT_STEP.

    The peg holds the identity orientation, its axis the tool -z direction,
    which must oppose the hole's up axis within ALIGN_TOL (NotAligned).
    """
    # The cosine of the angle between the peg axis (0, 0, -1) and the bore's
    # down axis is the up axis's z component.
    if hole.axis_up[2] < math.cos(ALIGN_TOL):
        raise NotAligned("peg axis deviates from the hole axis beyond tolerance")
    bottom = b0, b1, b2 = hole.bottom_center()
    u0, u1, u2 = hole.axis_up
    n_steps = int(math.ceil(HOLE_DEPTH / INSERT_STEP - 1e-12))
    positions = []
    for i in range(n_steps + 1):
        h = max(0.0, HOLE_DEPTH - i * INSERT_STEP)
        positions.append((b0 + h * u0, b1 + h * u1, b2 + h * u2))
    if math.sqrt(sq_norm(_sub(positions[-1], bottom))) > 1e-12:
        positions.append(bottom)
    return [Pose._make((p, IDENTITY_Q)) for p in positions]


# Wiping: the sweep's waypoint spacing along a lane (m), the overlap of
# neighbouring lanes as a share of the eraser width, how far a lane runs past
# the inked box at either end (m), and the depth of the waypoints below the
# surface (m), so that ideal tracking presses with k_e * PRESS_DEPTH.
STEP_LEN = 0.015
LANE_OVERLAP = 0.5
MARGIN = 0.025
PRESS_DEPTH = 0.004


def plan_wiping(board: PlaneBoard, passes: int = 1) -> list[Pose]:
    """Boustrophedon sweep over the bounding box of the inked cells.

    Lanes run along the board-frame x axis with pitch (1 - LANE_OVERLAP) times
    the eraser footprint width; the eraser orientation aligns with the surface
    normal. Waypoints sit PRESS_DEPTH below the surface. The sweep repeats
    `passes` times (>= 1).
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    centers = board.ink.inked_centers()
    if len(centers) == 0:
        raise NothingToWipe("board has no inked cells")
    pitch = (1.0 - LANE_OVERLAP) * (2.0 * ERASER_HALF)
    x_lo = float(centers[:, 0].min()) - MARGIN
    x_hi = float(centers[:, 0].max()) + MARGIN
    y_lo = float(centers[:, 1].min())
    y_hi = float(centers[:, 1].max())
    # First and last lanes sit directly on the extreme inked rows, so edge
    # cells are covered from above rather than by the footprint boundary.
    lanes = [y_lo]
    while lanes[-1] < y_hi - 1e-12:
        lanes.append(min(lanes[-1] + pitch, y_hi))
    R = _quat_matrix(board.rotation)
    q = _unit_quat(board.rotation)  # eraser frame aligned with the board surface
    rest = board.rest_point
    n = max(1, int(math.ceil((x_hi - x_lo) / STEP_LEN)))
    xs = [x_lo + (x_hi - x_lo) * i / n for i in range(n + 1)]

    poses: list[Pose] = []
    for _ in range(passes):
        for li, y in enumerate(lanes):
            for x in xs[::-1] if li % 2 == 1 else xs:
                poses.append(Pose._make((_add(rest, _matvec(R, (x, y, -PRESS_DEPTH))), q)))
    return poses


# The angle between neighbouring waypoints of an arc (rad).
ARC_STEP = math.radians(1.5)


def plan_articulated(door: HingedDoor, target_angle: float) -> tuple[list[Pose], list[tuple]]:
    """Circular arcs about the ground-truth joint axes from the grasp pose (the
    door's grasp point, identity orientation), orientation co-rotating, and
    the contact normal of each pose: the outward radial, as floats, of the
    circle it lies on.

    Microwave: a single arc about the hinge. Door: a handle-turn arc (to twice
    the latch threshold) followed by the hinge arc, encoding the turn-then-pull
    sequence; the junction pose keeps the handle normal.
    """
    grasp_pose = Pose(door.grasp0, IDENTITY_Q)
    if door.microwave:
        return _arc(grasp_pose, HINGE_AXIS, door.hinge_pivot, target_angle, sign=OPENING_SIGN)
    poses, normals = _arc(grasp_pose, door.handle_axis, door.handle_pivot,
                          2.0 * LATCH_THRESHOLD)
    pull, pull_normals = _arc(poses[-1], HINGE_AXIS, door.hinge_pivot,
                              target_angle, sign=OPENING_SIGN)
    # The junction pose is already emitted, with the handle normal.
    return poses + pull[1:], normals + pull_normals[1:]


def _arc(start: Pose, axis, pivot, total: float,
         sign: float = 1.0) -> tuple[list[Pose], list[tuple]]:
    """`start` turned about the line through pivot along the unit axis (float
    3-sequences), co-rotating, by sign * min(total, i * ARC_STEP) for
    i = 0 .. ceil(total / ARC_STEP); and the outward radial of each pose."""
    n = int(math.ceil(total / ARC_STEP - 1e-12)) if total > 0 else 0
    turn = _rodrigues_fixed(start.position, axis, pivot)
    q0 = start.orientation
    poses, normals = [], []
    for i in range(n + 1):
        ang = sign * min(total, i * ARC_STEP)
        q = quat_mul(quat_from_axis_angle(axis, ang), q0)
        p = _rodrigues(turn, ang)
        poses.append(Pose._make((p, _unit_quat(q))))
        normals.append(_normalize(_perp(_sub(p, pivot), axis)))
    return poses, normals


# --------------------------------------------------------------------------
# Supervision extraction
# --------------------------------------------------------------------------

def extract_supervision(poses: list[Pose], phases: list[PhaseLabel], grippers: list[float],
                        normals: list) -> SupervisionRecords:
    """Shifted supervision: tuple[t] = (pose[t+1], normal at t+1, contact[t]).

    The gripper command in the 10-vector is the expert command at time t.
    `normals` holds the plan's contact normal of each pose, float 3-sequences
    (ZERO_NORMAL out of contact); a contact step's normal is that of pose t+1,
    unit-normalized, or pose t's where contact ends at t+1. The record block is
    built column by column: each 6D rotation is pose10_encode's, bit for bit,
    from the same `_unit_quat` pass and operations on numpy columns.
    """
    if not (len(poses) == len(phases) == len(grippers) == len(normals)):
        raise LengthMismatch("poses, phases, grippers, normals must have equal lengths")
    if len(poses) < 2:
        raise LengthMismatch("need at least two steps to extract supervision")
    contacts = [ph.contact_flag for ph in phases[:-1]]
    last = unit = None  # a plan repeats one normal object over a run of poses
    normal_rows = []
    for t, c in enumerate(contacts):
        if c == 0:
            normal_rows.append(ZERO_NORMAL)
            continue
        n = normals[t + 1]
        if n is not last:
            if sq_norm(n) < 0.25:  # contact ends at t+1: keep the incoming manifold
                normal_rows.append(_normalize(normals[t]))
                continue
            last, unit = n, _normalize(n)
        normal_rows.append(unit)
    block = np.empty((len(contacts), RECORD_DIM))
    block[:, 0:3] = [p.position for p in poses[1:]]
    block[:, 3:9] = _rot6d_columns(np.array([p.orientation for p in poses[1:]]))
    block[:, 9] = grippers[:-1]
    block[:, 10:13] = normal_rows
    block[:, 13] = contacts
    return SupervisionRecords(block)


def _rot6d_columns(q: np.ndarray) -> np.ndarray:
    """rot6d_encode of each row of an (n, 4) quaternion array, as an (n, 6) array.

    The `_unit_quat` pass and the matrix are computed on columns: numpy's
    elementwise operations and sqrt round like the float ones, so every row
    equals rot6d_encode of that quaternion. The pass's canonical sign is left
    out: it negates all four components, and each matrix entry is built from
    products of two of them, which the common sign leaves unchanged, bit for
    bit. A zero quaternion is DegenerateInput.
    """
    w, x, y, z = q.T
    n = np.sqrt(w * w + x * x + y * y + z * z)
    if (n < 1e-12).any():
        raise DegenerateInput("zero quaternion")
    (r00, r01, _), (r10, r11, _), (r20, r21, _) = _unit_matrix(w / n, x / n, y / n, z / n)
    return np.column_stack((r00, r10, r20, r01, r11, r21))
