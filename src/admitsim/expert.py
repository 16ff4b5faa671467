"""Privileged-state expert: phase segmentation, reference-trajectory planners,
and supervision extraction.

Plans are executed kinematically (ideal pose tracking) when generating
demonstrations; the admittance loop only enters at replay time. A demo's
supervision is one (n, 14) float64 record block in the dataset layout, held
as a `SupervisionRecords` whose iteration makes `SupervisionTuple` row views;
`predict` reads the block's rows directly.

Float contract. Demo generation runs on Python floats, one straight pass per
plan: the planners write their lerp, slerp, quaternion product, Rodrigues
rotation and radial normal out as left-to-right float expressions, and
`extract_supervision` packs each step's 14 floats in one loop and makes the
block from the joined bytes. These are the operations, in the order, of
the helper compositions that the demos were pinned with (`_lerp`, `_slerp`,
`quat_mul`, `quat_from_axis_angle`, `_rodrigues`, `_perp`, `_normalize` and
a columnwise rot6d; `tests/reference_demos.py` keeps them), so every record
carries the same bits. Every quaternion keeps the `_unit_quat` passes of
those compositions, two per free-motion pose among them (see
`plan_free_motion`). A value that repeats by object (a plan's one
orientation or contact normal over a run of poses) is worked on once.
"""

from __future__ import annotations

import math
import struct
from enum import Enum
from functools import lru_cache
from itertools import repeat
from math import cos, sin, sqrt
from typing import NamedTuple

import numpy as np

from .environments import (
    BORE_AXIS,
    ERASER_HALF,
    HINGE_AXIS,
    HOLE_DEPTH,
    LATCH_THRESHOLD,
    OPENING_SIGN,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
)
from .errors import DegenerateInput, EmptySchedule, LengthMismatch, NothingToWipe
from .geometry import (
    Pose,
    _normalize,
    _rodrigues_fixed,
    _slerp_ends,
    _unit_quat,
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


class SupervisionTuple(NamedTuple):
    """Per-step training target: 10-d pose/gripper, normal direction, contact flag.

    The tuples of a generated or read-back demo are views of a row of its
    record block (see `SupervisionRecords`); the contact flag is 0 or 1,
    the two values the dataset format holds.
    """

    pose10: np.ndarray
    normal: np.ndarray
    contact: int


# Floats per supervision record: 10 pose/gripper, 3 normal, 1 contact flag.
RECORD_DIM = 14

# One record as native float64 bytes.
_RECORD = struct.Struct(f"{RECORD_DIM}d")


class SupervisionRecords:
    """A demo's supervision: its (n, 14) float64 record block, in the dataset's
    record layout.

    Iteration makes each SupervisionTuple on access as views of its row, by
    `tuple.__new__` and with no Python frame per row: pose10 is row[:10],
    normal row[10:13], and contact the Python int of row[13], which holds 0.0
    or 1.0. Only the block is held, 112 bytes per step; `predict` reads its
    rows from it.
    """

    __slots__ = ("block",)

    def __init__(self, block: np.ndarray):
        self.block = block

    def __len__(self) -> int:
        return len(self.block)

    def __iter__(self):
        block = self.block
        return map(tuple.__new__, repeat(SupervisionTuple),
                   zip(block[:, :10], block[:, 10:13], map(int, block[:, 13].tolist())))


# The planners build each waypoint's Pose from finished floats with
# tuple.__new__, which skips the public constructor's coercion and
# `_unit_quat` pass, and NamedTuple._make's Python call.
_new = tuple.__new__

# Placeholder normal for out-of-contact steps.
ZERO_NORMAL = (0.0, 0.0, 0.0)

# The identity orientation, wxyz: that of the peg and of the gripper at a
# door's grasp point.
IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# Planners
# --------------------------------------------------------------------------

def plan_free_motion(schedule: list[Pose], steps_per_segment: int) -> list[Pose]:
    """Piecewise pose interpolation through the schedule of key poses.

    One segment of s steps yields s+1 poses; later segments share their start
    pose with the previous end, contributing s poses each. Each pose is the
    segment's position lerp and shortest-arc slerp, on floats. The slerp's
    quaternion gets the slerp's own `_unit_quat` pass and then a second one:
    the pinned outputs hold both, and one pass alone moves some poses in the
    last bits.
    """
    if not schedule:
        raise EmptySchedule("schedule has no key poses")
    if steps_per_segment < 1:
        raise ValueError("steps_per_segment must be >= 1")
    poses = [schedule[0]]
    for a, b in zip(schedule[:-1], schedule[1:]):
        a0, a1, a2 = a.position
        b0, b1, b2 = b.position
        (aw, ax, ay, az), (bw, bx, by, bz), theta, sin_theta = _slerp_ends(a.orientation,
                                                                          b.orientation)
        for i in range(1, steps_per_segment + 1):
            s = i / steps_per_segment
            t = 1.0 - s
            if theta is None:  # nearly identical ends: a linear blend keeps them exact
                wa, wb = t, s
            else:
                wa = sin(t * theta) / sin_theta
                wb = sin(s * theta) / sin_theta
            w, x, y, z = wa * aw + wb * bw, wa * ax + wb * bx, wa * ay + wb * by, wa * az + wb * bz
            m = sqrt(w * w + x * x + y * y + z * z)
            if not m >= 1e-12:  # NaN fails the comparison too
                raise DegenerateInput("zero quaternion")
            w, x, y, z = w / m, x / m, y / m, z / m
            if w < 0.0:
                w, x, y, z = -w, -x, -y, -z
            # The second pass: m is within rounding of 1 and the sign canonical.
            m = sqrt(w * w + x * x + y * y + z * z)
            poses.append(_new(Pose, ((t * a0 + s * b0, t * a1 + s * b1, t * a2 + s * b2),
                                     (w / m, x / m, y / m, z / m))))
    return poses


# The insertion's waypoint spacing along the bore axis (m), and the heights
# of its waypoints above the bottom: HOLE_DEPTH at the rim down to 0.0.
INSERT_STEP = 0.001
_INSERT_HEIGHTS = tuple(max(0.0, HOLE_DEPTH - i * INSERT_STEP)
                        for i in range(int(math.ceil(HOLE_DEPTH / INSERT_STEP - 1e-12)) + 1))


def plan_insertion(hole: HoleFixture) -> list[Pose]:
    """Descend along BORE_AXIS from the rim, HOLE_DEPTH above the bottom,
    to the bottom in steps of INSERT_STEP.

    The peg holds the identity orientation, its axis the tool -z direction,
    which opposes the vertical bore axis.
    """
    b0, b1, b2 = hole.bottom_center()
    u0, u1, u2 = BORE_AXIS
    return [_new(Pose, ((b0 + h * u0, b1 + h * u1, b2 + h * u2), IDENTITY_Q))
            for h in _INSERT_HEIGHTS]


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
    q = _unit_quat(board.rotation)  # eraser frame aligned with the board surface
    n = max(1, int(math.ceil((x_hi - x_lo) / STEP_LEN)))
    xs = [x_lo + (x_hi - x_lo) * i / n for i in range(n + 1)]
    # Each waypoint is rest + R (x, y, -PRESS_DEPTH), a row dot3 per world
    # axis: rest_k + ((R_k0 x + R_k1 y) + R_k2 z), with each product made once.
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = board.frame
    c0, c1, c2 = board.rest_point
    z = -PRESS_DEPTH
    z0, z1, z2 = r02 * z, r12 * z, r22 * z
    sweep: list[Pose] = []
    for li, y in enumerate(lanes):
        y0, y1, y2 = r01 * y, r11 * y, r21 * y
        sweep += [_new(Pose, ((c0 + (r00 * x + y0 + z0), c1 + (r10 * x + y1 + z1),
                               c2 + (r20 * x + y2 + z2)), q))
                  for x in (xs[::-1] if li % 2 == 1 else xs)]
    return sweep * passes


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
    i = 0 .. ceil(total / ARC_STEP); and the outward radial of each pose.

    Each orientation is the axis-angle quaternion (its axis normalized once,
    then its `_unit_quat` pass) times the start's, given its own pass; each
    position is the Rodrigues rotation of the start, and each normal the unit
    radial of the position off the axis.
    """
    n = int(math.ceil(total / ARC_STEP - 1e-12)) if total > 0 else 0
    (o0, o1, o2), (r0, r1, r2), (x0, x1, x2), (k0, k1, k2) = _rodrigues_fixed(
        start.position, axis, pivot)
    e0, e1, e2 = _normalize(axis)
    a0, a1, a2 = axis
    c0, c1, c2 = pivot
    qw, qx, qy, qz = start.orientation
    poses, normals = [], []
    # A cache key equals its signed zero, and an arc of no turn (n == 0) may
    # turn by sign * -0.0: it gets a table of its own.
    for ch, sh, c, s, omc in (_arc_table if n else _arc_terms)(n, total, sign):
        w, x, y, z = ch, sh * e0, sh * e1, sh * e2
        m = sqrt(w * w + x * x + y * y + z * z)  # within rounding of 1: e is unit
        w, x, y, z = w / m, x / m, y / m, z / m
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        pw = w * qw - x * qx - y * qy - z * qz
        px = w * qx + x * qw + y * qz - z * qy
        py = w * qy - x * qz + y * qw + z * qx
        pz = w * qz + x * qy - y * qx + z * qw
        m = sqrt(pw * pw + px * px + py * py + pz * pz)
        if not m >= 1e-12:  # NaN fails the comparison too
            raise DegenerateInput("zero quaternion")
        pw, px, py, pz = pw / m, px / m, py / m, pz / m
        if pw < 0.0:
            pw, px, py, pz = -pw, -px, -py, -pz
        p0 = o0 + (r0 * c + x0 * s + k0 * omc)
        p1 = o1 + (r1 * c + x1 * s + k1 * omc)
        p2 = o2 + (r2 * c + x2 * s + k2 * omc)
        poses.append(_new(Pose, ((p0, p1, p2), (pw, px, py, pz))))
        d0, d1, d2 = p0 - c0, p1 - c1, p2 - c2
        d = d0 * a0 + d1 * a1 + d2 * a2
        d0, d1, d2 = d0 - d * a0, d1 - d * a1, d2 - d * a2
        d = sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        if not d >= 1e-12:  # NaN fails the comparison too
            raise DegenerateInput(f"cannot normalize near-zero vector (norm={d:g})")
        normals.append((d0 / d, d1 / d, d2 / d))
    return poses, normals


def _arc_terms(n: int, total: float, sign: float) -> tuple:
    """The terms of `_arc`'s steps that depend on the angle alone: cos and sin
    of half the angle, cos and sin of the angle, and 1 - cos, for each angle
    sign * min(total, i * ARC_STEP), i = 0 .. n."""
    terms = []
    for i in range(n + 1):
        ang = sign * min(total, i * ARC_STEP)
        half = 0.5 * ang
        c = cos(ang)
        terms.append((cos(half), sin(half), c, sin(ang), 1.0 - c))
    return tuple(terms)


# Every microwave and door demo turns through the same few arcs.
_arc_table = lru_cache(maxsize=8)(_arc_terms)


# --------------------------------------------------------------------------
# Supervision extraction
# --------------------------------------------------------------------------

def extract_supervision(poses: list[Pose], phases: list[PhaseLabel], grippers: list[float],
                        normals: list) -> SupervisionRecords:
    """Shifted supervision: tuple[t] = (pose[t+1], normal at t+1, contact[t]).

    The gripper command in the 10-vector is the expert command at time t.
    `normals` holds the plan's contact normal of each pose, float 3-sequences
    (ZERO_NORMAL out of contact); a contact step's normal is that of pose t+1,
    unit-normalized, or pose t's where contact ends at t+1. One loop writes
    each step's 14 floats: each 6D rotation is pose10_encode's, bit for bit,
    from the quaternion's `_unit_quat` division and `_unit_matrix` (the
    canonical sign negates all four components, which each matrix entry's
    products of two of them leave unchanged), its six entries written out
    from `_unit_matrix`'s expressions. Each row is packed as it is made, and
    the owned (n, 14) block is a copy of the joined bytes.
    """
    if not (len(poses) == len(phases) == len(grippers) == len(normals)):
        raise LengthMismatch("poses, phases, grippers, normals must have equal lengths")
    if len(poses) < 2:
        raise LengthMismatch("need at least two steps to extract supervision")
    # A plan repeats one phase label, normal and orientation object over a
    # run of poses: each is worked on where a new one starts.
    label = flag = last = unit = quat = rot6d = None
    pack, rows = _RECORD.pack, []
    for pose, phase, gripper, n_at, n_next in zip(poses[1:], phases, grippers, normals,
                                                  normals[1:]):
        if phase is not label:
            label, flag = phase, phase.contact_flag
        if not flag:
            normal = ZERO_NORMAL
        elif n_next is last:
            normal = unit
        else:
            n0, n1, n2 = n_next
            sq = n0 * n0 + n1 * n1 + n2 * n2
            if sq < 0.25:  # contact ends at t+1: keep the incoming manifold
                normal = _normalize(n_at)
            else:
                r = sqrt(sq)
                if not r >= 1e-12:  # _normalize's test, which only NaN fails here
                    raise DegenerateInput(f"cannot normalize near-zero vector (norm={r:g})")
                last = n_next
                normal = unit = (n0 / r, n1 / r, n2 / r)
        if pose.orientation is not quat:
            w, x, y, z = quat = pose.orientation
            m = sqrt(w * w + x * x + y * y + z * z)
            if not m >= 1e-12:  # NaN fails the comparison too
                raise DegenerateInput("zero quaternion")
            w, x, y, z = w / m, x / m, y / m, z / m
            # The first two columns of `_unit_matrix`, entry by entry.
            rot6d = (1 - 2 * (y * y + z * z), 2 * (x * y + z * w), 2 * (x * z - y * w),
                     2 * (x * y - z * w), 1 - 2 * (x * x + z * z), 2 * (y * z + x * w))
        rows.append(pack(*pose.position, *rot6d, gripper, *normal, flag))
    block = np.frombuffer(b"".join(rows)).reshape(len(rows), RECORD_DIM)
    return SupervisionRecords(block.copy())
