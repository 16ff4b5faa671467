"""Privileged-state expert: phase segmentation, reference-trajectory planners,
and supervision extraction.

Plans are executed kinematically (ideal pose tracking) when generating
demonstrations; the admittance loop only enters at replay time. A demo's
supervision is one (n, 14) float64 record block, held as a
`SupervisionRecords` whose iteration makes `SupervisionTuple` row views;
`predict` reads the block's rows directly. The record's column names
(`POSITION` ... `CONTACT`) are the one statement of its layout, and
`check_records` the one check of a block, which the dataset writer and reader
both run.

The controller is translational, so a plan is positions only: each waypoint
is a float 3-tuple, with no orientation. A record keeps the dataset's
14-float layout, and its 6D rotation columns (ROT6D) hold the identity's,
`IDENTITY_ROT6D`, in every row.

Float contract. Demo generation runs on Python floats, one straight pass per
plan: the planners write their lerp, Rodrigues rotation and radial normal
out as left-to-right float expressions, and `extract_supervision` packs each
step's 14 floats in one loop and makes the block from the joined bytes.
These are the operations, in the order, of the helper compositions that the
demos were pinned with (`_lerp`, `_rodrigues`, `_perp` and `_normalize`;
`tests/reference_demos.py` keeps them), so every record carries the same
bits. A value that repeats by object (a plan's contact normal over a run of
positions) is worked on once.
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
from .errors import EmptySchedule, LengthMismatch, NothingToWipe
from .geometry import _degenerate, _normalize, _rodrigues_fixed


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


# The supervision record's columns, the one statement of its layout: the
# position, the 6D rotation and the gripper command (together pose10), the
# unit contact normal (zero out of contact) and the contact flag, 0.0 or 1.0.
POSITION = slice(0, 3)
ROT6D = slice(3, 9)
GRIPPER = 9
POSE10 = slice(0, 10)
NORMAL = slice(10, 13)
CONTACT = 13
# Floats per supervision record.
RECORD_DIM = 14

# One record as native float64 bytes.
_RECORD = struct.Struct(f"{RECORD_DIM}d")


class SupervisionRecords:
    """A demo's supervision: its (n, 14) float64 record block, in the dataset's
    record layout.

    Iteration makes each SupervisionTuple on access as views of its row, by
    `tuple.__new__` and with no Python frame per row: pose10 is row[POSE10],
    normal row[NORMAL], and contact the Python int of row[CONTACT], which
    holds 0.0 or 1.0. Only the block is held, 112 bytes per step; `predict`
    reads its rows from it.
    """

    __slots__ = ("block",)

    def __init__(self, block: np.ndarray):
        self.block = block

    def __len__(self) -> int:
        return len(self.block)

    def __iter__(self):
        block = self.block
        return map(tuple.__new__, repeat(SupervisionTuple),
                   zip(block[:, POSE10], block[:, NORMAL],
                       map(int, block[:, CONTACT].tolist())))


def check_records(block) -> None:
    """ValueError unless block is a 2-D array of RECORD_DIM columns whose
    contact column holds only 0.0 and 1.0, and whose rows in contact hold a
    normal that is unit within `ControllerCommand`'s 1e-6: the record blocks
    a dataset holds. The message names the first other flag in row order,
    else the first row in contact whose normal is not unit (NaN and
    infinities included)."""
    if block.ndim != 2 or block.shape[1] != RECORD_DIM:
        raise ValueError(f"a record block is a 2-D array of {RECORD_DIM} columns, "
                         f"got shape {block.shape}")
    flags = block[:, CONTACT]
    bad = (flags != 0.0) & (flags != 1.0)
    if bad.any():
        raise ValueError(f"contact flag {float(flags[bad][0])!r} is not 0.0 or 1.0")
    n0, n1, n2 = block[:, NORMAL].T
    with np.errstate(over="ignore"):  # a square past the float range is inf: refused
        unit = np.abs(np.sqrt(n0 * n0 + n1 * n1 + n2 * n2) - 1.0) <= 1e-6
    bad = (flags == 1.0) & ~unit  # NaN fails the comparison too
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"contact normal {tuple(block[i, NORMAL].tolist())} of row {i} "
                         f"is not unit")


# Placeholder normal for out-of-contact steps.
ZERO_NORMAL = (0.0, 0.0, 0.0)

# The 6D rotation (the rotation matrix's first two columns, column-first) of
# the identity: what every record's ROT6D columns hold. No run reads them; the
# layout keeps them for readers of `SupervisionTuple.pose10`.
IDENTITY_ROT6D = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0)


# --------------------------------------------------------------------------
# Planners
# --------------------------------------------------------------------------

def plan_free_motion(schedule: list[tuple], steps_per_segment: int) -> list[tuple]:
    """Piecewise linear interpolation through the schedule of key positions,
    float 3-tuples.

    One segment of s steps yields s+1 positions; later segments share their
    start with the previous end, contributing s positions each. Step i of a
    segment from a to b is (1 - i/s) a + (i/s) b, on floats.
    """
    if not schedule:
        raise EmptySchedule("schedule has no key positions")
    if steps_per_segment < 1:
        raise ValueError("steps_per_segment must be >= 1")
    positions = [schedule[0]]
    for (a0, a1, a2), (b0, b1, b2) in zip(schedule[:-1], schedule[1:]):
        for i in range(1, steps_per_segment + 1):
            s = i / steps_per_segment
            t = 1.0 - s
            positions.append((t * a0 + s * b0, t * a1 + s * b1, t * a2 + s * b2))
    return positions


# The insertion's waypoint spacing along the bore axis (m), and the heights
# of its waypoints above the bottom: HOLE_DEPTH at the rim down to 0.0.
INSERT_STEP = 0.001
_INSERT_HEIGHTS = tuple(max(0.0, HOLE_DEPTH - i * INSERT_STEP)
                        for i in range(int(math.ceil(HOLE_DEPTH / INSERT_STEP - 1e-12)) + 1))


def plan_insertion(hole: HoleFixture) -> list[tuple]:
    """Descend along BORE_AXIS from the rim, HOLE_DEPTH above the bottom,
    to the bottom in steps of INSERT_STEP."""
    b0, b1, b2 = hole.bottom_center()
    u0, u1, u2 = BORE_AXIS
    return [(b0 + h * u0, b1 + h * u1, b2 + h * u2) for h in _INSERT_HEIGHTS]


# Wiping: the sweep's waypoint spacing along a lane (m), the overlap of
# neighbouring lanes as a share of the eraser width, how far a lane runs past
# the inked box at either end (m), and the depth of the waypoints below the
# surface (m), so that ideal tracking presses with k_e * PRESS_DEPTH.
STEP_LEN = 0.015
LANE_OVERLAP = 0.5
MARGIN = 0.025
PRESS_DEPTH = 0.004


def plan_wiping(board: PlaneBoard, passes: int = 1) -> list[tuple]:
    """Boustrophedon sweep over the bounding box of the inked cells.

    Lanes run along the board-frame x axis with pitch (1 - LANE_OVERLAP) times
    the eraser footprint width. Waypoints sit PRESS_DEPTH below the surface.
    The sweep repeats `passes` times (>= 1).
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
    n = max(1, int(math.ceil((x_hi - x_lo) / STEP_LEN)))
    xs = [x_lo + (x_hi - x_lo) * i / n for i in range(n + 1)]
    # Each waypoint is rest + R (x, y, -PRESS_DEPTH), a row dot3 per world
    # axis: rest_k + ((R_k0 x + R_k1 y) + R_k2 z), with each product made once.
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = board.frame
    c0, c1, c2 = board.rest_point
    z = -PRESS_DEPTH
    z0, z1, z2 = r02 * z, r12 * z, r22 * z
    sweep = []
    for li, y in enumerate(lanes):
        y0, y1, y2 = r01 * y, r11 * y, r21 * y
        sweep += [(c0 + (r00 * x + y0 + z0), c1 + (r10 * x + y1 + z1), c2 + (r20 * x + y2 + z2))
                  for x in (xs[::-1] if li % 2 == 1 else xs)]
    return sweep * passes


# The angle between neighbouring waypoints of an arc (rad).
ARC_STEP = math.radians(1.5)


def plan_articulated(door: HingedDoor, target_angle: float) -> tuple[list[tuple], list[tuple]]:
    """Circular arcs about the ground-truth joint axes from the door's grasp
    point, and the contact normal of each position: the outward radial, as
    floats, of the circle it lies on.

    Microwave: a single arc about the hinge. Door: a handle-turn arc (to twice
    the latch threshold) followed by the hinge arc, encoding the turn-then-pull
    sequence; the junction position keeps the handle normal.
    """
    if door.microwave:
        return _arc(door.grasp0, HINGE_AXIS, door.hinge_pivot, target_angle, sign=OPENING_SIGN)
    turn, normals = _arc(door.grasp0, door.handle_axis, door.handle_pivot,
                         2.0 * LATCH_THRESHOLD)
    pull, pull_normals = _arc(turn[-1], HINGE_AXIS, door.hinge_pivot, target_angle,
                              sign=OPENING_SIGN)
    # The junction position is already emitted, with the handle normal.
    return turn + pull[1:], normals + pull_normals[1:]


def _arc(start, axis, pivot, total: float, sign: float = 1.0) -> tuple[list[tuple], list[tuple]]:
    """The point `start` turned about the line through pivot along the unit
    axis (float 3-sequences) by sign * min(total, i * ARC_STEP) for
    i = 0 .. ceil(total / ARC_STEP), as float 3-tuples; and the outward radial
    of each.

    Each position is the Rodrigues rotation of the start, and each normal the
    unit radial of the position off the axis.
    """
    n = int(math.ceil(total / ARC_STEP - 1e-12)) if total > 0 else 0
    (o0, o1, o2), (r0, r1, r2), (x0, x1, x2), (k0, k1, k2) = _rodrigues_fixed(
        start, axis, pivot)
    a0, a1, a2 = axis
    c0, c1, c2 = pivot
    positions, normals = [], []
    # A cache key equals its signed zero, and an arc of no turn (n == 0) may
    # turn by sign * -0.0: it gets a table of its own.
    for c, s, omc in (_arc_table if n else _arc_terms)(n, total, sign):
        p0 = o0 + (r0 * c + x0 * s + k0 * omc)
        p1 = o1 + (r1 * c + x1 * s + k1 * omc)
        p2 = o2 + (r2 * c + x2 * s + k2 * omc)
        positions.append((p0, p1, p2))
        d0, d1, d2 = p0 - c0, p1 - c1, p2 - c2
        d = d0 * a0 + d1 * a1 + d2 * a2
        d0, d1, d2 = d0 - d * a0, d1 - d * a1, d2 - d * a2
        d = sqrt(d0 * d0 + d1 * d1 + d2 * d2)
        if not 1e-12 <= d < math.inf:  # NaN fails the comparison too
            raise _degenerate(d)
        normals.append((d0 / d, d1 / d, d2 / d))
    return positions, normals


def _arc_terms(n: int, total: float, sign: float) -> tuple:
    """The terms of `_arc`'s steps that depend on the angle alone: its cos,
    its sin and 1 - cos, for each angle sign * min(total, i * ARC_STEP),
    i = 0 .. n."""
    terms = []
    for i in range(n + 1):
        ang = sign * min(total, i * ARC_STEP)
        c = cos(ang)
        terms.append((c, sin(ang), 1.0 - c))
    return tuple(terms)


# Every microwave and door demo turns through the same few arcs.
_arc_table = lru_cache(maxsize=8)(_arc_terms)


# --------------------------------------------------------------------------
# Supervision extraction
# --------------------------------------------------------------------------

def extract_supervision(positions: list[tuple], phases: list[PhaseLabel],
                        grippers: list[float], normals: list) -> SupervisionRecords:
    """Shifted supervision: tuple[t] = (position[t+1], normal at t+1, contact[t]).

    The gripper command in the 10-vector is the expert command at time t.
    `normals` holds the plan's contact normal of each position, float
    3-sequences (ZERO_NORMAL out of contact); a contact step's normal is that
    of position t+1, unit-normalized, or position t's where contact ends at
    t+1. The ROT6D columns hold IDENTITY_ROT6D. One loop packs each step's 14
    floats as it makes them, and the owned (n, 14) block is a copy of the
    joined bytes.
    """
    if not (len(positions) == len(phases) == len(grippers) == len(normals)):
        raise LengthMismatch("positions, phases, grippers, normals must have equal lengths")
    if len(positions) < 2:
        raise LengthMismatch("need at least two steps to extract supervision")
    # A plan repeats one phase label and normal object over a run of positions:
    # each is worked on where a new one starts.
    label = flag = last = unit = None
    pack, rows = _RECORD.pack, []
    for position, phase, gripper, n_at, n_next in zip(positions[1:], phases, grippers,
                                                      normals, normals[1:]):
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
                if not 1e-12 <= r < math.inf:  # _normalize's test: only NaN or inf fails it here
                    raise _degenerate(r)
                last = n_next
                normal = unit = (n0 / r, n1 / r, n2 / r)
        rows.append(pack(*position, *IDENTITY_ROT6D, gripper, *normal, flag))
    block = np.frombuffer(b"".join(rows)).reshape(len(rows), RECORD_DIM)
    return SupervisionRecords(block.copy())
