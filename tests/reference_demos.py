"""Demo generation composed from the geometry helpers, as references.

The planners, the ink stroke and `extract_supervision` write their vector
operations out on floats; the code below builds the same plans from `_lerp`,
`_matvec`, `_rodrigues`, `_perp` and `_normalize` calls, the stroke from
numpy points, its cells one segment at a time, and the supervision block
column by column, in the order of operations the outputs were pinned with. The tests hold the
flat code to them bit for bit, signed zeros included.
"""

from __future__ import annotations

import math

import numpy as np

from admitsim.environments import BOARD_EXTENT, CELL_SIZE, ERASER_HALF, PEN_RADIUS
from admitsim.errors import EmptySchedule, LengthMismatch, NothingToWipe
from admitsim.expert import (
    ARC_STEP,
    IDENTITY_ROT6D,
    LANE_OVERLAP,
    MARGIN,
    PRESS_DEPTH,
    RECORD_DIM,
    STEP_LEN,
    ZERO_NORMAL,
    SupervisionRecords,
)
from admitsim.geometry import (
    _add,
    _matvec,
    _normalize,
    _perp,
    _rodrigues_fixed,
    _sub,
    sq_norm,
)
from admitsim.tasks import SCRIBBLE_SEG_LEN, SCRIBBLE_SEGMENTS

# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def _lerp(a, b, s: float) -> tuple:
    """(1 - s) a + s b for two float 3-sequences, as floats."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    t = 1.0 - s
    return (t * a0 + s * b0, t * a1 + s * b1, t * a2 + s * b2)


def _rodrigues(fixed, angle: float) -> tuple:
    """The point of the _rodrigues_fixed terms rotated by angle, as floats, in
    the order of operations of the array formula
    pivot + (r c + (axis x r) s + (axis (axis . r)) (1 - c))."""
    (o0, o1, o2), (r0, r1, r2), (x0, x1, x2), (k0, k1, k2) = fixed
    c, s = math.cos(angle), math.sin(angle)
    omc = 1.0 - c
    return (o0 + (r0 * c + x0 * s + k0 * omc),
            o1 + (r1 * c + x1 * s + k1 * omc),
            o2 + (r2 * c + x2 * s + k2 * omc))


# --------------------------------------------------------------------------
# Planners
# --------------------------------------------------------------------------

def plan_free_motion(schedule: list[tuple], steps_per_segment: int) -> list[tuple]:
    if not schedule:
        raise EmptySchedule("schedule has no key positions")
    if steps_per_segment < 1:
        raise ValueError("steps_per_segment must be >= 1")
    positions = [schedule[0]]
    for a, b in zip(schedule[:-1], schedule[1:]):
        for i in range(1, steps_per_segment + 1):
            positions.append(_lerp(a, b, i / steps_per_segment))
    return positions


def plan_wiping(board, passes: int = 1) -> list[tuple]:
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
    lanes = [y_lo]
    while lanes[-1] < y_hi - 1e-12:
        lanes.append(min(lanes[-1] + pitch, y_hi))
    R = board.frame
    rest = board.rest_point
    n = max(1, int(math.ceil((x_hi - x_lo) / STEP_LEN)))
    xs = [x_lo + (x_hi - x_lo) * i / n for i in range(n + 1)]

    positions = []
    for _ in range(passes):
        for li, y in enumerate(lanes):
            for x in xs[::-1] if li % 2 == 1 else xs:
                positions.append(_add(rest, _matvec(R, (x, y, -PRESS_DEPTH))))
    return positions


def _arc(start, axis, pivot, total: float, sign: float = 1.0) -> tuple[list[tuple], list[tuple]]:
    n = int(math.ceil(total / ARC_STEP - 1e-12)) if total > 0 else 0
    turn = _rodrigues_fixed(start, axis, pivot)
    positions, normals = [], []
    for i in range(n + 1):
        p = _rodrigues(turn, sign * min(total, i * ARC_STEP))
        positions.append(p)
        normals.append(_normalize(_perp(_sub(p, pivot), axis)))
    return positions, normals


# --------------------------------------------------------------------------
# The ink stroke
# --------------------------------------------------------------------------

def scribble(board, rng):
    """The stroke of tasks._scribble on numpy points, clipped with np.clip."""
    half_x = 0.5 * BOARD_EXTENT[0] - 0.04
    half_y = 0.5 * BOARD_EXTENT[1] - 0.04
    p = np.array([rng.uniform(-half_x, half_x), rng.uniform(-half_y, half_y)])
    pts = [p]
    for _ in range(SCRIBBLE_SEGMENTS):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        q = pts[-1] + SCRIBBLE_SEG_LEN * np.array([math.cos(ang), math.sin(ang)])
        q = np.clip(q, [-half_x, -half_y], [half_x, half_y])
        pts.append(q)
    board.ink.ink_stroke(np.array(pts))


def near(grid, pts, i_lo, i_hi, j_lo, j_hi) -> np.ndarray:
    """InkGrid._near one segment at a time, with np.linalg.norm distances."""
    cx = (np.arange(i_lo, i_hi) + 0.5) * CELL_SIZE - grid._x0
    cy = (np.arange(j_lo, j_hi) + 0.5) * CELL_SIZE - grid._y0
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
            rel = centers - a
            s = np.clip((rel[:, 0] * ab0 + rel[:, 1] * ab1) / den, 0.0, 1.0)
            d = np.linalg.norm(centers - (a + s[:, None] * ab), axis=1)
        dmin = np.minimum(dmin, d)
    return (dmin <= PEN_RADIUS).reshape(i_hi - i_lo, j_hi - j_lo)


# --------------------------------------------------------------------------
# Supervision extraction
# --------------------------------------------------------------------------

def extract_supervision(positions, phases, grippers, normals) -> SupervisionRecords:
    if not (len(positions) == len(phases) == len(grippers) == len(normals)):
        raise LengthMismatch("positions, phases, grippers, normals must have equal lengths")
    if len(positions) < 2:
        raise LengthMismatch("need at least two steps to extract supervision")
    contacts = [ph.contact_flag for ph in phases[:-1]]
    last = unit = None
    normal_rows = []
    for t, c in enumerate(contacts):
        if c == 0:
            normal_rows.append(ZERO_NORMAL)
            continue
        n = normals[t + 1]
        if n is not last:
            if sq_norm(n) < 0.25:
                normal_rows.append(_normalize(normals[t]))
                continue
            last, unit = n, _normalize(n)
        normal_rows.append(unit)
    block = np.empty((len(contacts), RECORD_DIM))
    block[:, 0:3] = positions[1:]
    block[:, 3:9] = IDENTITY_ROT6D
    block[:, 9] = grippers[:-1]
    block[:, 10:13] = normal_rows
    block[:, 13] = contacts
    return SupervisionRecords(block)
