"""Demo generation equals its helper compositions bit for bit.

The planners, the ink stroke and `extract_supervision` write their vector
operations out on floats. `reference_demos` builds the same plans,
strokes and records from the geometry helpers, a segment or a column at a
time, in the order of operations the outputs were pinned with. Every float
here is compared by its bytes, so a signed zero or a last bit apart fails; an
input that one side rejects must be rejected by the other with the same error.
"""

from __future__ import annotations

import math
import struct
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_demos as ref

from admitsim.environments import HINGE_AXIS, InkGrid, PlaneBoard
from admitsim.expert import (
    ZERO_NORMAL,
    PhaseLabel,
    _arc,
    extract_supervision,
    plan_free_motion,
    plan_wiping,
)
from admitsim.geometry import _normalize
from admitsim.tasks import TASKS, _scribble, build_environment, task_spec


def vec_bytes(vectors) -> bytes:
    return b"".join(struct.pack("<3d", *v) for v in vectors)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared against the other side's outcome
        return type(exc), str(exc)


def floats(lo, hi):
    """Floats in [lo, hi], both zeros among them."""
    return st.one_of(st.floats(lo, hi), st.sampled_from((0.0, -0.0)))


positions = st.tuples(*[floats(-1.0, 1.0)] * 3)

# Board rotations.
quaternions = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0, 0.0), (1.0, -0.0, 0.0, -0.0), (0.0, 1.0, 0.0, 0.0),
                     (-0.0, 0.0, -1.0, 0.0)]),
    st.tuples(*[floats(-1.0, 1.0)] * 4).filter(lambda q: sum(c * c for c in q) > 1e-2),
)

unit_axes = st.one_of(
    st.sampled_from([HINGE_AXIS, (1.0, 0.0, 0.0), (-0.0, 0.0, -1.0), (0.0, -1.0, -0.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 1e-2).map(_normalize),
)

schedules = st.lists(positions, min_size=1, max_size=4)


# --------------------------------------------------------------------------
# Planners
# --------------------------------------------------------------------------

class TestFreeMotion:
    @given(schedule=schedules, steps=st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_lerp(self, schedule, steps):
        got = plan_free_motion(schedule, steps)
        assert vec_bytes(got) == vec_bytes(ref.plan_free_motion(schedule, steps))

    def test_rejections_match(self):
        for args in (([], 3), ([(0.0, 0.0, 0.0)], 0)):
            assert outcome(plan_free_motion, *args) == outcome(ref.plan_free_motion, *args)


class TestArc:
    @given(start=positions, axis=unit_axes, pivot=positions,
           total=st.one_of(st.floats(0.0, 2.0 * math.pi), st.sampled_from([0.0, -0.3, 1e-9])),
           sign=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_rodrigues_rotation(self, start, axis, pivot, total, sign):
        got = outcome(_arc, start, axis, pivot, total, sign)
        want = outcome(ref._arc, start, axis, pivot, total, sign)
        if isinstance(want, tuple) and isinstance(want[0], type):  # a start on the axis
            assert got == want
            return
        (positions, normals), (ref_positions, ref_normals) = got, want
        assert vec_bytes(positions) == vec_bytes(ref_positions)
        assert vec_bytes(normals) == vec_bytes(ref_normals)

    def test_a_start_on_the_axis_is_degenerate_on_both(self):
        start = (0.0, 0.0, 0.5)
        got = outcome(_arc, start, HINGE_AXIS, (0.0, 0.0, 0.0), 0.2)
        assert got == outcome(ref._arc, start, HINGE_AXIS, (0.0, 0.0, 0.0), 0.2)
        assert got[0].__name__ == "DegenerateInput"


def board_with_ink(center, rotation, seed, tilt):
    board = PlaneBoard(center=center, rotation=rotation)
    _scribble(board, np.random.default_rng(seed))
    if tilt:
        board.apply_disturbance_state((0.0, 0.01, -0.02), tilt, (1.0, 0.0, 0.0))
    return board


class TestWiping:
    @given(center=positions, rotation=quaternions, seed=st.integers(0, 2**32 - 1),
           tilt=st.sampled_from([0.0, 0.05, -0.2]), passes=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_matvec_sweep(self, center, rotation, seed, tilt, passes):
        board = board_with_ink(center, rotation, seed, tilt)
        got = plan_wiping(board, passes)
        assert vec_bytes(got) == vec_bytes(ref.plan_wiping(board, passes))

    def test_each_pass_repeats_the_first(self):
        board = board_with_ink((0.3, 0.0, 0.12), (1.0, 0.0, 0.0, 0.0), 5, 0.0)
        one, three = plan_wiping(board, 1), plan_wiping(board, 3)
        assert vec_bytes(three) == vec_bytes(one * 3) == vec_bytes(ref.plan_wiping(board, 3))


# --------------------------------------------------------------------------
# The ink stroke
# --------------------------------------------------------------------------

class ScriptedRng:
    """Stands in for the generator: uniform(lo, hi) returns the next scripted
    share s of the interval, lo + s (hi - lo)."""

    def __init__(self, shares):
        self.shares = list(shares)

    def uniform(self, lo, hi):
        return lo + self.shares.pop(0) * (hi - lo)


def inked_bytes(scribble, rng) -> bytes:
    board = PlaneBoard()
    scribble(board, rng)
    return board.ink.inked.tobytes()


class TestScribble:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_numpy_stroke(self, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert inked_bytes(_scribble, rng) == inked_bytes(ref.scribble, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws

    # A start near each edge of the region and a segment heading out: each
    # end is clipped to the edge.
    @pytest.mark.parametrize("shares", [
        (0.99, 0.5, 0.0, 0.0, 0.0),     # +x, three times
        (0.01, 0.5, 0.5, 0.5, 0.5),     # -x
        (0.5, 0.98, 0.25, 0.25, 0.3),   # +y
        (0.5, 0.02, 0.75, 0.75, 0.7),   # -y
        (1.0, 1.0, 0.125, 0.0, 0.875),  # the corner, then along the edges
    ], ids=["+x", "-x", "+y", "-y", "corner"])
    def test_a_stroke_clipped_at_the_edge(self, shares):
        got = inked_bytes(_scribble, ScriptedRng(shares))
        assert got == inked_bytes(ref.scribble, ScriptedRng(shares))
        assert any(got)


# Stroke points over the board and past its edges.
stroke_points = st.tuples(floats(-0.2, 0.2), floats(-0.15, 0.15))


def assert_near_matches(pts):
    """ink_stroke inks the same cells with _near as with the reference."""
    grid, ref_grid = InkGrid(), InkGrid()
    ref_grid._near = types.MethodType(ref.near, ref_grid)
    grid.ink_stroke(pts)
    ref_grid.ink_stroke(pts)
    assert grid.inked.tobytes() == ref_grid.inked.tobytes()


class TestNear:
    @given(pts=st.lists(stroke_points, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    @example(pts=[(0.01, -0.02)])
    @example(pts=[(0.01, -0.02), (0.01, -0.02), (0.05, 0.0)])
    def test_equals_the_segment_loop(self, pts):
        assert_near_matches(pts)

    @pytest.mark.parametrize("pts", [
        [(0.02, 0.03)],                                # a single point
        [(0.02, 0.03), (0.02, 0.03)],                  # a segment of no length
        [(0.02, 0.03), (0.02 + 1e-10, 0.03)],          # den < 1e-18
        [(-0.0, 0.0), (0.0, -0.0), (0.04, 0.0)],       # signed zeros, then a segment
        [(-0.16, 0.0), (0.16, 0.11)],                  # past the board's edges
    ], ids=["point", "zero-length", "degenerate", "signed-zeros", "past-the-edges"])
    def test_each_branch(self, pts):
        assert_near_matches(pts)


# --------------------------------------------------------------------------
# Supervision extraction
# --------------------------------------------------------------------------

def assert_extract_matches(positions, phases, grippers, normals):
    got = outcome(extract_supervision, positions, phases, grippers, normals)
    want = outcome(ref.extract_supervision, positions, phases, grippers, normals)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.block.shape == want.block.shape
        assert got.block.tobytes() == want.block.tobytes()


@st.composite
def plans(draw):
    """(positions, phases, grippers, normals) of 2-8 steps. The normals are
    shared by object over runs of positions, fresh, unit or not, or ZERO_NORMAL, under
    any phase: contact may end anywhere."""
    n = draw(st.integers(2, 8))
    shared = draw(st.tuples(*[floats(-2.0, 2.0)] * 3))
    normal = st.one_of(st.just(ZERO_NORMAL), st.just(shared),
                       st.tuples(*[floats(-2.0, 2.0)] * 3))
    steps = st.tuples(positions, st.sampled_from(PhaseLabel),
                      floats(0.0, 1.0), normal)
    return tuple(map(list, zip(*draw(st.lists(steps, min_size=n, max_size=n)))))


def task_plan(task, seed, passes):
    spec = task_spec(task)
    env = build_environment(task, np.random.default_rng(seed))
    return spec.plan(env, passes) if spec.multipass else spec.plan(env)


class TestExtractSupervision:
    @given(task=st.sampled_from(TASKS), seed=st.integers(0, 2**32 - 1),
           passes=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_every_task_plan(self, task, seed, passes):
        assert_extract_matches(*task_plan(task, seed, passes))

    @given(plan=plans())
    @settings(max_examples=150, deadline=None)
    def test_any_plan(self, plan):
        assert_extract_matches(*plan)

    def test_a_contact_that_ends_mid_plan(self):
        # Contact at steps 0-2; position 3 has no normal, so step 2 keeps
        # position 2's.
        positions = [(0.1 * i, -0.0, 0.2) for i in range(6)]
        phases = [PhaseLabel.CONTACT] * 3 + [PhaseLabel.RETRACT] * 3
        nu = (0.0, -0.6, 0.8)
        normals = [nu, nu, (0.0, 0.0, 2.0), ZERO_NORMAL, ZERO_NORMAL, ZERO_NORMAL]
        got = extract_supervision(positions, phases, [1.0] * 6, normals)
        assert got.block[2, 10:13].tolist() == [0.0, 0.0, 1.0]
        assert_extract_matches(positions, phases, [1.0] * 6, normals)

    def test_a_degenerate_normal_raises_alike(self):
        positions = [(0.0, 0.0, 0.0)] * 3
        normals = [(0.0, 0.0, 1.0), (math.nan, 0.0, 1.0), (0.0, 0.0, 1.0)]
        phases = [PhaseLabel.CONTACT] * 3
        got = outcome(extract_supervision, positions, phases, [1.0] * 3, normals)
        assert got[0].__name__ == "DegenerateInput"
        assert_extract_matches(positions, phases, [1.0] * 3, normals)

    def test_the_block_owns_its_buffer(self):
        block = extract_supervision(*task_plan("DO", 1, 1)).block
        assert block.base is None and block.flags.c_contiguous and block.dtype == np.float64

