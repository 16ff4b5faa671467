"""The environment laws, one class each: the board (its spring, ink, eraser
and wiping gate), the bore, the door, the friction law, the disturbances and
the constructors.

The fixed values (the board, bore, door and friction constants) are taken by
no constructor, so no constructor checks them. Each one keeps the value it had
as a constructor default, lies in the range its constructor check enforced,
and acts where the environment reads it, which the tests of its law check.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from reference_demos import near
from scenarios import flat_board, lever_door, lever_grasp, microwave, microwave_grasp

from admitsim import environments, harness
from admitsim.environments import (
    BOARD_EXTENT,
    BOARD_FRICTION,
    CELL_SIZE,
    CHAMFER,
    CLEARANCE,
    COULOMB_V_EPS,
    DISTURBANCE_KINDS,
    DOOR_FRICTION,
    ERASER_HALF,
    F_MIN_WIPE,
    GRASP_TOL,
    HANDLE_LEVER,
    HANDLE_SPRING,
    HINGE_AXIS,
    HOLE_DEPTH,
    HOLE_FRICTION,
    HOLE_RADIUS,
    LATCH_THRESHOLD,
    PEN_RADIUS,
    PERSISTENT_KINDS,
    RELEASE_ANGLE,
    WALL_STIFFNESS,
    DisturbanceEvent,
    FrictionModel,
    HingedDoor,
    HoleFixture,
    InkGrid,
    PlaneBoard,
    apply_disturbances,
    update_ink,
)
from admitsim.errors import DegenerateInput, check_range
from admitsim.geometry import _matvec, _quat_matrix, quat_from_axis_angle
from admitsim.tasks import TASK_SPECS, TASKS, build_environment

Z = np.array([0.0, 0.0, 1.0])


def point(x, y, z):
    """A position as the float tuple the per-tick methods take."""
    return (float(x), float(y), float(z))


# ----------------------------------------------------------------------------
# Board: the spring, the ink, the eraser and the wiping gate
# ----------------------------------------------------------------------------

# Board-frame stroke coordinates: the 30 x 20 cm board, its edges, cell
# boundaries and centres (multiples of 2.5 mm) and points off the board.
_STROKE_COORD = st.one_of(
    st.floats(-0.2, 0.2),
    st.integers(-80, 80).map(lambda k: 0.0025 * k),
    st.sampled_from([-0.15, 0.15, -0.1, 0.1, -0.154, 0.154]),
)
_POSITION = st.tuples(*[st.floats(-0.15, 0.15)] * 3)
_VELOCITY = st.tuples(*[st.floats(-0.6, 0.6)] * 3)


def wipe(board, *points):
    """update_ink after a press at each point, one tick apart, as the episode
    loop records the tick of a press at or above F_MIN_WIPE."""
    board.presses.extend(range(len(points)))
    return update_ink(board, np.reshape(points, (-1, 3)))


class TestBoard:
    def test_linear_spring_value(self):
        board = flat_board(k_e=1000.0)
        w = board.external_wrench(point(0, 0, -0.004), np.zeros(3))
        assert_allclose(w, [0, 0, 4.0], atol=1e-12)

    @given(k_e=st.floats(100.0, 5000.0), p=_POSITION, vel=_VELOCITY)
    @example(k_e=1000.0, p=(0.0, 0.0, 0.01), vel=(0.0, 0.0, 0.0))  # above the board
    @settings(max_examples=60, deadline=None)
    def test_unilateral_and_dissipative(self, k_e, p, vel):
        board = flat_board(k_e=k_e)
        force = np.array(board.external_wrench(p, vel))
        fn = float(force @ Z)
        assert fn >= 0.0  # springs push, never pull
        pen = -p[2]
        if pen <= 0:
            assert_allclose(force, np.zeros(3))
        v_t = np.array(vel) - vel[2] * Z
        f_t = force - fn * Z
        assert float(f_t @ v_t) <= 1e-12  # friction never adds energy

    def test_the_ink_grid_covers_the_board_extent(self):
        ink = InkGrid()
        assert (ink.nx * CELL_SIZE, ink.ny * CELL_SIZE) == pytest.approx(BOARD_EXTENT, abs=1e-12)
        ink.inked[:] = True
        centers = ink.inked_centers()
        half = 0.5 * np.array(BOARD_EXTENT) - 0.5 * CELL_SIZE
        assert_allclose(centers.min(axis=0), -half, atol=1e-12)
        assert_allclose(centers.max(axis=0), half, atol=1e-12)

    @pytest.mark.parametrize("force,pressed",
                             [(math.nextafter(F_MIN_WIPE, 0.0), 0), (F_MIN_WIPE, 1)],
                             ids=["below", "at"])
    def test_wiping_is_gated_at_f_min_wipe(self, force, pressed, monkeypatch):
        """A tick records a press to wipe when the raw force along the board
        normal is at least F_MIN_WIPE."""
        ep = harness._Episode(harness.ScenarioConfig("WW", duration=1.0))
        board = ep.env
        board.surface_normal = (0.0, 0.0, 1.0)
        board.external_wrench = lambda pos, vel: (0.0, 0.0, force)
        seen = []
        wipe = harness.update_ink
        monkeypatch.setattr(harness, "update_ink", lambda board, positions:
                            seen.append(len(board.presses)) or wipe(board, positions))
        ep.advance(1)
        assert seen == [pressed]

    @pytest.mark.parametrize("x,y", [(0.0, 0.0), (0.031, -0.042), (-0.1, 0.07)])
    def test_eraser_cleans_the_square_of_eraser_half(self, x, y):
        board = flat_board()
        board.ink.inked[:] = True
        centers = board.ink.inked_centers()
        inside = np.abs(centers - (x, y)).max(axis=1) <= ERASER_HALF
        board.presses.append(0)
        wiped = update_ink(board, np.array([(x, y, -0.004)]))
        assert wiped == inside.sum() > 0
        assert type(wiped) is int  # counts feed JSON reports and sums
        left = board.ink.inked.reshape(-1)  # inked_centers lists the cells in this order
        assert not left[inside].any()
        assert left[~inside].all()

    def test_a_call_wipes_each_press_once_and_forgets_them(self):
        board = flat_board()
        board.ink.inked[:, :] = False
        board.ink.inked[30, 20] = True
        (c,) = board.ink.inked_centers()
        assert wipe(board) == 0  # nothing pressed
        assert wipe(board, point(c[0], c[1], -0.004), point(c[0], c[1], -0.004)) == 1
        assert (len(board.presses), board.ink.inked_count()) == (0, 0)
        assert board.segments == [(0, board.rest_point, board.frame)]

    def test_a_direct_write_is_wiped(self):
        board = flat_board()
        board.ink.ink_stroke(np.array([[-0.05, 0.0], [-0.04, 0.0]]))
        board.ink.inked[50, 30] = True
        c = ((50 + 0.5) * CELL_SIZE - 0.5 * BOARD_EXTENT[0],
             (30 + 0.5) * CELL_SIZE - 0.5 * BOARD_EXTENT[1])
        assert wipe(board, point(c[0], c[1], -0.004)) == 1

    def test_a_press_wipes_at_the_position_of_its_tick(self):
        """A press names the row of its tick in positions; rows of ticks that
        did not press are not wiped."""
        board = flat_board()
        board.ink.inked[:, :] = False
        board.ink.inked[30, 20] = True
        (c,) = board.ink.inked_centers()
        positions = np.array([point(-0.1, 0.05, -0.004), point(c[0], c[1], -0.004),
                              point(0.1, -0.05, -0.004)])
        board.presses.extend([0, 2])
        assert update_ink(board, positions) == 0
        board.presses.append(1)
        assert update_ink(board, positions) == 1

    @pytest.mark.parametrize("reink", ["stroke", "direct_write"])
    def test_a_window_wiped_clean_is_wiped_again_once_reinked(self, reink):
        """Re-inking cells inside a window wiped clean, by a stroke or by a
        direct write, makes the next wipe there count them."""
        ink = flat_board().ink
        ink.ink_stroke(np.array([[-0.05, 0.0], [0.05, 0.0]]))
        origin = np.zeros(1)
        assert ink.wipe(origin, origin) > 0
        assert ink.wipe(origin, origin) == 0
        wiped = ink.inked_count()
        if reink == "stroke":
            ink.ink_stroke(np.array([[-0.002, 0.0], [0.002, 0.0]]))
        else:
            i, j = ink.nx // 2, ink.ny // 2  # the four cells around the board center
            ink.inked[i - 1:i + 1, j - 1:j + 1] = True
        before = ink.inked_count()
        fresh = before - wiped
        assert fresh > 0
        assert ink.wipe(origin, origin) == fresh
        assert ink.inked_count() == before - fresh
        assert ink.wipe(origin, origin) == 0

    def test_stroke_conservation(self):
        board = flat_board()
        assert board.measure(None) == 0.0  # a board is built clean
        board.ink.ink_stroke(np.array([[-0.05, 0.0], [0.05, 0.0]]))
        n = board.ink.inked_count()
        assert n > 0
        assert board.measure(None) == pytest.approx(n * 0.5)  # cm of stroke per cell

    @given(st.lists(st.tuples(_STROKE_COORD, _STROKE_COORD), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_stroke_inks_what_a_full_grid_evaluation_inks(self, points):
        ink = flat_board().ink
        pts = np.array(points)
        ink.ink_stroke(pts)
        assert np.array_equal(ink.inked, near(ink, pts, 0, ink.nx, 0, ink.ny))

    @given(st.tuples(_STROKE_COORD, _STROKE_COORD))
    @settings(max_examples=100, deadline=None)
    def test_a_one_point_stroke_inks_its_zero_length_segment(self, p):
        one, segment = flat_board().ink, flat_board().ink
        one.ink_stroke([p])
        segment.ink_stroke([p, p])
        assert np.array_equal(one.inked, segment.inked)

    def test_a_cell_centre_at_pen_radius_is_inked(self):
        """A one-point stroke whose distance from the centre of cell (30, 20)
        rounds to PEN_RADIUS exactly inks that cell and the next one along x."""
        ink = flat_board().ink
        cx, cy = (30 + 0.5) * CELL_SIZE - ink._x0, (20 + 0.5) * CELL_SIZE - ink._y0
        assert cx - (cx + PEN_RADIUS) == -PEN_RADIUS
        ink.ink_stroke([(cx + PEN_RADIUS, cy)])
        assert np.argwhere(ink.inked).tolist() == [[30, 20], [31, 20]]

    def test_stroke_rejects_non_finite_input(self):
        ink = flat_board().ink
        with pytest.raises(ValueError):
            ink.ink_stroke(np.array([[0.0, 0.0], [np.nan, 0.01]]))
        assert ink.inked_count() == 0

    @pytest.mark.parametrize("pts", [[0.01, 0.02], [[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]],
                                     [[[0.0, 0.0]]], [[0.0], [0.01]]],
                             ids=["flat-pair", "three-columns", "nested", "one-column"])
    def test_stroke_rejects_points_not_n_by_2(self, pts):
        ink = flat_board().ink
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            ink.ink_stroke(pts)
        assert ink.inked_count() == 0

    @pytest.mark.parametrize("pts", [[], np.zeros((0, 2))], ids=["list", "array"])
    def test_an_empty_stroke_inks_nothing(self, pts):
        ink = flat_board().ink
        ink.ink_stroke(pts)
        assert ink.inked_count() == 0

    def test_monotone_under_wiping(self):
        board = flat_board()
        board.ink.ink_stroke(np.array([[-0.05, 0.0], [0.05, 0.0]]))
        last = board.measure(None)
        rng = np.random.default_rng(0)
        for _ in range(50):
            wipe(board, point(rng.uniform(-0.06, 0.06), rng.uniform(-0.01, 0.01), -0.004))
            now = board.measure(None)
            assert now <= last
            last = now


# ----------------------------------------------------------------------------
# Bore: the depth reading, the wall beyond the clearance, the bottom spring,
# the funnel and the top plate
# ----------------------------------------------------------------------------

def bore():
    return HoleFixture(rim_center=(0.0, 0.0, 0.0), k_e=1000.0)


class TestBore:
    @pytest.mark.parametrize("tip,depth", [
        ((0.0, 0.0, 0.0), 0.0), ((0.0, 0.0, -0.010), 10.0), ((0.0, 0.0, -0.030), 25.0),
        ((0.012, 0.0, -0.006), 0.0), ((0.0, -0.0089, -0.006), 6.0),
        ((HOLE_RADIUS + CHAMFER, 0.0, -0.006), 6.0),
    ], ids=["rim", "success-depth", "clamped-at-the-bottom", "beside", "funnel", "funnel-rim"])
    def test_depth_below_the_rim_inside_the_opening(self, tip, depth):
        # In mm, clamped to HOLE_DEPTH. A peg pressed 6 mm into the top plate,
        # 12 mm off the axis, is not inserted; inside the chamfer's funnel, up
        # to and at 9 mm off, it is.
        assert HoleFixture(rim_center=(0.0, 0.0, 0.0)).measure(tip) == pytest.approx(
            depth, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("r,depth", [
        (0.0, 0.01), (0.5 * CLEARANCE, 0.01), (CLEARANCE, 0.01), (1.5 * CLEARANCE, 0.01),
        (HOLE_RADIUS, 0.01), (1.5 * CLEARANCE, 0.0),
    ], ids=["axis", "half-clearance", "clearance", "wall", "radius", "rim-plane"])
    def test_wall_pushes_back_beyond_the_clearance(self, r, depth):
        # A tip in the rim plane has not entered the bore: its wall does not push.
        force = bore().external_wrench((r, 0.0, -depth), (0.0, 0.0, 0.0))
        expected = -WALL_STIFFNESS * (r - CLEARANCE) if r > CLEARANCE and depth else 0.0
        assert force == pytest.approx((expected, 0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("past", [-0.001, 0.0, 0.002], ids=["above", "at", "below"])
    def test_bottom_spring_starts_at_the_hole_depth(self, past):
        force = bore().external_wrench((0.0, 0.0, -(HOLE_DEPTH + past)), (0.0, 0.0, 0.0))
        assert force == pytest.approx((0.0, 0.0, 1000.0 * max(0.0, past)), abs=1e-9)

    @pytest.mark.parametrize("r", [HOLE_RADIUS + 0.5 * CHAMFER, HOLE_RADIUS + CHAMFER],
                             ids=["mid-funnel", "funnel-rim"])
    def test_funnel_reaction_leans_toward_the_axis(self, r):
        depth = 0.004  # at r = HOLE_RADIUS + CHAMFER the tip is still in the funnel
        force = bore().external_wrench((r, 0.0, -depth), (0.0, 0.0, 0.0))
        h = math.sqrt(0.5)
        f_n = 1000.0 * (depth - (HOLE_RADIUS + CHAMFER - r)) * h
        assert force == pytest.approx((-f_n * h, 0.0, f_n * h), rel=1e-12)


# ----------------------------------------------------------------------------
# Door: grasp, opening angle, snap lock, handle latch, handle circle and spring
# ----------------------------------------------------------------------------

def latch_term(door, p):
    """The latch part of the door's wrench at p (at rest): the wrench minus that
    of the same door with a zero latch force."""
    full = np.array(door.external_wrench(p, np.zeros(3)))
    latch_force = door.latch_force
    door.latch_force = 0.0
    try:
        free = np.array(door.external_wrench(p, np.zeros(3)))
    finally:
        door.latch_force = latch_force
    return full - free


class TestDoor:
    @pytest.mark.parametrize("distance,gripper,engaged", [
        (0.0, 1.0, True), (0.5 * GRASP_TOL, 1.0, True), (math.nextafter(GRASP_TOL, 0.0), 1.0, True),
        (GRASP_TOL, 1.0, False), (2.0 * GRASP_TOL, 1.0, False), (0.0, 0.0, False),
        (0.0, 0.5, False),
    ], ids=["at-grasp", "half", "just-inside", "at-tolerance", "twice", "gripper-open",
            "gripper-half"])
    def test_gripper_closes_on_the_handle_within_grasp_tol(self, distance, gripper, engaged):
        door = microwave()
        door.update((distance, 0.0, 0.0), gripper)
        assert door.engaged is engaged
        if not engaged:  # a door not held takes no force
            assert door.external_wrench(door.grasp0, (0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("gripper,engaged", [(0.0, False), (0.5, True)], ids=["open", "half"])
    def test_opening_the_gripper_lets_go(self, gripper, engaged):
        """A gripper opened below 0.5 lets go of the door, which then takes no force."""
        door = lever_door()
        door.update(door.grasp0, 1.0)
        p = lever_grasp(0.5 * LATCH_THRESHOLD)
        door.update(p, gripper)
        assert door.engaged is engaged
        assert (door.external_wrench(p, (0.0, 0.0, 0.0)) != (0.0, 0.0, 0.0)) is engaged

    @pytest.mark.parametrize("sense", [1.0, -1.0], ids=["opening", "closing"])
    def test_the_door_opens_in_the_opening_sense(self, sense):
        door = microwave()
        door.update(door.grasp0, 1.0)
        assert door.measure(None) == 0.0
        door.update(microwave_grasp(sense * 0.2), 1.0)
        assert door.door_angle == pytest.approx(max(0.0, sense * 0.2), abs=1e-12)
        assert door.measure(None) == math.degrees(door.door_angle)

    @pytest.mark.parametrize("share,released", [(0.9, False), (1.1, True)], ids=["inside", "past"])
    def test_snap_lock_yields_past_the_release_angle(self, share, released):
        door = microwave()
        door.update(door.grasp0, 1.0)
        p = microwave_grasp(share * RELEASE_ANGLE)
        door.update(p, 1.0)
        assert door.latch_released is released
        # The latch pulls against opening, along -d p / d angle (unit), while latched.
        angle = share * RELEASE_ANGLE
        opening = np.array([-math.cos(angle), math.sin(angle), 0.0])
        assert_allclose(latch_term(door, p), -door.latch_force * opening * (not released),
                        atol=1e-12)

    @pytest.mark.parametrize("share,released", [(0.9, False), (1.0, True), (1.1, True)],
                             ids=["inside", "at", "past"])
    def test_bolt_yields_at_the_latch_threshold(self, share, released):
        door = lever_door()
        door.update(door.grasp0, 1.0)
        p = lever_grasp(share * LATCH_THRESHOLD, door_shift=0.01)
        door.update(p, 1.0)
        assert door.handle_angle == pytest.approx(share * LATCH_THRESHOLD, rel=1e-12)
        if share == 1.0:  # the tie itself
            assert door.handle_angle == LATCH_THRESHOLD
        assert door.door_angle > 0.0
        assert door.latch_released is released
        latch = np.linalg.norm(latch_term(door, p))
        assert latch == (0.0 if released else pytest.approx(door.latch_force))

    def test_hysteresis_once_released(self):
        door = microwave()
        door.update(door.grasp0, 1.0)  # engage
        assert door.engaged
        # Drag the grasp past the snap angle, then back toward closed.
        door.update(microwave_grasp(0.2), 1.0)
        assert door.latch_released
        door.update(door.grasp0, 1.0)
        assert door.latch_released  # stays released
        assert_allclose(latch_term(door, door.grasp0), np.zeros(3))

    @pytest.mark.parametrize("build", [microwave, lever_door], ids=["microwave", "door"])
    def test_latched_wrench_on_hinge_axis(self, build):
        # A latched door opened a little; the hinge radial vanishes on the axis,
        # so the latch term is left out there instead of being undefined.
        door = build()
        door.update(door.grasp0, 1.0)
        p = microwave_grasp(math.radians(1.0)) if door.microwave else \
            lever_grasp(math.radians(10.0), door_shift=0.01)
        door.update(p, 1.0)
        assert door.engaged and not door.latch_released and door.door_angle > 0.0
        on_axis = np.array(door.hinge_pivot) + 0.05 * np.array(HINGE_AXIS)
        force = np.array(door.external_wrench(on_axis, np.zeros(3)))
        assert np.isfinite(force).all()
        assert_allclose(latch_term(door, on_axis), np.zeros(3))
        if door.microwave:  # the hinge circle is the active one: no term at all
            assert_allclose(force, np.zeros(3))

    @pytest.mark.parametrize("offset", [0.0, 0.001, -0.001], ids=["on", "outside", "inside"])
    def test_the_latched_handle_circle_has_radius_handle_lever(self, offset):
        door = lever_door()
        door.update(door.grasp0, 1.0)
        force = door.external_wrench((0.0, -(HANDLE_LEVER + offset), 0.0), (0.0, 0.0, 0.0))
        assert force == pytest.approx((0.0, 1000.0 * offset, 0.0), abs=1e-9)

    @pytest.mark.parametrize("angle", [math.radians(10.0), math.radians(20.0)],
                             ids=["10deg", "20deg"])
    def test_handle_spring_turns_the_handle_back(self, angle):
        door = lever_door(latch_force=0.0)
        door.update(door.grasp0, 1.0)
        p = lever_grasp(angle)
        door.update(p, 1.0)
        assert not door.latch_released and door.door_angle == 0.0
        force = np.array(door.external_wrench(p, (0.0, 0.0, 0.0)))
        turning = np.array([0.0, math.sin(angle), -math.cos(angle)])  # d p / d angle, unit
        assert_allclose(force, -HANDLE_SPRING * angle * turning, atol=1e-9)


# ----------------------------------------------------------------------------
# Friction: one regularized Coulomb/viscous law per environment kind
# ----------------------------------------------------------------------------

FRICTIONS = {"board": BOARD_FRICTION, "hole": HOLE_FRICTION, "door": DOOR_FRICTION}


class TestFriction:
    @pytest.mark.parametrize("speed", [0.5 * COULOMB_V_EPS, 10.0 * COULOMB_V_EPS, 5e-16, 1e-15],
                             ids=["ramped", "full", "cut-off", "at-cut-off"])
    @pytest.mark.parametrize("kind", list(FRICTIONS))
    def test_slip_force_law(self, kind, speed):
        model = FRICTIONS[kind]
        force = model.slip_force((speed, 0.0, 0.0), -3.0)
        if speed < 1e-15:  # below the cut-off the law gives no force at all
            assert force == (0.0, 0.0, 0.0)
            return
        magnitude = (model.coulomb_mu * 3.0 * min(1.0, speed / COULOMB_V_EPS)
                     + model.viscous_c * speed)
        assert force[0] == pytest.approx(-magnitude, rel=1e-12)
        assert force[1:] == (0.0, 0.0)

    def test_board_slides_with_board_friction(self):
        force = flat_board().external_wrench((0.0, 0.0, -0.004), (0.5, 0.0, 0.0))
        f_n = 1000.0 * 0.004
        slip = BOARD_FRICTION.coulomb_mu * f_n + BOARD_FRICTION.viscous_c * 0.5
        assert force == pytest.approx((-slip, 0.0, f_n), rel=1e-12)

    def test_top_plate_slides_with_hole_friction(self):
        pos = (HOLE_RADIUS + CHAMFER + 0.005, 0.0, -0.002)
        force = bore().external_wrench(pos, (0.0, 0.5, 0.0))
        f_n = 1000.0 * 0.002
        slip = HOLE_FRICTION.coulomb_mu * f_n + HOLE_FRICTION.viscous_c * 0.5
        assert force == pytest.approx((0.0, -slip, f_n), rel=1e-12)

    def test_door_slides_on_its_circle_with_door_friction(self):
        door = microwave()
        door.update(door.grasp0, 1.0)
        # 1 mm outside the hinge circle, moving along it at 1 m/s.
        force = door.external_wrench((0.0, -0.001, 0.0), (1.0, 0.0, 0.0))
        f_con = -1000.0 * 0.001
        slip = DOOR_FRICTION.coulomb_mu * abs(f_con) + DOOR_FRICTION.viscous_c * 1.0
        assert force == pytest.approx((-slip, -f_con, 0.0), rel=1e-9)

    @pytest.mark.parametrize("build,pos", [(flat_board, (0.0, 0.0, 0.0)),
                                           (bore, (0.0, 0.0, -HOLE_DEPTH))],
                             ids=["board-surface", "bore-bottom"])
    def test_a_spring_at_its_rest_length_holds_no_slip(self, build, pos):
        """A contact spring at its rest length presses with no force, so a tip
        sliding on it meets no friction, not even the viscous part."""
        assert build().external_wrench(pos, (0.5, 0.2, 0.0)) == (0.0, 0.0, 0.0)


# ----------------------------------------------------------------------------
# Disturbances
# ----------------------------------------------------------------------------

def _profile(ev, t):
    """The activation envelope, by its own branches."""
    if t < ev.start:
        return 0.0
    rel = t - ev.start
    if ev.kind in PERSISTENT_KINDS:
        return 1.0 if ev.ramp <= 0.0 else min(1.0, rel / ev.ramp)
    if rel > ev.duration:
        return 0.0
    if ev.ramp <= 0.0:
        return 1.0
    return max(0.0, min(1.0, rel / ev.ramp, (ev.duration - rel) / ev.ramp))


def _settled(ev, t):
    """Whether the envelope holds from t on, by its own branches: a persistent
    kind at the end of its ramp, a windowed kind once its window has passed."""
    if t < ev.start:
        return False
    rel = t - ev.start
    if ev.kind in PERSISTENT_KINDS:
        return ev.ramp <= 0.0 or rel / ev.ramp >= 1.0
    return rel > ev.duration


class TestDisturbances:
    def test_before_start_unchanged(self):
        board = flat_board()
        rest0 = board.rest_point
        ev = DisturbanceEvent("lower", start=5.0, duration=10.0, magnitude=0.03, ramp=0.5)
        apply_disturbances(board, (ev,), 1.0)
        assert_allclose(board.rest_point, rest0)

    def test_lower_ramps_then_holds(self):
        board = flat_board()
        ev = DisturbanceEvent("lower", start=5.0, duration=10.0, magnitude=0.03, ramp=0.5)
        apply_disturbances(board, (ev,), 5.25)
        assert board.rest_point[2] == pytest.approx(-0.015)
        apply_disturbances(board, (ev,), 8.0)
        assert board.rest_point[2] == pytest.approx(-0.03)
        apply_disturbances(board, (ev,), 100.0)
        assert board.rest_point[2] == pytest.approx(-0.03)  # persists

    def test_sinusoid_profile(self):
        ev = DisturbanceEvent("sinusoid", start=0.0, duration=100.0, magnitude=0.005,
                              ramp=0.0, omega=2 * math.pi)
        board = flat_board()
        apply_disturbances(board, (ev,), 0.25)
        assert board.rest_point[2] == pytest.approx(0.005)
        apply_disturbances(board, (ev,), 0.75)
        assert board.rest_point[2] == pytest.approx(-0.005)

    def test_zero_tilt_keeps_the_unit_normal(self):
        """A disturbance that has not tilted the board leaves its normal
        bit for bit as built (the unit normal, not the raw rotated axis)."""
        raise_later = harness.default_disturbance("WW")  # a raise starting at 5 s
        for seed in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([seed, TASKS.index("WW")]))
            board = build_environment("WW", rng)
            clean = board.surface_normal
            apply_disturbances(board, raise_later, 0.0)
            assert board.surface_normal == clean, seed

    def test_tilt_back_to_zero_restores_the_board(self):
        board = PlaneBoard(rotation=quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.3))
        built = (board.rotation, board.frame, board.surface_normal)
        x = np.array([1.0, 0.0, 0.0])
        events = (DisturbanceEvent("tilt", 1.0, 5.0, 0.05, direction=x),
                  DisturbanceEvent("tilt", 2.0, 5.0, -0.05, direction=x))
        apply_disturbances(board, events, 1.5)
        assert board.surface_normal != built[2]
        apply_disturbances(board, events, 3.0)
        assert (board.rotation, board.frame, board.surface_normal) == built

    def test_segments_carry_the_frame_of_each_tilt(self):
        """The frame is the rows of the rotation's matrix, the tilted normal is
        its +z column as is (not re-normalized), and each segment holds the
        frame its presses were made under."""
        board = PlaneBoard(rotation=quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.4))
        tilt = (DisturbanceEvent("tilt", 1.0, 5.0, 0.2, direction=(1.0, 1.0, 0.0), ramp=1.0),)
        frames = [board.frame]
        for t in (1.25, 1.5, 3.0):
            board.presses.append(len(board.presses))
            apply_disturbances(board, tilt, t)
            assert board.frame == _quat_matrix(board.rotation)
            assert board.surface_normal == _matvec(board.frame, (0.0, 0.0, 1.0))
            frames.append(board.frame)
        assert len(set(frames)) == 4
        assert [frame for _, _, frame in board.segments] == frames
        assert [start for start, _, _ in board.segments] == [0, 1, 2, 3]

    def test_force_pulse_moves_no_door_geometry(self):
        for task in ("MO", "DO"):
            rng = np.random.default_rng(np.random.SeedSequence([0, TASKS.index(task)]))
            door = build_environment(task, rng)
            built = dict(vars(door))
            (pulse,) = harness.default_disturbance(task)
            force, active, settled = apply_disturbances(door, (pulse,),
                                                        pulse.start + 0.5 * pulse.duration)
            assert active and not settled and np.linalg.norm(force) > 0.0
            assert vars(door) == built, task

    @pytest.mark.parametrize("kind", DISTURBANCE_KINDS)
    @pytest.mark.parametrize("task", TASKS)
    def test_the_declared_kinds_are_the_ones_that_act(self, task, kind):
        """One event at full envelope, through apply_disturbances, on the
        board (WW), the bore (PH), the microwave (MO) and the door (DO): a kind
        the environment's class declares rebinds some of its state, or for a
        force pulse returns a force, and any other kind rebinds nothing and
        returns no force."""
        env = build_environment(task, np.random.default_rng(0))
        built = dict(vars(env))
        # A quarter period after the start: the sinusoid's crest.
        event = DisturbanceEvent(kind, start=0.0, duration=1.0, magnitude=0.1,
                                 direction=(0.6, 0.0, 0.8))
        force, active, _ = apply_disturbances(env, (event,), 0.25)
        assert active and event.envelope(0.25)[0] == 1.0
        if kind not in type(env).DISTURBANCES:
            assert vars(env) == built and force == (0.0, 0.0, 0.0)
        elif kind == "force_pulse":
            assert force != (0.0, 0.0, 0.0)
        else:
            assert vars(env) != built

    def test_profiles_continuous(self):
        events = [
            DisturbanceEvent("raise", 1.0, 5.0, 0.05, ramp=0.5),
            DisturbanceEvent("force_pulse", 2.0, 1.0, 10.0, ramp=0.2),
            DisturbanceEvent("sinusoid", 0.5, 4.0, 0.005, ramp=0.5),
        ]
        ts = np.linspace(0.0, 8.0, 4001)
        for ev in events:
            vals = np.array([ev.envelope(t)[0] * ev.magnitude for t in ts])
            jumps = np.abs(np.diff(vals))
            assert jumps.max() < ev.magnitude * 0.02  # ramped, no steps

    @given(kind=st.sampled_from(DISTURBANCE_KINDS),
           start=st.floats(-5.0, 5.0), duration=st.floats(0.001, 3.0),
           ramp_share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           magnitude=st.floats(-10.0, 10.0), omega=st.floats(-20.0, 20.0),
           t=st.floats(-6.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_settled_values_hold(self, kind, start, duration, ramp_share, magnitude, omega, t):
        """From a time where an event is settled on, its envelope and the
        amplitude apply_disturbances reads stay bit for bit the same."""
        ev = DisturbanceEvent(kind, start, duration, magnitude,
                              ramp=min(duration, ramp_share * duration), omega=omega)
        p, settled = ev.envelope(t)
        if not settled:
            return
        a = ev.amplitude(t, p)
        later = [math.nextafter(t, math.inf)] + [
            t + float(dt) for dt in np.linspace(0.0, 4.0 * duration + 1.0, 401)]
        for u in later:
            q, still = ev.envelope(u)
            assert still
            assert q.hex() == p.hex()
            if kind == "sinusoid":
                # Settled only past its window: the envelope is 0 there, and
                # apply_disturbances adds no offset of an envelope of 0.
                assert p == 0.0 and ev.amplitude(u, p) == 0.0
            else:
                assert ev.amplitude(u, p).hex() == a.hex()

    @pytest.mark.parametrize("ev,first", [
        (DisturbanceEvent("raise", 1.0, 2.0, 0.01, ramp=0.5), 1.5),
        (DisturbanceEvent("tilt", 1.0, 2.0, 0.01, ramp=0.0), 1.0),
        (DisturbanceEvent("force_pulse", 1.0, 2.0, 5.0, ramp=0.5), math.nextafter(3.0, 4.0)),
        (DisturbanceEvent("sinusoid", 1.0, 2.0, 0.01), math.nextafter(3.0, 4.0)),
    ])
    def test_settled_from_the_end_of_the_ramp_or_the_window(self, ev, first):
        assert not ev.envelope(math.nextafter(first, 0.0))[1]
        assert ev.envelope(first)[1]

    @pytest.mark.parametrize("kind", DISTURBANCE_KINDS)
    @pytest.mark.parametrize("start,duration,ramp", [
        (1.0, 2.0, 0.5), (1.0, 2.0, 0.0), (1.0, 2.0, 2.0), (-1e308, 1.0, 0.3),
        (0.1, 0.3, 0.1), (0.0015, 1.0, 0.5)])
    def test_envelope_is_the_profile_and_settled_pair(self, kind, start, duration, ramp):
        """envelope(t) equals the activation and the settled flag, each
        computed by its own branches, on both sides of every edge of the
        event."""
        ev = DisturbanceEvent(kind, start, duration, 0.01, ramp=ramp)
        for edge in (start, start + ramp, start + duration - ramp, start + duration):
            for t in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                p, settled = ev.envelope(t)
                assert (p.hex(), settled) == (_profile(ev, t).hex(), _settled(ev, t)), t

    def test_apply_disturbances_reports_every_event_settled(self):
        board = flat_board()
        events = (DisturbanceEvent("raise", 1.0, 5.0, 0.01, ramp=0.5),
                  DisturbanceEvent("sinusoid", 1.2, 1.0, 0.002, ramp=0.1))
        for t in (0.0, 1.0, 1.5, 2.0, 2.2, math.nextafter(2.2, 3.0), 9.0):
            *_, settled = apply_disturbances(board, events, t)
            assert settled == all(ev.envelope(t)[1] for ev in events), t
        assert apply_disturbances(board, (), 0.0) == ((0.0, 0.0, 0.0), False, True)

    @pytest.mark.parametrize("t,active", [(0.5, False), (1.0, False), (2.0, True), (3.5, False)],
                             ids=["before", "ramp-start", "inside", "after"])
    def test_an_event_is_active_while_its_envelope_is_positive(self, t, active):
        """The flag the episode logs as disturbed, on each branch of the envelope:
        0 before the start, at the foot of the ramp and after the window."""
        ev = DisturbanceEvent("force_pulse", start=1.0, duration=2.0, magnitude=3.0, ramp=0.5)
        assert apply_disturbances(flat_board(), (ev,), t)[1] is active

    @pytest.mark.parametrize("direction,unit", [((3.0, 4.0, 0.0), (0.6, 0.8, 0.0)),
                                                ((0.0, 0.0, 2.0), (0.0, 0.0, 1.0)),
                                                ((0.0, -1e150, 0.0), (0.0, -1.0, 0.0))])
    def test_direction_held_as_exact_unit(self, direction, unit):
        assert DisturbanceEvent("raise", 1.0, 2.0, 0.01, direction=direction).direction == unit



# ----------------------------------------------------------------------------
# Constructors: the fields a caller sets, and the fixed values
# ----------------------------------------------------------------------------

# The constructor fields of each environment: the inputs a task builder or a
# config override sets. Every other dimension is a module constant.
ENV_FIELDS = {
    PlaneBoard: ("center", "rotation", "k_e"),
    HoleFixture: ("rim_center", "k_e"),
    HingedDoor: ("hinge_pivot", "grasp0", "handle_pivot", "handle_axis", "latch_force", "k_e"),
}

# (name, value as the constructor default it replaces, low, closed): the range
# is the one the constructor checked; a friction model's coefficients were
# each checked finite and >= 0.
CONSTANTS = [
    ("BOARD_EXTENT", (0.30, 0.20), None, None),
    ("BOARD_FRICTION", FrictionModel(coulomb_mu=0.3, viscous_c=5.0), 0.0, True),
    ("ERASER_HALF", 0.01, 0.0, False),
    ("PEN_RADIUS", 0.004, 0.0, True),
    ("F_MIN_WIPE", 1.0, 0.0, True),
    ("BORE_AXIS", (0.0, 0.0, 1.0), None, None),
    ("HOLE_RADIUS", 0.005, 0.0, False),
    ("CLEARANCE", 0.001, 0.0, True),
    ("HOLE_DEPTH", 0.025, 0.0, False),
    ("CHAMFER", 0.004, 0.0, True),
    ("WALL_STIFFNESS", 20000.0, 0.0, False),
    ("HOLE_FRICTION", FrictionModel(coulomb_mu=0.2, viscous_c=2.0), 0.0, True),
    ("HINGE_AXIS", (0.0, 0.0, 1.0), None, None),
    ("HANDLE_LEVER", 0.06, 0.0, False),
    ("OPENING_SIGN", -1.0, None, None),
    ("LATCH_THRESHOLD", math.radians(30.0), 0.0, True),
    ("RELEASE_ANGLE", math.radians(5.0), 0.0, True),
    ("HANDLE_SPRING", 12.0, 0.0, True),
    ("DOOR_FRICTION", FrictionModel(coulomb_mu=0.05, viscous_c=6.0), 0.0, True),
    ("GRASP_TOL", 0.03, 0.0, False),
]


class TestConstructors:
    @pytest.mark.parametrize("name,value,low,closed", CONSTANTS, ids=[c[0] for c in CONSTANTS])
    def test_constant_keeps_its_default_and_range(self, name, value, low, closed):
        constant = getattr(environments, name)
        assert repr(constant) == repr(value)  # bit for bit, float types included
        if isinstance(constant, FrictionModel):
            check_range(f"{name}.coulomb_mu", constant.coulomb_mu, low, closed)
            check_range(f"{name}.viscous_c", constant.viscous_c, low, closed)
        elif low is not None:
            check_range(name, constant, low, closed)

    @pytest.mark.parametrize("cls", list(ENV_FIELDS), ids=lambda cls: cls.__name__)
    def test_fields_are_the_inputs_a_caller_sets(self, cls):
        assert tuple(f.name for f in dataclasses.fields(cls)) == ENV_FIELDS[cls]

    def test_ink_grid_takes_no_arguments(self):
        assert not inspect.signature(InkGrid).parameters
        ink = InkGrid()
        assert ink.inked.shape == (ink.nx, ink.ny) == (60, 40)

    @pytest.mark.parametrize("task", TASKS)
    def test_every_override_key_is_a_field_of_the_built_environment(self, task):
        env = build_environment(task, np.random.default_rng(0))
        assert type(env) is TASK_SPECS[task].environment
        assert set(type(env).OVERRIDES) <= set(ENV_FIELDS[type(env)])

    @pytest.mark.parametrize("task", TASKS)
    def test_the_built_environment_has_what_the_loop_calls(self, task):
        """There is no base class: each environment has the loop's methods
        itself, and update is None for the variants without state of their own."""
        env = build_environment(task, np.random.default_rng(0))
        for name in ("external_wrench", "apply_disturbance_state", "measure"):
            assert callable(getattr(env, name)), name
        assert (env.update is None) == isinstance(env, (PlaneBoard, HoleFixture))
        assert env.update is None or callable(env.update)

    # The grasp of either door is off its swing axes: one on the hinge axis has
    # no hinge radial, and one on a lever door's handle axis no lever.
    @pytest.mark.parametrize("build", [
        lambda: HingedDoor(hinge_pivot=(0.45, -0.05, 0.40)),
        lambda: HingedDoor(hinge_pivot=(0.45, 0.25, 0.15), grasp0=(0.45, -0.05, 0.15),
                           handle_pivot=(0.40, -0.05, 0.15), handle_axis=(1, 0, 0)),
    ], ids=["grasp-on-hinge-axis", "grasp-on-handle-axis"])
    def test_a_grasp_on_a_swing_axis_is_degenerate(self, build):
        with pytest.raises(DegenerateInput) as exc:
            build()
        assert str(exc.value) == "cannot normalize a vector of norm 0"

    @pytest.mark.parametrize("given", ["handle_pivot", "handle_axis"])
    def test_a_half_given_handle_is_a_value_error(self, given):
        with pytest.raises(ValueError, match="both handle_pivot and handle_axis") as exc:
            HingedDoor(**{given: (1.0, 0.0, 0.0)})
        assert type(exc.value) is ValueError

    def test_the_handle_makes_a_door(self):
        assert HingedDoor().microwave
        assert not lever_door().microwave
        for task, microwave_kind in (("MO", True), ("DO", False)):
            door = build_environment(task, np.random.default_rng(0))
            assert door.microwave is microwave_kind
            assert (door.handle_pivot is None) is microwave_kind
