import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scenarios import flat_board, lever_door, lever_grasp, microwave, microwave_grasp

from admitsim.environments import (
    BOARD_EXTENT,
    CELL_SIZE,
    CHAMFER,
    DISTURBANCE_KINDS,
    HINGE_AXIS,
    HOLE_RADIUS,
    PEN_RADIUS,
    PERSISTENT_KINDS,
    RELEASE_ANGLE,
    DisturbanceEvent,
    FrictionModel,
    HingedDoor,
    HoleFixture,
    InkGrid,
    PlaneBoard,
    apply_disturbances,
    update_ink,
)
from admitsim.errors import DegenerateInput
from admitsim.geometry import _matvec, _quat_matrix, quat_from_axis_angle
from admitsim.harness import default_disturbance
from admitsim.tasks import TASK_SPECS, TASKS, build_environment

Z = np.array([0.0, 0.0, 1.0])


def point(x, y, z):
    """A position as the float tuple the per-tick methods take."""
    return (float(x), float(y), float(z))


class TestSpringWrench:
    def test_no_penetration_no_force(self):
        board = flat_board()
        w = board.external_wrench(point(0, 0, 0.01), np.zeros(3))
        assert_allclose(w, np.zeros(3))

    def test_linear_spring_value(self):
        board = flat_board(k_e=1000.0)
        w = board.external_wrench(point(0, 0, -0.004), np.zeros(3))
        assert_allclose(w, [0, 0, 4.0], atol=1e-12)

    def test_zero_velocity_no_coulomb(self):
        board = flat_board()
        w = board.external_wrench(point(0, 0, -0.004), np.zeros(3))
        assert_allclose(w[:2], np.zeros(2))

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_unilateral_and_dissipative(self, seed):
        rng = np.random.default_rng(seed)
        board = flat_board(k_e=rng.uniform(100, 5000))
        p = point(*rng.normal(scale=0.05, size=3))
        vel = rng.normal(scale=0.2, size=3)
        force = np.array(board.external_wrench(p, tuple(vel)))
        fn = float(force @ Z)
        assert fn >= 0.0  # springs push, never pull
        pen = -p[2]
        if pen <= 0:
            assert_allclose(force, np.zeros(3))
        v_t = vel - (vel @ Z) * Z
        f_t = force - fn * Z
        assert float(f_t @ v_t) <= 1e-12  # friction never adds energy


class TestFriction:
    """The board's friction: its wrench less the normal spring, 10 N deep."""

    board = flat_board(k_e=1000.0)
    press = point(0, 0, -0.01)

    def friction(self, vel):
        force = np.array(self.board.external_wrench(self.press, tuple(vel)))
        assert force[2] == pytest.approx(10.0)
        return force[:2]

    def test_power_non_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            vel = rng.normal(size=3)
            assert float(self.friction(vel) @ vel[:2]) <= 1e-12

    def test_regularized_at_low_speed(self):
        slow = self.friction((1e-5, 0.0, 0.0))
        fast = self.friction((1.0, 0.0, 0.0))
        assert np.linalg.norm(slow) < np.linalg.norm(fast)
        # Full Coulomb mu f_n plus the viscous c |v_t|.
        assert np.linalg.norm(fast) == pytest.approx(0.3 * 10.0 + 5.0 * 1.0)
        assert np.linalg.norm(slow) == pytest.approx(0.3 * 10.0 * 0.1 + 5.0 * 1e-5)

    def test_no_friction_without_slip(self):
        assert np.all(self.friction((0.0, 0.0, 0.3)) == 0.0)

    def test_slip_law_is_the_friction_model(self):
        model = FrictionModel(coulomb_mu=0.5, viscous_c=0.0)
        assert np.linalg.norm(model.slip_force((1.0, 0.0, 0.0), 1.0, 10.0)) == 5.0


# Board-frame stroke coordinates: the 30 x 20 cm board, its edges, cell
# boundaries and centres (multiples of 2.5 mm) and points off the board.
_STROKE_COORD = st.one_of(
    st.floats(-0.2, 0.2),
    st.integers(-80, 80).map(lambda k: 0.0025 * k),
    st.sampled_from([-0.15, 0.15, -0.1, 0.1, -0.154, 0.154]),
)


def full_grid_stroke(ink, pts):
    """The ink mask of a stroke evaluated at every cell, by the per-cell formula."""
    cx = (np.arange(ink.nx) + 0.5) * CELL_SIZE - 0.5 * BOARD_EXTENT[0]
    cy = (np.arange(ink.ny) + 0.5) * CELL_SIZE - 0.5 * BOARD_EXTENT[1]
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
    return (dmin <= PEN_RADIUS).reshape(ink.nx, ink.ny)


def wipe(board, *points):
    """update_ink after a press at each point, one tick apart, as the episode
    loop records the tick of a press at or above F_MIN_WIPE."""
    board.presses.extend(range(len(points)))
    return update_ink(board, np.reshape(points, (-1, 3)))


class TestInk:
    def test_footprint_counts_cells(self):
        board = flat_board()
        board.ink.inked[:, :] = False
        # 4 x 3 block of cells centred under the eraser.
        board.ink.inked[28:32, 19:22] = True
        center = board.ink.inked_centers().mean(axis=0)
        wiped = wipe(board, point(center[0], center[1], -0.004))
        assert wiped == 12
        assert type(wiped) is int  # counts feed JSON reports and sums

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

    def test_remaining_length_conversion(self):
        board = flat_board()
        board.ink.inked[:, :] = False
        assert board.measure(None) == 0.0
        board.ink.inked[0, :10] = True
        assert board.measure(None) == pytest.approx(5.0)

    def test_stroke_conservation(self):
        board = flat_board()
        board.ink.ink_stroke(np.array([[-0.05, 0.0], [0.05, 0.0]]))
        n = board.ink.inked_count()
        assert n > 0
        assert board.measure(None) == pytest.approx(n * 0.5)

    @given(st.lists(st.tuples(_STROKE_COORD, _STROKE_COORD), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_stroke_inks_what_a_full_grid_evaluation_inks(self, points):
        ink = flat_board().ink
        pts = np.array(points)
        ink.ink_stroke(pts)
        assert np.array_equal(ink.inked, full_grid_stroke(ink, pts))

    @given(st.tuples(_STROKE_COORD, _STROKE_COORD))
    @settings(max_examples=100, deadline=None)
    def test_a_one_point_stroke_inks_its_zero_length_segment(self, p):
        one, segment = flat_board().ink, flat_board().ink
        one.ink_stroke([p])
        segment.ink_stroke([p, p])
        assert np.array_equal(one.inked, segment.inked)

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


class TestHole:
    def test_depth_at_rim_zero(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))
        assert hole.measure(point(0, 0, 0)) == 0.0

    def test_depth_clamps_at_bottom(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))
        assert hole.measure(point(0, 0, -0.030)) == pytest.approx(25.0)

    def test_success_threshold_depth(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))
        assert hole.measure(point(0, 0, -0.010)) == pytest.approx(10.0)

    def test_bottom_spring(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]), k_e=1000.0)
        w = hole.external_wrench(point(0, 0, -0.027), np.zeros(3))
        assert_allclose(w, [0, 0, 2.0], atol=1e-12)

    def test_chamfer_guides_inward(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))
        # Tip pressed into the funnel ring, offset along +x.
        r = HOLE_RADIUS + 0.5 * CHAMFER
        w = hole.external_wrench(point(r, 0, -0.004), np.zeros(3))
        assert w[2] > 0.0
        assert w[0] < 0.0  # pushes back toward the axis


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
        raise_later = default_disturbance("WW")  # a raise starting at 5 s
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
            (pulse,) = default_disturbance(task)
            force, active, settled = apply_disturbances(door, (pulse,),
                                                        pulse.start + 0.5 * pulse.duration)
            assert active and not settled and np.linalg.norm(force) > 0.0
            assert vars(door) == built, task

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

    def test_validation(self):
        with pytest.raises(ValueError):
            DisturbanceEvent("lower", 0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            DisturbanceEvent("lower", 0.0, 1.0, 0.1, ramp=2.0)
        with pytest.raises(ValueError):
            DisturbanceEvent("wobble", 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("field", ["start", "duration", "magnitude", "ramp", "omega"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        kwargs = dict(kind="shift", start=1.0, duration=2.0, magnitude=0.01, ramp=0.5)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            DisturbanceEvent(**kwargs)

    @pytest.mark.parametrize("direction", [(1e200, 1e200, 0.0), (0.0, -1e155, 0.0),
                                           (1.0, math.nan, 0.0), (0.0, 0.0, math.inf)])
    def test_direction_with_non_finite_norm_rejected(self, direction):
        with pytest.raises(ValueError, match="direction"):
            DisturbanceEvent("raise", 1.0, 2.0, 0.01, direction=direction)

    @pytest.mark.parametrize("direction,unit", [((3.0, 4.0, 0.0), (0.6, 0.8, 0.0)),
                                                ((0.0, 0.0, 2.0), (0.0, 0.0, 1.0)),
                                                ((0.0, -1e150, 0.0), (0.0, -1.0, 0.0))])
    def test_direction_held_as_exact_unit(self, direction, unit):
        assert DisturbanceEvent("raise", 1.0, 2.0, 0.01, direction=direction).direction == unit


class TestConstructorValidation:
    @pytest.mark.parametrize("build", [
        lambda: PlaneBoard(k_e=math.nan),
        lambda: HoleFixture(k_e=math.nan),
        lambda: microwave(k_e=math.nan),
        lambda: lever_door(k_e=math.inf),
    ])
    def test_environment_geometry_and_stiffness(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize("build,name", [
        (lambda **kw: microwave(**kw), "latch_force"),
        (lambda **kw: lever_door(**kw), "latch_force"),
    ], ids=["microwave-latch_force", "door-latch_force"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_geometry_and_force_parameters_finite(self, build, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build(**{name: value})

    # A non-finite position or board rotation is a ValueError naming its
    # field, not a NaN wrench later or a DegenerateInput about a norm.
    @pytest.mark.parametrize("build,name", [
        (lambda v: PlaneBoard(center=(0.0, v, 0.0)), "center"),
        (lambda v: PlaneBoard(rotation=(v, 0.0, 0.0, 1.0)), "rotation"),
        (lambda v: HoleFixture(rim_center=(v, 0.0, 0.0)), "rim_center"),
        (lambda v: HingedDoor(hinge_pivot=(v, 0.0, 0.0)), "hinge_pivot"),
        (lambda v: HingedDoor(grasp0=(0.0, 0.0, v)), "grasp0"),
        (lambda v: lever_door(handle_pivot=(0.0, v, 0.0)), "handle_pivot"),
    ], ids=["board-center", "board-rotation", "hole-rim_center", "door-hinge_pivot",
            "door-grasp0", "door-handle_pivot"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_position_names_its_field(self, build, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite") as exc:
            build(value)
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("build", [
        lambda: HingedDoor(handle_pivot=(0.45, 0.0, 0.15), handle_axis=(math.nan, 0.0, 0.0)),
    ], ids=["door-handle_axis"])
    def test_a_nan_axis_is_degenerate(self, build):
        with pytest.raises(DegenerateInput):
            build()

    def test_zero_latch_force_accepted(self):
        assert microwave(latch_force=0.0).latch_force == 0.0
        assert lever_door(latch_force=0.0).latch_force == 0.0

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


# The constructor fields of each environment: the inputs a task builder or a
# config override sets. Every other dimension is a module constant.
ENV_FIELDS = {
    PlaneBoard: ("center", "rotation", "k_e"),
    HoleFixture: ("rim_center", "k_e"),
    HingedDoor: ("hinge_pivot", "grasp0", "handle_pivot", "handle_axis", "latch_force", "k_e"),
}


class TestConstructorFields:
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
        assert set(TASK_SPECS[task].env_keys) <= set(ENV_FIELDS[type(env)])

    @pytest.mark.parametrize("task", TASKS)
    def test_the_built_environment_has_what_the_loop_calls(self, task):
        """There is no base class: each environment has the loop's methods
        itself, and update is None for the variants without state of their own."""
        env = build_environment(task, np.random.default_rng(0))
        for name in ("external_wrench", "apply_disturbance_state", "measure"):
            assert callable(getattr(env, name)), name
        assert (env.update is None) == isinstance(env, (PlaneBoard, HoleFixture))
        assert env.update is None or callable(env.update)


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


class TestLatch:
    def test_engaged_magnitude(self):
        door = microwave()
        door.update(door.grasp0, 1.0)  # engage
        p = microwave_grasp(math.radians(1.0))
        door.update(p, 1.0)
        assert 0.0 < door.door_angle < RELEASE_ANGLE
        f = latch_term(door, p)
        assert np.linalg.norm(f) == pytest.approx(door.latch_force)

    def test_snap_releases_past_angle(self):
        door = microwave()
        door.update(door.grasp0, 1.0)
        p = microwave_grasp(math.radians(6.0))
        door.update(p, 1.0)
        assert_allclose(latch_term(door, p), np.zeros(3))

    def test_handle_threshold_releases(self):
        door = lever_door()
        door.update(door.grasp0, 1.0)
        p = lever_grasp(math.radians(10.0), door_shift=0.01)
        door.update(p, 1.0)
        assert door.door_angle > 0.0
        assert np.linalg.norm(latch_term(door, p)) > 0
        p = lever_grasp(math.radians(31.0), door_shift=0.01)
        door.update(p, 1.0)
        assert_allclose(latch_term(door, p), np.zeros(3))

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

    def test_opening_angle_tracks_grasp(self):
        door = microwave()
        door.update(door.grasp0, 1.0)
        assert door.measure(None) == pytest.approx(0.0)
        door.update(microwave_grasp(0.3), 1.0)
        assert door.measure(None) == pytest.approx(math.degrees(0.3), abs=1e-6)

    def test_not_engaged_without_gripper(self):
        door = microwave()
        door.update(door.grasp0, 0.0)
        assert not door.engaged
        w = door.external_wrench(door.grasp0, np.zeros(3))
        assert_allclose(w, np.zeros(3))

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
