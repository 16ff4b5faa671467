import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from admitsim.environments import (
    DISTURBANCE_KINDS,
    DisturbanceEvent,
    FrictionModel,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
    _friction,
    apply_disturbances,
    update_ink,
)
from admitsim.geometry import quat_from_axis_angle
from admitsim.harness import default_disturbance
from admitsim.tasks import TASKS, build_environment

Z = np.array([0.0, 0.0, 1.0])


def flat_board(**kw):
    return PlaneBoard(center=(0.0, 0.0, 0.0), rotation=(1.0, 0.0, 0.0, 0.0), **kw)


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
    def test_power_non_positive(self):
        rng = np.random.default_rng(1)
        model = FrictionModel(coulomb_mu=0.4, viscous_c=3.0)
        for _ in range(200):
            vel = rng.normal(size=3)
            f = np.array(_friction(model, tuple(vel), tuple(Z), 5.0))
            v_t = vel - (vel @ Z) * Z
            assert float(f @ v_t) <= 1e-12

    def test_regularized_at_low_speed(self):
        model = FrictionModel(coulomb_mu=0.5, viscous_c=0.0)
        slow = _friction(model, (1e-5, 0.0, 0.0), tuple(Z), 10.0)
        fast = _friction(model, (1.0, 0.0, 0.0), tuple(Z), 10.0)
        assert np.linalg.norm(slow) < np.linalg.norm(fast)
        assert np.linalg.norm(fast) == pytest.approx(5.0)


# Board-frame stroke coordinates: the 30 x 20 cm board, its edges, cell
# boundaries and centres (multiples of 2.5 mm) and points off the board.
_STROKE_COORD = st.one_of(
    st.floats(-0.2, 0.2),
    st.integers(-80, 80).map(lambda k: 0.0025 * k),
    st.sampled_from([-0.15, 0.15, -0.1, 0.1, -0.154, 0.154]),
)


def full_grid_stroke(ink, pts, pen_radius):
    """The ink mask of a stroke evaluated at every cell, by the per-cell formula."""
    cx = (np.arange(ink.nx) + 0.5) * ink.cell - 0.5 * ink.extent_x
    cy = (np.arange(ink.ny) + 0.5) * ink.cell - 0.5 * ink.extent_y
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
    return (dmin <= pen_radius).reshape(ink.nx, ink.ny)


class TestInk:
    def test_force_gate(self):
        board = flat_board()
        board.ink.inked[:, :] = False
        board.ink.inked[30, 20] = True
        (c,) = board.ink.inked_centers()
        p = point(c[0], c[1], -0.004)
        assert update_ink(board, p, 0.5) == 0
        assert update_ink(board, p, 2.0) == 1

    def test_footprint_counts_cells(self):
        board = flat_board()
        board.ink.inked[:, :] = False
        # 4 x 3 block of cells centred under the eraser.
        board.ink.inked[28:32, 19:22] = True
        center = board.ink.inked_centers().mean(axis=0)
        wiped = update_ink(board, point(center[0], center[1], -0.004), 5.0)
        assert wiped == 12
        assert type(wiped) is int  # counts feed JSON reports and sums

    def test_wipes_match_the_whole_grid_reference(self):
        """Wipes clipped to the ink's box clean what the unclipped window would,
        and the box holds every inked cell after each wipe."""
        def reference_wipe(ink, inked, x, y, hx, hy):
            i_lo = max(0, math.ceil((x - hx + 0.5 * ink.extent_x) / ink.cell - 0.5))
            i_hi = min(ink.nx, math.floor((x + hx + 0.5 * ink.extent_x) / ink.cell - 0.5) + 1)
            j_lo = max(0, math.ceil((y - hy + 0.5 * ink.extent_y) / ink.cell - 0.5))
            j_hi = min(ink.ny, math.floor((y + hy + 0.5 * ink.extent_y) / ink.cell - 0.5) + 1)
            if i_lo >= i_hi or j_lo >= j_hi:
                return 0
            count = int(inked[i_lo:i_hi, j_lo:j_hi].sum())
            inked[i_lo:i_hi, j_lo:j_hi] = False
            return count

        rng = np.random.default_rng(5)
        wiped = 0
        for seed in range(10):
            board = build_environment("WW", np.random.default_rng(seed))
            ink = board.ink
            inked = ink.inked.copy()
            for _ in range(400):
                x, y = rng.uniform(-0.16, 0.16), rng.uniform(-0.11, 0.11)
                count = ink.wipe_rect((x, y), 0.01, 0.01)
                assert count == reference_wipe(ink, inked, x, y, 0.01, 0.01)
                assert np.array_equal(ink.inked, inked)
                i_lo, i_hi, j_lo, j_hi = ink.box
                assert ink.inked[i_lo:i_hi, j_lo:j_hi].sum() == ink.inked_count()
                wiped += count
        assert wiped > 100

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_update_equals_a_wipe_at_the_board_frame_point(self, seed, tilted):
        """update_ink wipes at the (x, y) of to_board_frame, bit for bit, on a
        tilted or raised board too, and an empty box wipes nothing."""
        rng = np.random.default_rng(seed)
        board = build_environment("WW", rng)
        if tilted:
            events = (DisturbanceEvent("tilt", 0.0, 1.0, rng.uniform(-0.3, 0.3),
                                       direction=tuple(rng.normal(size=3))),
                      DisturbanceEvent("raise", 0.0, 1.0, rng.uniform(0.0, 0.05)))
            apply_disturbances(board, events, rng.uniform(0.0, 2.0))
        if rng.random() < 0.25:
            board.ink.inked[:, :] = False
            board.ink.refresh_box()
        twin = copy.deepcopy(board)
        centers = []
        wipe = board.ink.wipe_rect
        board.ink.wipe_rect = lambda xy, hx, hy: centers.append(xy) or wipe(xy, hx, hy)
        ink = board.ink.inked
        for _ in range(60):
            # Around the eraser's reach of the ink, and anywhere over the board.
            cells = np.argwhere(ink)
            if len(cells) and rng.random() < 0.7:
                i, j = cells[rng.integers(len(cells))]
                xy = ((i + 0.5) * board.ink.cell - board.ink._x0 + rng.normal(scale=0.01),
                      (j + 0.5) * board.ink.cell - board.ink._y0 + rng.normal(scale=0.01))
            else:
                xy = tuple(rng.uniform(-0.2, 0.2, size=2))
            r = board._frame_rows()
            p = tuple(map(float, np.add(board.rest_point,
                                        np.array(r).T @ (*xy, rng.uniform(-0.01, 0.01)))))
            expected = twin.ink.wipe_rect(twin.to_board_frame(p), twin.eraser_half_x,
                                          twin.eraser_half_y)
            n_calls = len(centers)
            had_ink = board.ink.box[0] < board.ink.box[1]
            assert update_ink(board, p, 5.0) == expected
            assert np.array_equal(board.ink.inked, twin.ink.inked)
            assert (board.ink.box, board.ink._clean) == (twin.ink.box, twin.ink._clean)
            if had_ink:
                assert centers[n_calls:] == [twin.to_board_frame(p)[:2]]
            else:  # no ink left: no transform and no wipe
                assert len(centers) == n_calls

    def test_refresh_box_after_a_direct_write(self):
        board = flat_board()
        board.ink.ink_stroke(np.array([[-0.05, 0.0], [-0.04, 0.0]]))
        board.ink.inked[50, 30] = True
        board.ink.refresh_box()
        ink = board.ink
        c = ((50 + 0.5) * ink.cell - 0.5 * ink.extent_x, (30 + 0.5) * ink.cell - 0.5 * ink.extent_y)
        assert update_ink(board, point(c[0], c[1], -0.004), 5.0) == 1

    @pytest.mark.parametrize("reink", ["stroke", "direct_write"])
    def test_a_window_wiped_clean_is_wiped_again_once_reinked(self, reink):
        """A wipe remembers the window it left clean; re-inking cells inside it
        by a stroke, or by a direct write and refresh_box, makes it count again."""
        ink = flat_board().ink
        ink.ink_stroke(np.array([[-0.05, 0.0], [0.05, 0.0]]))
        assert ink.wipe_rect((0.0, 0.0), 0.01, 0.01) > 0
        assert ink.wipe_rect((0.0, 0.0), 0.01, 0.01) == 0
        assert ink.wipe_rect((0.0, 0.0), 0.01, 0.01) == 0  # the remembered window
        if reink == "stroke":
            fresh = ink.ink_stroke(np.array([[-0.002, 0.0], [0.002, 0.0]]))
        else:
            i, j = ink.nx // 2, ink.ny // 2  # the four cells around the board center
            ink.inked[i - 1:i + 1, j - 1:j + 1] = True
            ink.refresh_box()
            fresh = 4
        assert fresh > 0
        before = ink.inked_count()
        assert ink.wipe_rect((0.0, 0.0), 0.01, 0.01) == fresh
        assert ink.inked_count() == before - fresh
        assert ink.wipe_rect((0.0, 0.0), 0.01, 0.01) == 0

    def test_remaining_length_conversion(self):
        board = flat_board()
        board.ink.inked[:, :] = False
        assert board.measure(None) == 0.0
        board.ink.inked[0, :10] = True
        assert board.measure(None) == pytest.approx(5.0)

    def test_stroke_conservation(self):
        board = flat_board()
        n = board.ink.ink_stroke(np.array([[-0.05, 0.0], [0.05, 0.0]]))
        assert n == board.ink.inked_count()
        assert board.measure(None) == pytest.approx(n * 0.5)

    @given(st.lists(st.tuples(_STROKE_COORD, _STROKE_COORD), min_size=1, max_size=5),
           st.sampled_from([0.0, 0.0025, 0.004, 0.01, 0.05]))
    @settings(max_examples=150, deadline=None)
    def test_stroke_inks_what_a_full_grid_evaluation_inks(self, points, radius):
        ink = flat_board().ink
        pts = np.array(points)
        ink.ink_stroke(pts, pen_radius=radius)
        assert np.array_equal(ink.inked, full_grid_stroke(ink, pts, radius))

    def test_stroke_rejects_non_finite_input(self):
        ink = flat_board().ink
        with pytest.raises(ValueError):
            ink.ink_stroke(np.array([[0.0, 0.0], [np.nan, 0.01]]))
        with pytest.raises(ValueError):
            ink.ink_stroke(np.array([[0.0, 0.0]]), pen_radius=np.inf)
        assert ink.inked_count() == 0

    def test_monotone_under_wiping(self):
        board = flat_board()
        board.ink.ink_stroke(np.array([[-0.05, 0.0], [0.05, 0.0]]))
        last = board.measure(None)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = point(rng.uniform(-0.06, 0.06), rng.uniform(-0.01, 0.01), -0.004)
            update_ink(board, p, 5.0)
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
        r = hole.hole_radius + 0.5 * hole.chamfer
        w = hole.external_wrench(point(r, 0, -0.004), np.zeros(3))
        assert w[2] > 0.0
        assert w[0] < 0.0  # pushes back toward the axis


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
        built = (board.rotation, board.surface_normal)
        x = np.array([1.0, 0.0, 0.0])
        events = (DisturbanceEvent("tilt", 1.0, 5.0, 0.05, direction=x),
                  DisturbanceEvent("tilt", 2.0, 5.0, -0.05, direction=x))
        apply_disturbances(board, events, 1.5)
        assert board.surface_normal != built[1]
        apply_disturbances(board, events, 3.0)
        assert (board.rotation, board.surface_normal) == built

    def test_force_pulse_moves_no_door_geometry(self):
        for task in ("MO", "DO"):
            rng = np.random.default_rng(np.random.SeedSequence([0, TASKS.index(task)]))
            door = build_environment(task, rng)
            built = dict(vars(door))
            (pulse,) = default_disturbance(task)
            force, active = apply_disturbances(door, (pulse,),
                                               pulse.start + 0.5 * pulse.duration)
            assert active and np.linalg.norm(force) > 0.0
            assert vars(door) == built, task

    def test_profiles_continuous(self):
        events = [
            DisturbanceEvent("raise", 1.0, 5.0, 0.05, ramp=0.5),
            DisturbanceEvent("force_pulse", 2.0, 1.0, 10.0, ramp=0.2),
            DisturbanceEvent("sinusoid", 0.5, 4.0, 0.005, ramp=0.5),
        ]
        ts = np.linspace(0.0, 8.0, 4001)
        for ev in events:
            vals = np.array([ev.profile(t) * ev.magnitude for t in ts])
            jumps = np.abs(np.diff(vals))
            assert jumps.max() < ev.magnitude * 0.02  # ramped, no steps

    @given(kind=st.sampled_from(DISTURBANCE_KINDS),
           start=st.floats(-5.0, 5.0), duration=st.floats(0.001, 3.0),
           ramp_share=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           magnitude=st.floats(-10.0, 10.0), omega=st.floats(-20.0, 20.0),
           t=st.floats(-6.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_settled_values_hold(self, kind, start, duration, ramp_share, magnitude, omega, t):
        """From a time where an event is settled on, its profile and the
        amplitude apply_disturbances reads stay bit for bit the same."""
        ev = DisturbanceEvent(kind, start, duration, magnitude,
                              ramp=min(duration, ramp_share * duration), omega=omega)
        if not ev.settled(t):
            return
        p = ev.profile(t)
        a = ev.amplitude(t, p)
        later = [math.nextafter(t, math.inf)] + [
            t + float(dt) for dt in np.linspace(0.0, 4.0 * duration + 1.0, 401)]
        for u in later:
            assert ev.settled(u)
            assert ev.profile(u).hex() == p.hex()
            if kind == "sinusoid":
                # Settled only past its window: the profile is 0 there, and
                # apply_disturbances adds no offset of a profile of 0.
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
        assert not ev.settled(math.nextafter(first, 0.0))
        assert ev.settled(first)

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
        lambda: HoleFixture(depth=math.nan),
        lambda: HoleFixture(depth=math.inf),
        lambda: HoleFixture(depth=0.0),
        lambda: microwave(k_e=math.nan),
        lambda: lever_door(k_e=math.inf),
    ])
    def test_environment_geometry_and_stiffness(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    @pytest.mark.parametrize("kwargs", [
        {"coulomb_mu": math.nan}, {"coulomb_mu": math.inf}, {"coulomb_mu": -0.1},
        {"viscous_c": math.nan}, {"viscous_c": math.inf}, {"viscous_c": -1.0},
    ])
    def test_friction_coefficients_finite_and_non_negative(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            FrictionModel(**kwargs)

    def test_zero_friction_accepted(self):
        assert FrictionModel(0.0, 0.0) == FrictionModel()

    @pytest.mark.parametrize("build,name", [
        (lambda **kw: microwave(**kw), "latch_force"),
        (lambda **kw: lever_door(**kw), "latch_force"),
        (lambda **kw: lever_door(**kw), "handle_spring"),
        (HoleFixture, "hole_radius"),
        (HoleFixture, "clearance"),
        (HoleFixture, "wall_stiffness"),
        (PlaneBoard, "f_min_wipe"),
        (PlaneBoard, "eraser_half_x"),
        (PlaneBoard, "eraser_half_y"),
        (HoleFixture, "chamfer"),
        (lambda **kw: microwave(**kw), "grasp_tol"),
        (lambda **kw: lever_door(**kw), "handle_lever"),
        (lambda **kw: lever_door(**kw), "latch_threshold"),
        (lambda **kw: microwave(**kw), "release_angle"),
    ], ids=["microwave-latch_force", "door-latch_force", "door-handle_spring",
            "hole-hole_radius", "hole-clearance", "hole-wall_stiffness",
            "board-f_min_wipe", "board-eraser_half_x", "board-eraser_half_y",
            "hole-chamfer", "microwave-grasp_tol", "door-handle_lever",
            "door-latch_threshold", "microwave-release_angle"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_geometry_and_force_parameters_finite(self, build, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            build(**{name: value})

    @pytest.mark.parametrize("build,name", [
        (HoleFixture, "hole_radius"), (HoleFixture, "wall_stiffness"),
        (PlaneBoard, "eraser_half_x"),
        (lambda **kw: microwave(**kw), "grasp_tol"),
        (lambda **kw: lever_door(**kw), "handle_lever"),
    ])
    def test_positive_parameters_reject_zero(self, build, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            build(**{name: 0.0})

    def test_zero_latch_spring_clearance_and_gate_accepted(self):
        assert microwave(latch_force=0.0).latch_force == 0.0
        assert lever_door(handle_spring=0.0).handle_spring == 0.0
        assert HoleFixture(clearance=0.0).clearance == 0.0
        assert PlaneBoard(f_min_wipe=0.0).f_min_wipe == 0.0
        assert HoleFixture(chamfer=0.0).chamfer == 0.0
        assert lever_door(latch_threshold=0.0).latch_threshold == 0.0
        assert microwave(release_angle=0.0).release_angle == 0.0


def microwave(**kw):
    return HingedDoor(hinge_pivot=np.array([0.0, 0.25, 0.0]),
                      grasp0=np.array([0.0, 0.0, 0.0]), microwave=True, **kw)


def lever_door(**kw):
    return HingedDoor(hinge_pivot=np.array([0.0, 0.42, 0.0]),
                      grasp0=np.array([0.0, -0.06, 0.0]),
                      handle_pivot=np.array([0.0, 0.0, 0.0]),
                      handle_axis=np.array([1.0, 0.0, 0.0]),
                      microwave=False, **kw)


def microwave_grasp(angle):
    """Grasp point of microwave() opened by `angle` rad about its hinge."""
    return np.array([-0.25 * math.sin(angle), 0.25 - 0.25 * math.cos(angle), 0.0])


def lever_grasp(handle_angle, door_shift=0.0):
    """Grasp point of lever_door() with the handle turned and the door pulled open."""
    return np.array([-door_shift, -0.06 * math.cos(handle_angle),
                     -0.06 * math.sin(handle_angle)])


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
        assert 0.0 < door.door_angle < door.release_angle
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
        opened = np.array([door.grasp0[0] - 0.25 * math.sin(0.2),
                           0.25 - 0.25 * math.cos(0.2), 0.0])
        door.update(opened, 1.0)
        assert door.latch_released
        door.update(door.grasp0, 1.0)
        assert door.latch_released  # stays released
        assert_allclose(latch_term(door, door.grasp0), np.zeros(3))

    def test_opening_angle_tracks_grasp(self):
        door = microwave()
        door.update(door.grasp0, 1.0)
        assert door.measure(None) == pytest.approx(0.0)
        ang = 0.3
        p = np.array([-0.25 * math.sin(ang), 0.25 - 0.25 * math.cos(ang), 0.0])
        door.update(p, 1.0)
        assert door.measure(None) == pytest.approx(math.degrees(ang), abs=1e-6)

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
        on_axis = np.array(door.hinge_pivot) + 0.05 * np.array(door.hinge_axis)
        force = np.array(door.external_wrench(on_axis, np.zeros(3)))
        assert np.isfinite(force).all()
        assert_allclose(latch_term(door, on_axis), np.zeros(3))
        if door.microwave:  # the hinge circle is the active one: no term at all
            assert_allclose(force, np.zeros(3))
