import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from admitsim.environments import (
    DisturbanceEvent,
    FrictionModel,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
    SpringContact,
    apply_disturbances,
    friction_force,
    insertion_depth,
    opening_angle,
    remaining_ink_length,
    update_ink,
)
from admitsim.errors import WrongVariant
from admitsim.geometry import Pose, quat_identity

Z = np.array([0.0, 0.0, 1.0])


def flat_board(**kw):
    return PlaneBoard(center=np.array([0.0, 0.0, 0.0]), rotation=quat_identity(), **kw)


def pose(x, y, z):
    return Pose(np.array([x, y, z], dtype=float), quat_identity())


class TestSpringWrench:
    def test_no_penetration_no_force(self):
        board = flat_board()
        w = board.external_wrench(pose(0, 0, 0.01), np.zeros(3))
        assert_allclose(w.force, np.zeros(3))

    def test_linear_spring_value(self):
        board = flat_board(k_e=1000.0)
        w = board.external_wrench(pose(0, 0, -0.004), np.zeros(3))
        assert_allclose(w.force, [0, 0, 4.0], atol=1e-12)

    def test_zero_velocity_no_coulomb(self):
        board = flat_board()
        w = board.external_wrench(pose(0, 0, -0.004), np.zeros(3))
        assert_allclose(w.force[:2], np.zeros(2))

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_unilateral_and_dissipative(self, seed):
        rng = np.random.default_rng(seed)
        board = flat_board(k_e=rng.uniform(100, 5000))
        p = pose(*rng.normal(scale=0.05, size=3))
        vel = rng.normal(scale=0.2, size=3)
        w = board.external_wrench(p, vel)
        fn = float(w.force @ Z)
        assert fn >= 0.0  # springs push, never pull
        pen = -p.position[2]
        if pen <= 0:
            assert_allclose(w.force, np.zeros(3))
        v_t = vel - (vel @ Z) * Z
        f_t = w.force - fn * Z
        assert float(f_t @ v_t) <= 1e-12  # friction never adds energy


class TestFriction:
    def test_power_non_positive(self):
        rng = np.random.default_rng(1)
        model = FrictionModel(coulomb_mu=0.4, viscous_c=3.0)
        for _ in range(200):
            vel = rng.normal(size=3)
            f = friction_force(model, vel, Z, 5.0)
            v_t = vel - (vel @ Z) * Z
            assert float(f @ v_t) <= 1e-12

    def test_regularized_at_low_speed(self):
        model = FrictionModel(coulomb_mu=0.5, viscous_c=0.0)
        slow = friction_force(model, np.array([1e-5, 0, 0]), Z, 10.0)
        fast = friction_force(model, np.array([1.0, 0, 0]), Z, 10.0)
        assert np.linalg.norm(slow) < np.linalg.norm(fast)
        assert np.linalg.norm(fast) == pytest.approx(5.0)


class TestInk:
    def test_update_requires_board(self):
        hole = HoleFixture()
        with pytest.raises(WrongVariant):
            update_ink(hole, pose(0, 0, 0), True, 5.0)

    def test_no_contact_no_wipe(self):
        board = flat_board()
        board.ink.inked[10:14, 10:13] = True
        assert update_ink(board, pose(0, 0, 0), False, 5.0) == 0

    def test_force_gate(self):
        board = flat_board()
        board.ink.inked[:, :] = False
        board.ink.inked[30, 20] = True
        c = board.ink.cell_center(30, 20)
        p = pose(c[0], c[1], -0.004)
        assert update_ink(board, p, True, 0.5) == 0
        assert update_ink(board, p, True, 2.0) == 1

    def test_footprint_counts_cells(self):
        board = flat_board()
        board.ink.inked[:, :] = False
        # 4 x 3 block of cells centred under the eraser.
        board.ink.inked[28:32, 19:22] = True
        center = 0.25 * (board.ink.cell_center(28, 19) + board.ink.cell_center(31, 19)
                         + board.ink.cell_center(28, 21) + board.ink.cell_center(31, 21))
        wiped = update_ink(board, pose(center[0], center[1], -0.004), True, 5.0)
        assert wiped == 12
        assert type(wiped) is int  # counts feed JSON reports and sums

    def test_remaining_length_conversion(self):
        board = flat_board()
        board.ink.inked[:, :] = False
        assert remaining_ink_length(board) == 0.0
        board.ink.inked[0, :10] = True
        assert remaining_ink_length(board) == pytest.approx(5.0)

    def test_stroke_conservation(self):
        board = flat_board()
        n = board.ink.ink_stroke(np.array([[-0.05, 0.0], [0.05, 0.0]]))
        assert n == board.ink.inked_count()
        assert remaining_ink_length(board) == pytest.approx(n * 0.5)

    def test_monotone_under_wiping(self):
        board = flat_board()
        board.ink.ink_stroke(np.array([[-0.05, 0.0], [0.05, 0.0]]))
        last = remaining_ink_length(board)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = pose(rng.uniform(-0.06, 0.06), rng.uniform(-0.01, 0.01), -0.004)
            update_ink(board, p, True, 5.0)
            now = remaining_ink_length(board)
            assert now <= last
            last = now


class TestHole:
    def test_depth_at_rim_zero(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))
        assert insertion_depth(hole, pose(0, 0, 0)) == 0.0

    def test_depth_clamps_at_bottom(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))
        assert insertion_depth(hole, pose(0, 0, -0.030)) == pytest.approx(25.0)

    def test_success_threshold_depth(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))
        assert insertion_depth(hole, pose(0, 0, -0.010)) == pytest.approx(10.0)

    def test_bottom_spring(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]), k_e=1000.0)
        w = hole.external_wrench(pose(0, 0, -0.027), np.zeros(3))
        assert_allclose(w.force, [0, 0, 2.0], atol=1e-12)

    def test_chamfer_guides_inward(self):
        hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))
        # Tip pressed into the funnel ring, offset along +x.
        r = hole.hole_radius + 0.5 * hole.chamfer
        w = hole.external_wrench(pose(r, 0, -0.004), np.zeros(3))
        assert w.force[2] > 0.0
        assert w.force[0] < 0.0  # pushes back toward the axis

    def test_wrong_variant(self):
        with pytest.raises(WrongVariant):
            insertion_depth(flat_board(), pose(0, 0, 0))


class TestDisturbances:
    def test_before_start_unchanged(self):
        board = flat_board()
        rest0 = board.spring.rest_point.copy()
        ev = DisturbanceEvent("lower", start=5.0, duration=10.0, magnitude=0.03, ramp=0.5)
        apply_disturbances(board, (ev,), 1.0)
        assert_allclose(board.spring.rest_point, rest0)

    def test_lower_ramps_then_holds(self):
        board = flat_board()
        ev = DisturbanceEvent("lower", start=5.0, duration=10.0, magnitude=0.03, ramp=0.5)
        apply_disturbances(board, (ev,), 5.25)
        assert board.spring.rest_point[2] == pytest.approx(-0.015)
        apply_disturbances(board, (ev,), 8.0)
        assert board.spring.rest_point[2] == pytest.approx(-0.03)
        apply_disturbances(board, (ev,), 100.0)
        assert board.spring.rest_point[2] == pytest.approx(-0.03)  # persists

    def test_sinusoid_profile(self):
        ev = DisturbanceEvent("sinusoid", start=0.0, duration=100.0, magnitude=0.005,
                              ramp=0.0, omega=2 * math.pi)
        board = flat_board()
        apply_disturbances(board, (ev,), 0.25)
        assert board.spring.rest_point[2] == pytest.approx(0.005)
        apply_disturbances(board, (ev,), 0.75)
        assert board.spring.rest_point[2] == pytest.approx(-0.005)

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


class TestConstructorValidation:
    @pytest.mark.parametrize("k_e", [math.nan, math.inf, 0.0, -5.0])
    def test_spring_stiffness_finite_and_positive(self, k_e):
        with pytest.raises(ValueError, match="finite"):
            SpringContact(k_e, np.zeros(3), Z)

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


class TestLatch:
    def test_engaged_magnitude(self):
        door = microwave()
        door.update(door.grasp0, 1.0)  # engage
        p = microwave_grasp(math.radians(1.0))
        door.update(p, 1.0)
        assert 0.0 < door.door_angle < door.release_angle
        f = door.latch_resistance_at(p)
        assert np.linalg.norm(f) == pytest.approx(door.latch_force)

    def test_snap_releases_past_angle(self):
        door = microwave()
        door.update(door.grasp0, 1.0)
        p = microwave_grasp(math.radians(6.0))
        door.update(p, 1.0)
        assert_allclose(door.latch_resistance_at(p), np.zeros(3))

    def test_handle_threshold_releases(self):
        door = lever_door()
        door.update(door.grasp0, 1.0)
        p = lever_grasp(math.radians(10.0), door_shift=0.01)
        door.update(p, 1.0)
        assert door.door_angle > 0.0
        assert np.linalg.norm(door.latch_resistance_at(p)) > 0
        p = lever_grasp(math.radians(31.0), door_shift=0.01)
        door.update(p, 1.0)
        assert_allclose(door.latch_resistance_at(p), np.zeros(3))

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
        assert_allclose(door.latch_resistance_at(door.grasp0), np.zeros(3))

    def test_opening_angle_tracks_grasp(self):
        door = microwave()
        door.update(door.grasp0, 1.0)
        assert opening_angle(door) == pytest.approx(0.0)
        ang = 0.3
        p = np.array([-0.25 * math.sin(ang), 0.25 - 0.25 * math.cos(ang), 0.0])
        door.update(p, 1.0)
        assert opening_angle(door) == pytest.approx(math.degrees(ang), abs=1e-6)

    def test_not_engaged_without_gripper(self):
        door = microwave()
        door.update(door.grasp0, 0.0)
        assert not door.engaged
        w = door.external_wrench(pose(*door.grasp0), np.zeros(3))
        assert_allclose(w.force, np.zeros(3))
