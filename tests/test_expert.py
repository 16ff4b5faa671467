import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from admitsim.environments import HingedDoor, HoleFixture, PlaneBoard, update_ink
from admitsim.errors import (
    EmptySchedule,
    LengthMismatch,
    NoContactManifold,
    NotAligned,
    NothingToWipe,
)
from admitsim.expert import (
    PhaseLabel,
    extract_supervision,
    manifold_normal,
    plan_articulated,
    plan_free_motion,
    plan_insertion,
    plan_wiping,
)
from admitsim.geometry import Pose
from admitsim.tasks import build_environment, generate_demo

Z = np.array([0.0, 0.0, 1.0])
IDENTITY = (1.0, 0.0, 0.0, 0.0)


def kp(pos):
    return Pose(pos, IDENTITY)


def radius(p, pivot, axis):
    """Distance of the point p from the line through pivot along the unit axis."""
    rel = np.subtract(p, pivot)
    axis = np.array(axis)
    return np.linalg.norm(rel - (rel @ axis) * axis)


class TestFreeMotion:
    def test_fencepost_count(self):
        poses = plan_free_motion([kp((0, 0, 0)), kp((1, 0, 0))], steps_per_segment=10)
        assert len(poses) == 11

    def test_zero_length_segment_repeats(self):
        poses = plan_free_motion([kp((0, 0, 0)), kp((0, 0, 0))], steps_per_segment=3)
        for p in poses:
            assert_allclose(p.position, np.zeros(3))

    def test_uniform_spacing(self):
        poses = plan_free_motion([kp((0, 0, 0)), kp((0.2, 0, 0))], steps_per_segment=20)
        gaps = [np.linalg.norm(np.subtract(b.position, a.position))
                for a, b in zip(poses, poses[1:])]
        assert_allclose(gaps, 0.01, atol=1e-12)

    def test_empty_schedule(self):
        with pytest.raises(EmptySchedule):
            plan_free_motion([], steps_per_segment=5)


class TestInsertion:
    hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))

    def test_counting(self):
        poses = plan_insertion(self.hole, start_height=0.030, step=0.001)
        assert len(poses) == 31
        assert_allclose(poses[-1].position, self.hole.bottom_center(), atol=1e-12)

    def test_already_at_bottom(self):
        poses = plan_insertion(self.hole, start_height=0.0, step=0.001)
        assert len(poses) == 1

    def test_axis_constraint(self):
        poses = plan_insertion(self.hole, start_height=0.02, step=0.002)
        for a, b in zip(poses, poses[1:]):
            delta = np.subtract(b.position, a.position)
            assert_allclose(delta[:2], np.zeros(2), atol=1e-15)
            assert delta[2] <= 0.0

    def test_not_aligned(self):
        from admitsim.geometry import quat_from_axis_angle
        tilted = quat_from_axis_angle(np.array([1.0, 0, 0]), math.radians(20.0))
        with pytest.raises(NotAligned):
            plan_insertion(self.hole, 0.02, 0.001, orientation=tilted)


class TestWiping:
    def flat_board(self):
        return PlaneBoard(center=np.zeros(3), rotation=IDENTITY)

    def test_nothing_to_wipe(self):
        with pytest.raises(NothingToWipe):
            plan_wiping(self.flat_board())

    def test_single_cell_short_pass(self):
        board = self.flat_board()
        board.ink.inked[30, 20] = True
        poses = plan_wiping(board)
        assert len(poses) >= 2

    @pytest.mark.parametrize("passes", [0, -2])
    def test_passes_below_one_rejected(self, passes):
        board = self.flat_board()
        board.ink.inked[30, 20] = True
        with pytest.raises(ValueError):
            plan_wiping(board, passes=passes)

    def test_lane_count_lower_bound(self):
        board = self.flat_board()
        # Inked bounding box roughly 10 cm x 6 cm (cell-centre aligned rows).
        board.ink.ink_stroke(np.array([[-0.05, -0.0275], [0.05, -0.0275]]), pen_radius=0.002)
        board.ink.ink_stroke(np.array([[-0.05, 0.0275], [0.05, 0.0275]]), pen_radius=0.002)
        poses = plan_wiping(board)
        ys = {round(float(board.to_board_frame(p.position)[1]), 6) for p in poses}
        assert len(ys) >= 3  # footprint width 2 cm over a 6 cm box

    def test_coverage_under_ideal_tracking(self):
        for seed in range(5):
            env = build_environment("WW", np.random.default_rng(seed))
            demo = generate_demo("WW", env)
            for p, ph in zip(demo.poses, demo.phases):
                if ph.contact_flag:
                    update_ink(env, p.position, 4.0)
            assert env.ink.inked_count() == 0


class TestArticulated:
    def microwave(self):
        return HingedDoor(hinge_pivot=np.array([0.0, 0.25, 0.0]),
                          grasp0=np.array([0.0, 0.0, 0.0]), microwave=True)

    def test_zero_target_single_pose(self):
        poses = plan_articulated(self.microwave(), 0.0, math.radians(1.0))
        assert len(poses) == 1

    def test_arc_counting_and_radius(self):
        door = self.microwave()
        poses = plan_articulated(door, math.radians(60.0), math.radians(1.0))
        assert len(poses) == 61
        for p in poses:
            assert abs(radius(p.position, door.hinge_pivot, door.hinge_axis) - 0.25) < 1e-9

    def test_door_emits_two_arcs(self):
        door = HingedDoor(hinge_pivot=np.array([0.0, 0.42, 0.0]),
                          grasp0=np.array([0.0, -0.06, 0.0]),
                          handle_pivot=np.array([0.0, 0.0, 0.0]),
                          handle_axis=np.array([1.0, 0.0, 0.0]),
                          microwave=False)
        step = math.radians(1.5)
        poses = plan_articulated(door, math.radians(40.0), step)
        n_turn = int(math.ceil(2.0 * door.latch_threshold / step - 1e-12)) + 1
        # Turn arc: constant distance from the handle pivot.
        for p in poses[:n_turn]:
            r = radius(p.position, door.handle_pivot, door.handle_axis)
            assert abs(r - door.handle_lever) < 1e-9
        # Pull arc: constant distance from the hinge axis.
        r_pull = None
        for p in poses[n_turn:]:
            r = radius(p.position, door.hinge_pivot, door.hinge_axis)
            r_pull = r if r_pull is None else r_pull
            assert abs(r - r_pull) < 1e-9
        assert len(poses) > n_turn


class TestManifoldNormal:
    def test_board_outward_normal(self):
        board = PlaneBoard(center=np.zeros(3), rotation=IDENTITY)
        n = manifold_normal(board, Pose(np.zeros(3), IDENTITY))
        # The contact force on the eef points out of the board (+z here);
        # the controller presses along -n.
        assert_allclose(n, Z)

    def test_hole_axis(self):
        hole = HoleFixture(rim_center=np.zeros(3))
        n = manifold_normal(hole, Pose(np.array([0.0, 0, -0.01]), IDENTITY))
        assert_allclose(n, Z)

    def test_door_normal_rotates_with_angle(self):
        door = HingedDoor(hinge_pivot=np.array([0.0, 0.25, 0.0]),
                          grasp0=np.array([0.0, 0.0, 0.0]), microwave=True)
        door.update(door.grasp0, 1.0)
        for ang in (0.0, 0.3, 0.8):
            p = np.array([-0.25 * math.sin(ang), 0.25 - 0.25 * math.cos(ang), 0.0])
            n = manifold_normal(door, Pose(p, IDENTITY))
            tangent = np.cross(door.hinge_axis, n)
            # Radial normal, orthogonal to the instantaneous arc tangent.
            assert abs(float(np.dot(n, tangent))) < 1e-12
            expected = (p - door.hinge_pivot) / np.linalg.norm(p - door.hinge_pivot)
            assert_allclose(n, expected, atol=1e-9)

    def test_unknown_environment(self):
        class Mystery:
            pass
        with pytest.raises(NoContactManifold):
            manifold_normal(Mystery(), Pose(np.zeros(3), IDENTITY))


class TestSupervision:
    def make(self, n_steps, label=PhaseLabel.APPROACH):
        poses = [Pose(np.array([0.01 * i, 0, 0.05]), IDENTITY) for i in range(n_steps)]
        phases = [label] * n_steps
        grippers = [1.0] * n_steps
        return poses, phases, grippers

    def test_shift_drops_final_step(self):
        board = PlaneBoard(center=np.zeros(3), rotation=IDENTITY)
        poses, phases, grippers = self.make(2)
        tuples = extract_supervision(poses, phases, grippers, board)
        assert len(tuples) == 1

    def test_free_motion_placeholder_normals(self):
        board = PlaneBoard(center=np.zeros(3), rotation=IDENTITY)
        poses, phases, grippers = self.make(6)
        tuples = extract_supervision(poses, phases, grippers, board)
        for t in tuples:
            assert t.contact == 0
            assert_allclose(t.normal, np.zeros(3))

    def test_insertion_normals_equal_axis(self):
        hole = HoleFixture(rim_center=np.zeros(3))
        poses = plan_insertion(hole, 0.02, 0.002)
        phases = [PhaseLabel.CONTACT] * len(poses)
        tuples = extract_supervision(poses, phases, [1.0] * len(poses), hole)
        for t in tuples:
            assert t.contact == 1
            assert_allclose(t.normal, hole.axis_up)

    def test_pose_shift_reproduces_next_pose(self):
        board = PlaneBoard(center=np.zeros(3), rotation=IDENTITY)
        poses, phases, grippers = self.make(10)
        tuples = extract_supervision(poses, phases, grippers, board)
        for t, tup in enumerate(tuples):
            assert np.linalg.norm(np.subtract(tup.pose10[:3], poses[t + 1].position)) < 1e-9

    def test_length_mismatch(self):
        board = PlaneBoard(center=np.zeros(3), rotation=IDENTITY)
        poses, phases, grippers = self.make(5)
        with pytest.raises(LengthMismatch):
            extract_supervision(poses, phases[:-1], grippers, board)
        with pytest.raises(LengthMismatch):
            extract_supervision(poses[:1], phases[:1], grippers[:1], board)


class TestDemoInvariants:
    @pytest.mark.parametrize("task", ["MO", "PH", "WW", "DO"])
    def test_contact_flag_matches_phase(self, task):
        env = build_environment(task, np.random.default_rng(0))
        demo = generate_demo(task, env)
        for t, tup in enumerate(demo.tuples):
            expected = 1 if demo.phases[t] is PhaseLabel.CONTACT else 0
            assert tup.contact == expected
            if tup.contact == 1:
                assert abs(np.linalg.norm(tup.normal) - 1.0) < 1e-9

    @pytest.mark.parametrize("task", ["MO", "DO"])
    def test_articulated_grasp_radius_constant(self, task):
        env = build_environment(task, np.random.default_rng(1))
        demo = generate_demo(task, env)
        contact = [p for p, ph in zip(demo.poses, demo.phases)
                   if ph is PhaseLabel.CONTACT]
        if task == "MO":
            radii = []
            for p in contact:
                radii.append(radius(p.position, env.hinge_pivot, env.hinge_axis))
            assert max(radii) - min(radii) < 1e-9
