import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from reference_demos import _rot6d_columns
from scenarios import flat_board, lever_door, microwave

from admitsim.environments import (
    BORE_AXIS,
    HANDLE_LEVER,
    HINGE_AXIS,
    HOLE_DEPTH,
    LATCH_THRESHOLD,
    HoleFixture,
    update_ink,
)
from admitsim.errors import (
    DegenerateInput,
    EmptySchedule,
    LengthMismatch,
    NothingToWipe,
)
from admitsim.expert import (
    ARC_STEP,
    INSERT_STEP,
    ZERO_NORMAL,
    PhaseLabel,
    SupervisionRecords,
    SupervisionTuple,
    extract_supervision,
    plan_articulated,
    plan_free_motion,
    plan_insertion,
    plan_wiping,
)
from admitsim.geometry import Pose, _normalize, pose10_encode, quat_rotate, rot6d_encode
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


def radial(p, pivot, axis):
    """Unit outward radial of the point p from the line through pivot along the unit axis."""
    rel = np.subtract(p, pivot)
    axis = np.array(axis)
    r = rel - (rel @ axis) * axis
    return r / np.linalg.norm(r)


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
        poses = plan_insertion(self.hole)
        assert len(poses) == 26
        assert_allclose(poses[-1].position, self.hole.bottom_center(), atol=1e-12)

    def test_axis_constraint(self):
        poses = plan_insertion(self.hole)
        for a, b in zip(poses, poses[1:]):
            delta = np.subtract(b.position, a.position)
            assert_allclose(delta[:2], np.zeros(2), atol=1e-15)
            assert delta[2] <= 0.0

    def test_starts_hole_depth_above_the_bottom(self):
        poses = plan_insertion(self.hole)
        assert_allclose(poses[0].position,
                        np.add(self.hole.bottom_center(), HOLE_DEPTH * np.array(BORE_AXIS)),
                        atol=1e-15)

    def test_steps_are_insert_step(self):
        poses = plan_insertion(self.hole)
        for a, b in zip(poses, poses[1:]):
            step = np.linalg.norm(np.subtract(b.position, a.position))
            assert step == pytest.approx(INSERT_STEP, abs=1e-12)

    def test_the_peg_holds_the_identity_down_the_bore_axis(self):
        hole = HoleFixture(rim_center=(0.1, -0.2, 0.3))
        poses = plan_insertion(hole)
        assert all(p.orientation == (1.0, 0.0, 0.0, 0.0) for p in poses)
        assert_allclose(np.subtract(poses[0].position, poses[-1].position),
                        HOLE_DEPTH * np.array(BORE_AXIS), atol=1e-15)


class TestWiping:
    def test_nothing_to_wipe(self):
        with pytest.raises(NothingToWipe):
            plan_wiping(flat_board())

    def test_single_cell_short_pass(self):
        board = flat_board()
        board.ink.inked[30, 20] = True
        poses = plan_wiping(board)
        assert len(poses) >= 2

    @pytest.mark.parametrize("passes", [0, -2])
    def test_passes_below_one_rejected(self, passes):
        board = flat_board()
        board.ink.inked[30, 20] = True
        with pytest.raises(ValueError):
            plan_wiping(board, passes=passes)

    def test_lane_count_lower_bound(self):
        board = flat_board()
        # Inked bounding box roughly 10 cm x 6 cm (cell-centre aligned rows).
        board.ink.ink_stroke(np.array([[-0.05, -0.0275], [0.05, -0.0275]]))
        board.ink.ink_stroke(np.array([[-0.05, 0.0275], [0.05, 0.0275]]))
        poses = plan_wiping(board)
        # The board is the identity at the origin: world y is board-frame y.
        ys = {round(float(p.position[1]), 6) for p in poses}
        assert len(ys) >= 3  # footprint width 2 cm over a 6 cm box

    def test_coverage_under_ideal_tracking(self):
        for seed in range(5):
            env = build_environment("WW", np.random.default_rng(seed))
            demo = generate_demo("WW", env)
            pressed = [p.position for p, ph in zip(demo.poses, demo.phases) if ph.contact_flag]
            env.presses.extend(range(len(pressed)))  # one tick per contact pose
            assert update_ink(env, np.array(pressed)) > 0
            assert env.ink.inked_count() == 0


def turn_poses(door):
    """Poses of the door's handle-turn arc, the junction included (0 for a microwave)."""
    if door.microwave:
        return 0
    return int(math.ceil(2.0 * LATCH_THRESHOLD / ARC_STEP - 1e-12)) + 1


class TestArticulated:
    def test_zero_target_single_pose(self):
        poses, normals = plan_articulated(microwave(), 0.0)
        assert len(poses) == len(normals) == 1

    def test_arc_counting_and_radius(self):
        door = microwave()
        poses, normals = plan_articulated(door, math.radians(60.0))
        assert len(poses) == len(normals) == 41
        for p in poses:
            assert abs(radius(p.position, door.hinge_pivot, HINGE_AXIS) - 0.25) < 1e-9

    def test_arc_steps_are_arc_step(self):
        # Every step turns ARC_STEP about the hinge but the last, which ends
        # at the target: 40 degrees is not a multiple of 1.5.
        door = microwave()
        poses, _ = plan_articulated(door, math.radians(40.0))
        assert len(poses) == math.ceil(40.0 / 1.5) + 1
        rads = [radial(p.position, door.hinge_pivot, HINGE_AXIS) for p in poses]
        turns = [math.acos(min(1.0, a @ b)) for a, b in zip(rads, rads[1:])]
        assert_allclose(turns[:-1], ARC_STEP, atol=1e-9)
        assert 0.0 < turns[-1] < ARC_STEP

    def test_arc_ends_at_the_target_angle(self):
        door = microwave()
        poses, _ = plan_articulated(door, math.radians(40.0))
        first = radial(poses[0].position, door.hinge_pivot, HINGE_AXIS)
        last = radial(poses[-1].position, door.hinge_pivot, HINGE_AXIS)
        assert math.acos(first @ last) == pytest.approx(math.radians(40.0), abs=1e-9)

    def test_door_emits_two_arcs(self):
        door = lever_door()
        poses, normals = plan_articulated(door, math.radians(40.0))
        assert len(normals) == len(poses)
        n_turn = turn_poses(door)
        # Turn arc: constant distance from the handle pivot.
        for p in poses[:n_turn]:
            r = radius(p.position, door.handle_pivot, door.handle_axis)
            assert abs(r - HANDLE_LEVER) < 1e-9
        # Pull arc: constant distance from the hinge axis.
        r_pull = None
        for p in poses[n_turn:]:
            r = radius(p.position, door.hinge_pivot, HINGE_AXIS)
            r_pull = r if r_pull is None else r_pull
            assert abs(r - r_pull) < 1e-9
        assert len(poses) > n_turn


class TestPlanNormals:
    """The expert plan gives each pose its contact normal; the supervision of
    a contact step is the unit normal of its next pose."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_board_contact_normal_is_the_outward_board_normal(self, seed):
        board = build_environment("WW", np.random.default_rng(seed))
        want = _normalize(board.surface_normal)
        # The contact force on the eef points out of the board (its frame's
        # +z); the controller presses along -n.
        assert_allclose(want, quat_rotate(board.rotation, (0.0, 0.0, 1.0)), atol=1e-12)
        contact = [t for t in generate_demo("WW", board).tuples if t.contact]
        assert contact
        for t in contact:
            assert t.normal.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_insertion_contact_normal_is_the_bore_axis(self, seed):
        hole = build_environment("PH", np.random.default_rng(seed))
        want = BORE_AXIS
        assert_allclose(want, Z)
        contact = [t for t in generate_demo("PH", hole).tuples if t.contact]
        assert contact
        for t in contact:
            assert t.normal.tobytes() == np.array(want).tobytes()

    def test_microwave_normals_are_hinge_radials(self):
        door = microwave()
        poses, normals = plan_articulated(door, math.radians(60.0))
        for p, n in zip(poses, normals):
            assert_allclose(n, radial(p.position, door.hinge_pivot, HINGE_AXIS), atol=1e-12)

    def test_door_turn_then_pull_normals(self):
        door = lever_door()
        poses, normals = plan_articulated(door, math.radians(40.0))
        n_turn = turn_poses(door)
        handle = (door.handle_pivot, door.handle_axis)
        hinge = (door.hinge_pivot, HINGE_AXIS)
        for i, (p, n) in enumerate(zip(poses, normals)):
            assert_allclose(n, radial(p.position, *(handle if i < n_turn else hinge)),
                            atol=1e-12)
        # The junction pose ends the turn and starts the pull; it keeps the
        # handle normal, which differs from the hinge radial there.
        junction, n = poses[n_turn - 1].position, normals[n_turn - 1]
        assert_allclose(n, radial(junction, *handle), atol=1e-12)
        assert np.linalg.norm(np.subtract(n, radial(junction, *hinge))) > 0.1

    @pytest.mark.parametrize("door", [microwave(), lever_door()], ids=["microwave", "door"])
    def test_every_normal_is_an_orthogonal_unit_to_its_arc_tangent(self, door):
        poses, normals = plan_articulated(door, math.radians(40.0))
        n_turn = turn_poses(door)
        for i, (p, n) in enumerate(zip(poses, normals)):
            pivot, axis = ((door.handle_pivot, door.handle_axis) if i < n_turn
                           else (door.hinge_pivot, HINGE_AXIS))
            tangent = np.cross(axis, np.subtract(p.position, pivot))
            tangent /= np.linalg.norm(tangent)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            assert abs(float(np.dot(n, tangent))) < 1e-12
            assert abs(float(np.dot(n, axis))) < 1e-12


class TestSupervision:
    def make(self, n_steps, label=PhaseLabel.APPROACH):
        poses = [Pose(np.array([0.01 * i, 0, 0.05]), IDENTITY) for i in range(n_steps)]
        phases = [label] * n_steps
        grippers = [1.0] * n_steps
        return poses, phases, grippers, [ZERO_NORMAL] * n_steps

    def test_shift_drops_final_step(self):
        tuples = extract_supervision(*self.make(2))
        assert len(tuples) == 1

    def test_free_motion_placeholder_normals(self):
        tuples = extract_supervision(*self.make(6))
        for t in tuples:
            assert t.contact == 0
            assert_allclose(t.normal, np.zeros(3))

    def test_insertion_normals_equal_axis(self):
        hole = HoleFixture(rim_center=np.zeros(3))
        poses = plan_insertion(hole)
        n = len(poses)
        tuples = extract_supervision(poses, [PhaseLabel.CONTACT] * n, [1.0] * n,
                                     [BORE_AXIS] * n)
        for t in tuples:
            assert t.contact == 1
            assert_allclose(t.normal, BORE_AXIS)

    def test_contact_normal_is_the_next_poses_unit_normal(self):
        # Contact ends at the last pose, whose placeholder normal gives way to
        # the incoming one.
        poses, _, grippers, _ = self.make(4)
        phases = [PhaseLabel.CONTACT] * 3 + [PhaseLabel.RETRACT]
        normals = [(0.0, 0.0, 2.0), (0.0, 3.0, 0.0), (4.0, 0.0, 0.0), ZERO_NORMAL]
        tuples = extract_supervision(poses, phases, grippers, normals)
        assert [tuple(t.normal) for t in tuples] == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
                                                    (1.0, 0.0, 0.0)]
        assert [t.contact for t in tuples] == [1, 1, 1]

    def test_pose_shift_reproduces_next_pose(self):
        poses, phases, grippers, normals = self.make(10)
        tuples = extract_supervision(poses, phases, grippers, normals)
        for t, tup in enumerate(tuples):
            assert np.linalg.norm(np.subtract(tup.pose10[:3], poses[t + 1].position)) < 1e-9

    def test_length_mismatch(self):
        poses, phases, grippers, normals = self.make(5)
        with pytest.raises(LengthMismatch):
            extract_supervision(poses, phases[:-1], grippers, normals)
        with pytest.raises(LengthMismatch):
            extract_supervision(poses, phases, grippers, normals[:-1])
        with pytest.raises(LengthMismatch):
            extract_supervision(poses[:1], phases[:1], grippers[:1], normals[:1])


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
                radii.append(radius(p.position, env.hinge_pivot, HINGE_AXIS))
            assert max(radii) - min(radii) < 1e-9

    @pytest.mark.parametrize("task", ["MO", "DO"])
    @pytest.mark.parametrize("seed", [0, 3, 7, 12])
    def test_contact_normal_is_the_radial_of_the_next_poses_circle(self, task, seed):
        env = build_environment(task, np.random.default_rng(seed))
        demo = generate_demo(task, env)
        on_handle, hinge_radii = 0, []
        for t, tup in enumerate(demo.tuples):
            if not tup.contact:
                continue
            p = demo.poses[t + 1].position
            if task == "DO" and \
                    abs(radius(p, env.handle_pivot, env.handle_axis) - HANDLE_LEVER) < 1e-9:
                circle = (env.handle_pivot, env.handle_axis)
                on_handle += 1
            else:
                circle = (env.hinge_pivot, HINGE_AXIS)
                hinge_radii.append(radius(p, *circle))
            assert_allclose(tup.normal, radial(p, *circle), atol=1e-12)
        assert max(hinge_radii) - min(hinge_radii) < 1e-9  # one hinge circle
        assert (on_handle > 0) == (task == "DO")



class TestSupervisionRecords:
    """A demo's supervision is its (n, 14) record block, viewed row by row."""

    @pytest.mark.parametrize("task", ["MO", "PH", "WW", "DO"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_each_pose10_is_pose10_encode_of_the_next_pose(self, task, seed):
        # The 6D rotations are built columnwise; each row must be the
        # per-pose encoding bit for bit.
        demo = generate_demo(task, build_environment(task, np.random.default_rng(seed)))
        assert len(demo.tuples) == len(demo.poses) - 1
        for t, tup in enumerate(demo.tuples):
            want = np.array(pose10_encode(demo.poses[t + 1], tup.pose10[9]))
            assert tup.pose10.tobytes() == want.tobytes(), t

    @given(st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 4), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_rot6d_columns_equal_rot6d_encode(self, quats):
        quats = [q for q in quats if math.sqrt(sum(c * c for c in q)) >= 1e-12]
        if not quats:
            return
        got = _rot6d_columns(np.array(quats))
        want = np.array([rot6d_encode(q) for q in quats])
        assert got.tobytes() == want.tobytes()

    def test_rot6d_columns_reject_a_zero_quaternion(self):
        with pytest.raises(DegenerateInput, match="zero quaternion"):
            _rot6d_columns(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("task", ["MO", "PH", "WW", "DO"])
    def test_iteration_gives_the_row_views_of_the_block(self, task):
        records = generate_demo(task, build_environment(task, np.random.default_rng(4))).tuples
        assert isinstance(records, SupervisionRecords)
        block = records.block
        listed = list(records)
        assert len(listed) == len(records) == len(block)
        for i, tup in enumerate(listed):
            assert isinstance(tup, SupervisionTuple)
            assert np.shares_memory(tup.pose10, block[i, :10])
            assert np.shares_memory(tup.normal, block[i, 10:13])
            assert type(tup.contact) is int and tup.contact == block[i, 13]
            assert (tup.pose10.tobytes() + tup.normal.tobytes()) == block[i, :13].tobytes()
            # Made by tuple.__new__, each keeps the NamedTuple behaviour.
            assert tup == SupervisionTuple(tup.pose10, tup.normal, tup.contact)
            fields = tup._asdict()
            assert list(fields) == ["pose10", "normal", "contact"]
            assert fields["pose10"] is tup.pose10 and fields["contact"] == tup.contact
            flipped = tup._replace(contact=1 - tup.contact)
            assert type(flipped) is SupervisionTuple and flipped.pose10 is tup.pose10
            assert flipped.contact == 1 - tup.contact and tup.contact in (0, 1)
