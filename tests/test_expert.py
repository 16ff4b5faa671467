import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
from admitsim.errors import EmptySchedule, LengthMismatch, NothingToWipe
from admitsim.expert import (
    ARC_STEP,
    INSERT_STEP,
    ZERO_NORMAL,
    PhaseLabel,
    SupervisionRecords,
    SupervisionTuple,
    _arc,
    extract_supervision,
    plan_articulated,
    plan_free_motion,
    plan_insertion,
    plan_wiping,
)
from admitsim.geometry import _normalize, quat_rotate
from admitsim.tasks import TASKS, build_environment, generate_demo

Z = np.array([0.0, 0.0, 1.0])


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
        positions = plan_free_motion([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], steps_per_segment=10)
        assert len(positions) == 11

    def test_zero_length_segment_repeats(self):
        positions = plan_free_motion([(0.0, 0.0, 0.0)] * 2, steps_per_segment=3)
        for p in positions:
            assert_allclose(p, np.zeros(3))

    def test_uniform_spacing(self):
        positions = plan_free_motion([(0.0, 0.0, 0.0), (0.2, 0.0, 0.0)], steps_per_segment=20)
        gaps = [np.linalg.norm(np.subtract(b, a))
                for a, b in zip(positions, positions[1:])]
        assert_allclose(gaps, 0.01, atol=1e-12)

    def test_empty_schedule(self):
        with pytest.raises(EmptySchedule):
            plan_free_motion([], steps_per_segment=5)


class TestInsertion:
    hole = HoleFixture(rim_center=np.array([0.0, 0.0, 0.0]))

    def test_the_waypoints_descend_the_axis_in_insert_steps(self):
        """The whole waypoint list: on the bore axis, from the rim, HOLE_DEPTH
        above the bottom, down to the bottom, INSERT_STEP apart."""
        positions = plan_insertion(self.hole)
        assert_allclose(self.hole.bottom_center(), (0.0, 0.0, -HOLE_DEPTH))
        assert_allclose(positions, [(0.0, 0.0, -i * INSERT_STEP) for i in range(26)],
                        atol=1e-15)

    def test_the_peg_descends_hole_depth_along_the_bore_axis(self):
        hole = HoleFixture(rim_center=(0.1, -0.2, 0.3))
        positions = plan_insertion(hole)
        assert_allclose(np.subtract(positions[0], positions[-1]),
                        HOLE_DEPTH * np.array(BORE_AXIS), atol=1e-15)


class TestWiping:
    def test_nothing_to_wipe(self):
        with pytest.raises(NothingToWipe):
            plan_wiping(flat_board())

    def test_single_cell_short_pass(self):
        board = flat_board()
        board.ink.inked[30, 20] = True
        positions = plan_wiping(board)
        assert len(positions) >= 2

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
        positions = plan_wiping(board)
        # The board is the identity at the origin: world y is board-frame y.
        ys = {round(float(p[1]), 6) for p in positions}
        assert len(ys) >= 3  # footprint width 2 cm over a 6 cm box

    def test_coverage_under_ideal_tracking(self):
        for seed in range(5):
            env = build_environment("WW", np.random.default_rng(seed))
            demo = generate_demo("WW", env)
            pressed = [p for p, ph in zip(demo.positions, demo.phases) if ph.contact_flag]
            env.presses.extend(range(len(pressed)))  # one tick per contact position
            assert update_ink(env, np.array(pressed)) > 0
            assert env.ink.inked_count() == 0


def is_float_position(p) -> bool:
    return type(p) is tuple and len(p) == 3 and all(type(x) is float for x in p)


class TestPositionsAreFloatTuples:
    """Every position a plan returns is a tuple of three Python floats."""

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_every_task_plan(self, task, seed):
        demo = generate_demo(task, build_environment(task, np.random.default_rng(seed)))
        assert all(map(is_float_position, demo.positions))

    def test_free_motion(self):
        keys = [(0.0, 0.0, 0.35), (0.1, -0.2, 0.3), (0.4, -0.0, 0.1)]
        assert all(map(is_float_position, plan_free_motion(keys, steps_per_segment=7)))

    @pytest.mark.parametrize("total,sign", [(1.0, -1.0), (0.3, 1.0), (0.0, 1.0)])
    def test_arc(self, total, sign):
        positions, normals = _arc((0.45, -0.05, 0.15), HINGE_AXIS, (0.2, 0.1, 0.0), total, sign)
        assert all(map(is_float_position, positions + normals))


def turn_positions(door):
    """Positions of the door's handle-turn arc, the junction included (0 for a microwave)."""
    if door.microwave:
        return 0
    return int(math.ceil(2.0 * LATCH_THRESHOLD / ARC_STEP - 1e-12)) + 1


class TestArticulated:
    def test_zero_target_single_pose(self):
        positions, normals = plan_articulated(microwave(), 0.0)
        assert len(positions) == len(normals) == 1

    def test_arc_counting_and_radius(self):
        door = microwave()
        positions, normals = plan_articulated(door, math.radians(60.0))
        assert len(positions) == len(normals) == 41
        for p in positions:
            assert abs(radius(p, door.hinge_pivot, HINGE_AXIS) - 0.25) < 1e-9

    def test_arc_steps_are_arc_step(self):
        # Every step turns ARC_STEP about the hinge but the last, which ends
        # at the target: 40 degrees is not a multiple of 1.5.
        door = microwave()
        positions, _ = plan_articulated(door, math.radians(40.0))
        assert len(positions) == math.ceil(40.0 / 1.5) + 1
        rads = [radial(p, door.hinge_pivot, HINGE_AXIS) for p in positions]
        turns = [math.acos(min(1.0, a @ b)) for a, b in zip(rads, rads[1:])]
        assert_allclose(turns[:-1], ARC_STEP, atol=1e-9)
        assert 0.0 < turns[-1] < ARC_STEP
        assert math.acos(rads[0] @ rads[-1]) == pytest.approx(math.radians(40.0), abs=1e-9)

    def test_door_emits_two_arcs(self):
        door = lever_door()
        positions, normals = plan_articulated(door, math.radians(40.0))
        assert len(normals) == len(positions)
        n_turn = turn_positions(door)
        # Turn arc: constant distance from the handle pivot.
        for p in positions[:n_turn]:
            r = radius(p, door.handle_pivot, door.handle_axis)
            assert abs(r - HANDLE_LEVER) < 1e-9
        # Pull arc: constant distance from the hinge axis.
        r_pull = None
        for p in positions[n_turn:]:
            r = radius(p, door.hinge_pivot, HINGE_AXIS)
            r_pull = r if r_pull is None else r_pull
            assert abs(r - r_pull) < 1e-9
        assert len(positions) > n_turn


class TestPlanNormals:
    """The expert plan gives each position its contact normal; the supervision of
    a contact step is the unit normal of its next position."""

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

    def test_door_turn_then_pull_normals(self):
        door = lever_door()
        positions, normals = plan_articulated(door, math.radians(40.0))
        n_turn = turn_positions(door)
        handle = (door.handle_pivot, door.handle_axis)
        hinge = (door.hinge_pivot, HINGE_AXIS)
        for i, (p, n) in enumerate(zip(positions, normals)):
            assert_allclose(n, radial(p, *(handle if i < n_turn else hinge)),
                            atol=1e-12)
        # The junction position ends the turn and starts the pull; it keeps the
        # handle normal, which differs from the hinge radial there.
        junction, n = positions[n_turn - 1], normals[n_turn - 1]
        assert_allclose(n, radial(junction, *handle), atol=1e-12)
        assert np.linalg.norm(np.subtract(n, radial(junction, *hinge))) > 0.1

    @pytest.mark.parametrize("door", [microwave(), lever_door()], ids=["microwave", "door"])
    def test_every_normal_is_an_orthogonal_unit_to_its_arc_tangent(self, door):
        positions, normals = plan_articulated(door, math.radians(40.0))
        n_turn = turn_positions(door)
        for i, (p, n) in enumerate(zip(positions, normals)):
            pivot, axis = ((door.handle_pivot, door.handle_axis) if i < n_turn
                           else (door.hinge_pivot, HINGE_AXIS))
            tangent = np.cross(axis, np.subtract(p, pivot))
            tangent /= np.linalg.norm(tangent)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12
            assert abs(float(np.dot(n, tangent))) < 1e-12
            assert abs(float(np.dot(n, axis))) < 1e-12


class TestSupervision:
    def make(self, n_steps, label=PhaseLabel.APPROACH):
        positions = [(0.01 * i, 0.0, 0.05) for i in range(n_steps)]
        phases = [label] * n_steps
        grippers = [1.0] * n_steps
        return positions, phases, grippers, [ZERO_NORMAL] * n_steps

    def test_shift_drops_final_step(self):
        tuples = extract_supervision(*self.make(2))
        assert len(tuples) == 1

    def test_free_motion_placeholder_normals(self):
        tuples = extract_supervision(*self.make(6))
        for t in tuples:
            assert t.contact == 0
            assert_allclose(t.normal, np.zeros(3))

    def test_contact_normal_is_the_next_poses_unit_normal(self):
        # Contact ends at the last position, whose placeholder normal gives way to
        # the incoming one.
        positions, _, grippers, _ = self.make(4)
        phases = [PhaseLabel.CONTACT] * 3 + [PhaseLabel.RETRACT]
        normals = [(0.0, 0.0, 2.0), (0.0, 3.0, 0.0), (4.0, 0.0, 0.0), ZERO_NORMAL]
        tuples = extract_supervision(positions, phases, grippers, normals)
        assert [tuple(t.normal) for t in tuples] == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
                                                    (1.0, 0.0, 0.0)]
        assert [t.contact for t in tuples] == [1, 1, 1]

    def test_length_mismatch(self):
        positions, phases, grippers, normals = self.make(5)
        with pytest.raises(LengthMismatch):
            extract_supervision(positions, phases[:-1], grippers, normals)
        with pytest.raises(LengthMismatch):
            extract_supervision(positions, phases, grippers, normals[:-1])
        with pytest.raises(LengthMismatch):
            extract_supervision(positions[:1], phases[:1], grippers[:1], normals[:1])


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
    @pytest.mark.parametrize("seed", [0, 3, 7, 12])
    def test_contact_normal_is_the_radial_of_the_next_poses_circle(self, task, seed):
        env = build_environment(task, np.random.default_rng(seed))
        demo = generate_demo(task, env)
        on_handle, hinge_radii = 0, []
        for t, tup in enumerate(demo.tuples):
            if not tup.contact:
                continue
            p = demo.positions[t + 1]
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
    def test_each_pose10_is_the_next_position_and_the_identity(self, task, seed):
        demo = generate_demo(task, build_environment(task, np.random.default_rng(seed)))
        assert len(demo.tuples) == len(demo.positions) - 1
        for t, tup in enumerate(demo.tuples):
            want = np.array((*demo.positions[t + 1], 1.0, 0.0, 0.0, 0.0, 1.0, 0.0))
            assert tup.pose10[:9].tobytes() == want.tobytes(), t

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
