import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from reference_demos import _lerp, _rodrigues, _slerp

from admitsim.errors import DegenerateInput
from admitsim.geometry import (
    Pose,
    _normalize,
    _quat_matrix,
    _rodrigues_fixed,
    _slerp_ends,
    _unit_quat,
    pose10_encode,
    quat_from_axis_angle,
    quat_mul,
    rot6d_encode,
)

IDENTITY = (1.0, 0.0, 0.0, 0.0)


def random_quat(rng):
    q = rng.normal(size=4)
    while np.linalg.norm(q) < 1e-3:
        q = rng.normal(size=4)
    return _unit_quat(q.tolist())


def matrix(q):
    return np.array(_quat_matrix(q))


class TestRot6d:
    def test_identity_encoding(self):
        assert_allclose(rot6d_encode(IDENTITY), [1, 0, 0, 0, 1, 0], atol=1e-12)

    def test_90deg_about_z(self):
        q = quat_from_axis_angle((0.0, 0.0, 1.0), math.pi / 2)
        assert_allclose(rot6d_encode(q), [0, 1, 0, -1, 0, 0], atol=1e-12)

    def test_90deg_about_x(self):
        q = quat_from_axis_angle((1.0, 0.0, 0.0), math.pi / 2)
        assert_allclose(rot6d_encode(q), [1, 0, 0, 0, 0, 1], atol=1e-12)

    def test_scale_invariant(self):
        # The quaternion is normalized before its matrix is taken.
        assert_allclose(rot6d_encode((2.0, 0.0, 0.0, 0.0)), [1, 0, 0, 0, 1, 0], atol=1e-12)

    def test_sign_invariant(self):
        # q and -q are the same rotation, and encode bit for bit alike.
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = random_quat(rng)
            assert rot6d_encode(q) == rot6d_encode(tuple(-c for c in q))

    def test_columns_orthonormal_1000_random_rotations(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            v = np.array(rot6d_encode(random_quat(rng)))
            a, b = v[:3], v[3:]
            assert abs(a @ a - 1.0) < 1e-12
            assert abs(b @ b - 1.0) < 1e-12
            assert abs(a @ b) < 1e-12


def rodrigues_rotate(p, axis, pivot, angle):
    """Point p turned by angle about the line through pivot along unit axis."""
    fixed = _rodrigues_fixed(*(np.asarray(v, dtype=float).tolist() for v in (p, axis, pivot)))
    return np.array(_rodrigues(fixed, angle))


class TestRodrigues:
    def test_quarter_turn(self):
        p = rodrigues_rotate(np.array([1.0, 0, 0]), np.array([0.0, 0, 1]),
                             np.zeros(3), math.pi / 2)
        assert_allclose(p, [0, 1, 0], atol=1e-12)

    def test_zero_angle_identity(self):
        p0 = np.array([0.3, -1.2, 0.7])
        p = rodrigues_rotate(p0, np.array([0.0, 1, 0]), np.array([1.0, 2, 3]), 0.0)
        assert_allclose(p, p0, atol=1e-15)

    def test_offset_pivot(self):
        p = rodrigues_rotate(np.array([2.0, 0, 0]), np.array([0.0, 0, 1]),
                             np.array([1.0, 0, 0]), math.pi)
        assert_allclose(p, [0, 0, 0], atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_preserves_distance_to_axis(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=3)
        axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis) if np.linalg.norm(axis) > 1e-6 else np.array([0.0, 0, 1])
        pivot = rng.normal(size=3)
        angle = rng.uniform(-2 * math.pi, 2 * math.pi)

        def dist_to_axis(point):
            r = point - pivot
            return np.linalg.norm(r - (r @ axis) * axis)

        d0 = dist_to_axis(p)
        d1 = dist_to_axis(rodrigues_rotate(p, axis, pivot, angle))
        assert abs(d1 - d0) <= 1e-12 * max(1.0, d0)


class TestDegenerateNorms:
    """A NaN norm is as degenerate as a zero one: each fails `not n >= 1e-12`."""

    @pytest.mark.parametrize("v", [(math.nan, 0.0, 1.0), (0.0, 0.0, 0.0), (1e-13, 0.0, 0.0)])
    def test_normalize(self, v):
        with pytest.raises(DegenerateInput):
            _normalize(v)

    @pytest.mark.parametrize("q", [(math.nan, 0.0, 0.0, 0.0), (1.0, 0.0, math.nan, 0.0),
                                   (0.0, 0.0, 0.0, 0.0)])
    def test_pose_orientation(self, q):
        with pytest.raises(DegenerateInput, match="zero quaternion"):
            Pose((0.0, 0.0, 0.0), q)

    def test_axis_angle_axis(self):
        with pytest.raises(DegenerateInput):
            quat_from_axis_angle((math.nan, 0.0, 0.0), 0.3)

    def test_a_finite_unit_vector_still_normalizes(self):
        assert _normalize((0.0, 3.0, 4.0)) == (0.0, 0.6, 0.8)


def interpolate_pose(a, b, s):
    """The pose at s of the segment from a to b: position lerp, shortest-arc slerp."""
    ends = _slerp_ends(a.orientation, b.orientation)
    return Pose(_lerp(a.position, b.position, s), _slerp(ends, s))


class TestInterpolatePose:
    def test_endpoints_exact(self):
        a = Pose(np.zeros(3), IDENTITY)
        b = Pose(np.array([1.0, 0, 0]), quat_from_axis_angle((0.0, 0, 1), 1.0))
        assert_allclose(interpolate_pose(a, b, 0.0).position, a.position)
        assert_allclose(interpolate_pose(a, b, 1.0).position, b.position)
        assert_allclose(interpolate_pose(a, b, 1.0).orientation, b.orientation, atol=1e-12)

    def test_midpoint_position(self):
        a = Pose(np.zeros(3), IDENTITY)
        b = Pose(np.array([1.0, 0, 0]), IDENTITY)
        assert_allclose(interpolate_pose(a, b, 0.5).position, [0.5, 0, 0])

    def test_slerp_halfway_is_45deg(self):
        a = Pose(np.zeros(3), IDENTITY)
        b = Pose(np.zeros(3), quat_from_axis_angle((0.0, 0, 1), math.pi / 2))
        mid = interpolate_pose(a, b, 0.5)
        expected = quat_from_axis_angle((0.0, 0, 1), math.pi / 4)
        assert_allclose(mid.orientation, expected, atol=1e-12)

    @given(st.floats(0.0, 1.0), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_unit_norm_preserved(self, s, seed):
        rng = np.random.default_rng(seed)
        a = Pose(rng.normal(size=3), random_quat(rng))
        b = Pose(rng.normal(size=3), random_quat(rng))
        q = interpolate_pose(a, b, s).orientation
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12


def test_pose10_packs_position_rot6d_and_gripper():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pose = Pose(rng.normal(size=3), random_quat(rng))
        g = rng.uniform(0, 1)
        v = pose10_encode(pose, g)
        assert len(v) == 10 and all(type(x) is float for x in v)
        want = np.array((*pose.position, *rot6d_encode(pose.orientation), g))
        assert np.array(v).tobytes() == want.tobytes()


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = random_quat(rng), random_quat(rng)
        assert_allclose(matrix(quat_mul(a, b)), matrix(a) @ matrix(b), atol=1e-12)


@pytest.mark.parametrize("position, orientation", [
    ([0.0, 0.0], IDENTITY),            # a position of 2 components
    ([0.0, 0.0, 0.0, 0.0], IDENTITY),  # ... or of 4
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
])
def test_pose_rejects_malformed_components(position, orientation):
    with pytest.raises(ValueError):
        Pose(position, orientation)


def test_pose_holds_float_tuples():
    pose = Pose(np.array([1, 2, 3]), np.array([2.0, 0.0, 0.0, 0.0]))
    assert pose == ((1.0, 2.0, 3.0), IDENTITY)
    assert all(type(x) is float for x in pose.position + pose.orientation)
