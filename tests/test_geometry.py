import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from reference_demos import _rodrigues

from admitsim.errors import DegenerateInput
from admitsim.geometry import (
    Pose,
    _normalize,
    _quat_matrix,
    _rodrigues_fixed,
    _unit_quat,
    quat_from_axis_angle,
    quat_mul,
)


def random_quat(rng):
    q = rng.normal(size=4)
    while np.linalg.norm(q) < 1e-3:
        q = rng.normal(size=4)
    return _unit_quat(q.tolist())


def matrix(q):
    return np.array(_quat_matrix(q))


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
    def test_quaternion(self, q):
        with pytest.raises(DegenerateInput, match="zero quaternion"):
            _quat_matrix(q)

    def test_axis_angle_axis(self):
        with pytest.raises(DegenerateInput):
            quat_from_axis_angle((math.nan, 0.0, 0.0), 0.3)

    def test_a_finite_unit_vector_still_normalizes(self):
        assert _normalize((0.0, 3.0, 4.0)) == (0.0, 0.6, 0.8)


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = random_quat(rng), random_quat(rng)
        assert_allclose(matrix(quat_mul(a, b)), matrix(a) @ matrix(b), atol=1e-12)


@pytest.mark.parametrize("position", [
    [0.0, 0.0],            # a position of 2 components
    [0.0, 0.0, 0.0, 0.0],  # ... or of 4
])
def test_pose_rejects_malformed_components(position):
    with pytest.raises(ValueError):
        Pose(position)


def test_pose_holds_float_tuples():
    pose = Pose(np.array([1, 2, 3]))
    assert pose == ((1.0, 2.0, 3.0),)
    assert all(type(x) is float for x in pose.position)
