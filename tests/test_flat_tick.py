"""The per-tick code equals its helper compositions bit for bit.

`controller_tick`, the three `external_wrench`s and `HingedDoor.update` write
their vector operations out on floats. `reference_laws` composes the same
laws from the geometry helpers in the order of operations the outputs were
pinned with; every float here is compared by its bytes, so a signed zero or a
last bit apart fails.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_laws as ref
from reference_demos import _rodrigues
from scenarios import bits

from admitsim.admittance import (
    EPS_POS,
    AdmittanceConfig,
    ControllerCommand,
    ControllerState,
    controller_tick,
)
from admitsim.environments import (
    BORE_AXIS,
    CHAMFER,
    CLEARANCE,
    HINGE_AXIS,
    HOLE_DEPTH,
    HOLE_RADIUS,
    OPENING_SIGN,
    HoleFixture,
    PlaneBoard,
)
from admitsim.errors import NonFiniteState
from admitsim.geometry import _cross, _normalize, _rodrigues_fixed
from admitsim.tasks import build_environment


def floats(lo, hi, *specials):
    """Floats in [lo, hi] and the given special values, both zeros among them."""
    return st.one_of(st.floats(lo, hi), st.sampled_from((0.0, -0.0) + specials))


def vectors(lo, hi, *specials):
    return st.tuples(*[floats(lo, hi, *specials)] * 3)


unit_vectors = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (-0.0, 0.0, -1.0), (0.0, -0.0, 1.0), (1.0, -0.0, 0.0),
                     (0.0, 1.0, 0.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 1e-2).map(_normalize),
)


# --------------------------------------------------------------------------
# Controller
# --------------------------------------------------------------------------

configs = st.builds(
    AdmittanceConfig,
    mass=st.floats(0.2, 5.0), stiffness=st.floats(1.0, 1000.0),
    damping_ratio=st.floats(0.3, 3.0), tangent_scale=st.floats(1.0, 8.0),
    enable_normal_regulation=st.booleans(), enable_tangent_stiffening=st.booleans(),
    target_force=floats(0.0, 10.0), force_deadband=floats(0.0, 5.0, 2.0))


def motion(n, kind, d, s):
    """The commanded motion x_cmd - x_r: free (d), none, shorter than EPS_POS,
    or along the normal n."""
    if kind == "none":
        return (0.0, 0.0, 0.0)
    if kind == "short":
        return tuple(c * 0.9 * EPS_POS for c in _normalize(d))
    if kind == "normal":
        return (s * n[0], s * n[1], s * n[2])
    return d


def assert_tick_matches(st_, cmd, force, dt, cfg):
    flat = controller_tick(st_, cmd, force, dt, cfg)
    assert bits(flat) == bits(ref.controller_tick(st_, cmd, force, dt, cfg))
    return flat


class TestControllerTick:
    @given(cfg=configs, x=vectors(-0.5, 0.5), v=vectors(-0.5, 0.5), n=unit_vectors,
           kind=st.sampled_from(["free", "none", "short", "normal"]),
           d=vectors(-0.2, 0.2).filter(lambda d: d[0] * d[0] + d[1] * d[1] + d[2] * d[2] > 1e-12),
           s=st.floats(-0.2, 0.2),
           c=st.sampled_from([0, 1]), gripper=st.sampled_from([0.0, 1.0]),
           force=vectors(-30.0, 30.0, 2.0, -2.0), dt=st.sampled_from([1e-3, 5e-4, 0.01]))
    @settings(max_examples=250, deadline=None)
    def test_equals_the_helper_composition(self, cfg, x, v, n, kind, d, s, c, gripper,
                                           force, dt):
        m = motion(n, kind, d, s)
        x_cmd = (x[0] + m[0], x[1] + m[1], x[2] + m[2])
        assert_tick_matches(ControllerState(x, v), ControllerCommand(x_cmd, gripper, n, c),
                            force, dt, cfg)

    # Each branch of the tick once, with the eigenvalues it reports: out of
    # contact, regulation alone, stiffening alone, both, a zero deadband, and
    # the two isotropic fallbacks of the tangent axis.
    @pytest.mark.parametrize("c,regulate,stiffen,band,kind,tangent", [
        (0, True, True, 2.0, "free", False),
        (1, True, False, 2.0, "free", False),
        (1, False, True, 2.0, "free", True),
        (1, True, True, 2.0, "free", True),
        (1, True, True, 0.0, "free", True),
        (1, True, True, 2.0, "short", False),
        (1, True, True, 2.0, "normal", False),
    ])
    def test_each_branch(self, c, regulate, stiffen, band, kind, tangent):
        cfg = AdmittanceConfig(enable_normal_regulation=regulate,
                               enable_tangent_stiffening=stiffen, target_force=4.0,
                               force_deadband=band)
        n = _normalize((0.2, -0.3, 1.0))
        x, v = (0.01, -0.02, 0.003), (-0.0, 0.05, -0.01)
        m = motion(n, kind, (0.03, 0.01, -0.02), 0.05)
        cmd = ControllerCommand((x[0] + m[0], x[1] + m[1], x[2] + m[2]), 1.0, n, c)
        res = assert_tick_matches(ControllerState(x, v), cmd, (1.5, -0.0, 3.0), 1e-3, cfg)
        assert (res.stiffness_eigs == cfg._tangent_eigs) is tangent
        assert (res.f_cmd != (0.0, 0.0, 0.0)) is (c == 1 and regulate)
        assert (res.f_ext == (0.0, 0.0, 0.0)) is (band == 2.0 and 1.5 ** 2 + 9.0 <= 4.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_both_raise_on_a_non_finite_state(self, value):
        cfg = AdmittanceConfig(force_deadband=0.0)
        args = (ControllerState((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                ControllerCommand((0.0, 0.0, 0.0)), (0.0, value, 0.0), 1e-3, cfg)
        for tick in (controller_tick, ref.controller_tick):
            with pytest.raises(NonFiniteState):
                tick(*args)


# --------------------------------------------------------------------------
# Board and bore
# --------------------------------------------------------------------------

quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: sum(c * c for c in q) > 1e-2)

# Velocities: any, none, or along the board's +z.
velocities = st.one_of(vectors(-0.5, 0.5), st.sampled_from(
    [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (0.0, 0.0, 0.2), (1e-16, 0.0, 0.0)]))


@given(center=vectors(-0.3, 0.3), rotation=quaternions, k_e=st.floats(10.0, 5000.0),
       tilt=st.one_of(st.just(None), st.floats(-0.3, 0.3)), tilt_axis=unit_vectors,
       offset=vectors(-0.02, 0.02), vel=velocities)
@settings(max_examples=200, deadline=None)
@example(center=(0.0, 0.0, 0.0), rotation=(1.0, 0.0, 0.0, 0.0), k_e=1000.0, tilt=None,
         tilt_axis=(1.0, 0.0, 0.0), offset=(0.01, -0.0, -0.004), vel=(0.0, 0.0, 0.2))
def test_board_wrench_equals_the_helper_composition(center, rotation, k_e, tilt, tilt_axis,
                                                    offset, vel):
    board = PlaneBoard(center, rotation, k_e)
    if tilt is not None:  # a tilted board's normal is its frame's third row
        board.apply_disturbance_state((0.0, 0.01, -0.0), tilt, tilt_axis)
    r = board.rest_point
    pos = (r[0] + offset[0], r[1] + offset[1], r[2] + offset[2])
    assert bits(board.external_wrench(pos, vel)) == bits(ref.board_wrench(board, pos, vel))


def hole_point(hole, depth, r, phi):
    """The point depth below the rim along the bore axis and r off it, at azimuth phi."""
    u = BORE_AXIS
    e1 = _normalize(_cross(u, (0.3, 1.0, 0.1) if abs(u[0]) > 0.9 else (1.0, 0.2, 0.1)))
    e2 = _cross(u, e1)
    c, s = r * math.cos(phi), r * math.sin(phi)
    return tuple(hole.rim_center[i] - depth * u[i] + c * e1[i] + s * e2[i] for i in range(3))


# Depths above the rim, in the bore and below its bottom; radii inside the
# clearance, at the wall, in the chamfer and over the top plate.
depths = st.one_of(st.floats(-0.004, 0.0), st.floats(0.0, HOLE_DEPTH),
                   st.floats(HOLE_DEPTH, HOLE_DEPTH + 0.004))
radii = st.one_of(st.just(0.0), st.floats(0.0, CLEARANCE), st.floats(CLEARANCE, HOLE_RADIUS),
                  st.floats(HOLE_RADIUS, HOLE_RADIUS + CHAMFER),
                  st.floats(HOLE_RADIUS + CHAMFER, 0.02))


@given(rim=vectors(-0.3, 0.3), k_e=st.floats(10.0, 5000.0),
       depth=depths, r=radii, phi=st.floats(-math.pi, math.pi), vel=velocities)
@settings(max_examples=250, deadline=None)
def test_hole_wrench_equals_the_helper_composition(rim, k_e, depth, r, phi, vel):
    hole = HoleFixture(rim, k_e)
    pos = hole_point(hole, depth, r, phi)
    assert bits(hole.external_wrench(pos, vel)) == bits(ref.hole_wrench(hole, pos, vel))


@pytest.mark.parametrize("depth,r,touching", [
    (-0.001, 0.0, False),                         # above the rim
    (0.01, 0.0005, False),                        # in the bore, inside the clearance
    (0.01, 0.003, True),                          # pressing the wall
    (HOLE_DEPTH + 0.002, 0.0005, True),           # pressing the bottom
    (HOLE_DEPTH + 0.002, 0.004, True),            # the wall and the bottom
    (0.004, HOLE_RADIUS + 0.001, True),           # pressing the chamfer
    (0.0002, HOLE_RADIUS + 0.0035, False),        # over the chamfer, not touching it
    (0.002, HOLE_RADIUS + CHAMFER + 0.002, True),  # on the top plate
])
@pytest.mark.parametrize("vel", [(0.0, 0.0, 0.0), (0.01, -0.02, -0.05)])
def test_every_bore_region(depth, r, touching, vel):
    hole = HoleFixture((0.3, 0.1, 0.08), 1000.0)
    pos = hole_point(hole, depth, r, 0.7)
    flat = hole.external_wrench(pos, vel)
    assert bits(flat) == bits(ref.hole_wrench(hole, pos, vel))
    assert (flat != (0.0, 0.0, 0.0)) is touching


# --------------------------------------------------------------------------
# Door
# --------------------------------------------------------------------------

def door_point(door, handle, opening):
    """grasp0 with the handle turned by `handle` rad (a door only), then the
    door opened by `opening` rad about its hinge."""
    p = door.grasp0
    if not door.microwave:
        p = _rodrigues(_rodrigues_fixed(p, door.handle_axis, door.handle_pivot), handle)
    return _rodrigues(_rodrigues_fixed(p, HINGE_AXIS, door.hinge_pivot), OPENING_SIGN * opening)


DOOR_STATE = ("engaged", "latch_released", "door_angle", "handle_angle", "pull_radius",
              "_az_ref")


def door_state(door):
    return tuple(getattr(door, name) for name in DOOR_STATE)


def assert_door_matches(door, pos, gripper, vel):
    """update and then external_wrench on two copies of the door: the flat
    methods on one, the compositions on the other. Returns the flat copy."""
    other = copy.deepcopy(door)
    door.update(pos, gripper)
    ref.door_update(other, pos, gripper)
    assert bits(door_state(door)) == bits(door_state(other))
    assert bits(door.external_wrench(pos, vel)) == bits(ref.door_wrench(other, pos, vel))
    return door


@given(task=st.sampled_from(["DO", "MO"]), seed=st.integers(0, 2 ** 16),
       engaged=st.booleans(), released=st.booleans(), handle=st.floats(-0.2, 1.0),
       opening=st.floats(-0.3, 1.2), jitter=vectors(-0.02, 0.02),
       gripper=st.sampled_from([0.0, 1.0, 0.5]), door_angle=floats(0.0, 0.5),
       handle_angle=floats(0.0, 0.6), az_ref=st.floats(-0.5, 0.5),
       pull_radius=st.floats(0.05, 0.5), vel=vectors(-0.3, 0.3))
# Grasped closed and sliding at exactly the slip cut-off speed, 1e-15 m/s: it slips.
@example(task="DO", seed=0, engaged=False, released=False, handle=0.0, opening=0.0,
         jitter=(0.0, 0.0, 0.0), gripper=1.0, door_angle=0.0, handle_angle=0.0, az_ref=0.0,
         pull_radius=0.5, vel=(0.0, 0.0, 1e-15))
@settings(max_examples=250, deadline=None)
def test_door_equals_the_helper_composition(task, seed, engaged, released, handle, opening,
                                            jitter, gripper, door_angle, handle_angle, az_ref,
                                            pull_radius, vel):
    door = build_environment(task, np.random.default_rng(seed))
    door.engaged, door.latch_released = engaged, released
    door.door_angle, door._az_ref, door.pull_radius = door_angle, az_ref, pull_radius
    if not door.microwave:
        door.handle_angle = handle_angle
    p = door_point(door, handle, opening)
    pos = (p[0] + jitter[0], p[1] + jitter[1], p[2] + jitter[2])
    assert_door_matches(door, pos, gripper, vel)
    # The wrench of the state as drawn, before any update.
    assert bits(door.external_wrench(pos, vel)) == bits(ref.door_wrench(door, pos, vel))


@pytest.mark.parametrize("task", ["DO", "MO"])
def test_a_door_latched_turning_and_released(task):
    """Grasp, turn the handle (a door) while pulling a little, then open: every
    step of the walk matches, and it passes each latch state."""
    door = build_environment(task, np.random.default_rng(3))
    vel = (0.01, -0.03, 0.002)
    seen = set()
    turn = [] if door.microwave else [(h, 0.2 * h) for h in np.linspace(0.0, 0.7, 30)]
    opened = [(turn[-1][0] if turn else 0.0, a) for a in np.linspace(0.0, 0.8, 30)]
    for handle, opening in [(0.0, 0.0)] + turn + opened:
        assert_door_matches(door, door_point(door, handle, opening), 1.0, vel)
        if not door.latch_released:
            seen.add("latched" if door.door_angle > 0.0 else "closed")
            if door.handle_angle > 0.0:
                seen.add("turning")
        else:
            seen.add("released")
    assert door.engaged
    expected = {"closed", "latched", "released"} | ({"turning"} if task == "DO" else set())
    assert seen == expected
    # Letting go disengages, and an open gripper far from the grasp stays so.
    assert_door_matches(door, door_point(door, 0.0, 0.8), 0.0, vel)
    assert not door.engaged
    assert_door_matches(door, door_point(door, 0.0, 0.8), 1.0, vel)
