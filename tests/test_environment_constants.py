"""The fixed environment values: the board, bore, door and friction constants.

No constructor takes these values, so no constructor checks them. Each one
keeps the value it had as a constructor default, lies in the range its
constructor check enforced, and acts where the environment reads it: the
wiping gate and eraser footprint, the bore's wall, bottom and funnel, the
door's grasp, latches, handle circle and spring, and each friction law.
"""

import math

import numpy as np
import pytest

from scenarios import flat_board, lever_door, lever_grasp, microwave, microwave_grasp

from admitsim import environments, harness
from admitsim.environments import (
    BOARD_EXTENT,
    BOARD_FRICTION,
    CELL_SIZE,
    CHAMFER,
    CLEARANCE,
    COULOMB_V_EPS,
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
    OPENING_SIGN,
    RELEASE_ANGLE,
    WALL_STIFFNESS,
    FrictionModel,
    HoleFixture,
    InkGrid,
    update_ink,
)
from admitsim.errors import check_range

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


@pytest.mark.parametrize("name,value,low,closed", CONSTANTS, ids=[c[0] for c in CONSTANTS])
def test_constant_keeps_its_default_and_range(name, value, low, closed):
    constant = getattr(environments, name)
    assert repr(constant) == repr(value)  # bit for bit, float types included
    if isinstance(constant, FrictionModel):
        check_range(f"{name}.coulomb_mu", constant.coulomb_mu, low, closed)
        check_range(f"{name}.viscous_c", constant.viscous_c, low, closed)
    elif low is not None:
        check_range(name, constant, low, closed)


def test_the_ink_grid_covers_the_board_extent():
    ink = InkGrid()
    assert (ink.nx * CELL_SIZE, ink.ny * CELL_SIZE) == pytest.approx(BOARD_EXTENT, abs=1e-12)
    ink.inked[:] = True
    centers = ink.inked_centers()
    half = 0.5 * np.array(BOARD_EXTENT) - 0.5 * CELL_SIZE
    np.testing.assert_allclose(centers.min(axis=0), -half, atol=1e-12)
    np.testing.assert_allclose(centers.max(axis=0), half, atol=1e-12)


def test_the_peg_has_room_inside_the_bore():
    # The wall band (CLEARANCE, HOLE_RADIUS] is not empty.
    assert 0.0 <= CLEARANCE < HOLE_RADIUS


def test_the_door_geometry_constants_are_units():
    assert math.sqrt(sum(c * c for c in HINGE_AXIS)) == 1.0
    assert abs(OPENING_SIGN) == 1.0


# ----------------------------------------------------------------------------
# Friction: one regularized Coulomb/viscous law per environment kind
# ----------------------------------------------------------------------------

FRICTIONS = {"board": BOARD_FRICTION, "hole": HOLE_FRICTION, "door": DOOR_FRICTION}


@pytest.mark.parametrize("speed", [0.5 * COULOMB_V_EPS, 10.0 * COULOMB_V_EPS, 5e-16, 1e-15],
                         ids=["ramped", "full", "cut-off", "at-cut-off"])
@pytest.mark.parametrize("kind", list(FRICTIONS))
def test_slip_force_law(kind, speed):
    model = FRICTIONS[kind]
    force = model.slip_force((speed, 0.0, 0.0), speed, -3.0)
    if speed < 1e-15:  # below the cut-off the law gives no force at all
        assert force == (0.0, 0.0, 0.0)
        return
    magnitude = (model.coulomb_mu * 3.0 * min(1.0, speed / COULOMB_V_EPS)
                 + model.viscous_c * speed)
    assert force[0] == pytest.approx(-magnitude, rel=1e-12)
    assert force[1:] == (0.0, 0.0)


def bore():
    return HoleFixture(rim_center=(0.0, 0.0, 0.0), k_e=1000.0)


def test_board_slides_with_board_friction():
    force = flat_board().external_wrench((0.0, 0.0, -0.004), (0.5, 0.0, 0.0))
    f_n = 1000.0 * 0.004
    slip = BOARD_FRICTION.coulomb_mu * f_n + BOARD_FRICTION.viscous_c * 0.5
    assert force == pytest.approx((-slip, 0.0, f_n), rel=1e-12)


def test_top_plate_slides_with_hole_friction():
    pos = (HOLE_RADIUS + CHAMFER + 0.005, 0.0, -0.002)
    force = bore().external_wrench(pos, (0.0, 0.5, 0.0))
    f_n = 1000.0 * 0.002
    slip = HOLE_FRICTION.coulomb_mu * f_n + HOLE_FRICTION.viscous_c * 0.5
    assert force == pytest.approx((0.0, -slip, f_n), rel=1e-12)


# ----------------------------------------------------------------------------
# Board: the wiping gate and the square eraser
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("force,pressed", [(math.nextafter(F_MIN_WIPE, 0.0), 0), (F_MIN_WIPE, 1)],
                         ids=["below", "at"])
def test_wiping_is_gated_at_f_min_wipe(force, pressed, monkeypatch):
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
def test_eraser_cleans_the_square_of_eraser_half(x, y):
    board = flat_board()
    board.ink.inked[:] = True
    centers = board.ink.inked_centers()
    inside = np.abs(centers - (x, y)).max(axis=1) <= ERASER_HALF
    board.presses.append(0)
    assert update_ink(board, np.array([(x, y, -0.004)])) == inside.sum() > 0
    left = board.ink.inked.reshape(-1)  # inked_centers lists the cells in this order
    assert not left[inside].any()
    assert left[~inside].all()


# ----------------------------------------------------------------------------
# Bore: the wall beyond the clearance, the bottom spring, the funnel
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.0, 0.5 * CLEARANCE, CLEARANCE, 1.5 * CLEARANCE, HOLE_RADIUS],
                         ids=["axis", "half-clearance", "clearance", "wall", "radius"])
def test_wall_pushes_back_beyond_the_clearance(r):
    force = bore().external_wrench((r, 0.0, -0.01), (0.0, 0.0, 0.0))
    expected = -WALL_STIFFNESS * (r - CLEARANCE) if r > CLEARANCE else 0.0
    assert force == pytest.approx((expected, 0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("past", [-0.001, 0.0, 0.002], ids=["above", "at", "below"])
def test_bottom_spring_starts_at_the_hole_depth(past):
    force = bore().external_wrench((0.0, 0.0, -(HOLE_DEPTH + past)), (0.0, 0.0, 0.0))
    assert force == pytest.approx((0.0, 0.0, 1000.0 * max(0.0, past)), abs=1e-9)


def test_funnel_reaction_leans_toward_the_axis():
    r, depth = HOLE_RADIUS + 0.5 * CHAMFER, 0.004
    force = bore().external_wrench((r, 0.0, -depth), (0.0, 0.0, 0.0))
    h = math.sqrt(0.5)
    f_n = 1000.0 * (depth - (HOLE_RADIUS + CHAMFER - r)) * h
    assert force == pytest.approx((-f_n * h, 0.0, f_n * h), rel=1e-12)


def test_beyond_the_funnel_is_the_top_plate():
    force = bore().external_wrench((HOLE_RADIUS + CHAMFER + 0.001, 0.0, -0.002),
                                   (0.0, 0.0, 0.0))
    assert force == pytest.approx((0.0, 0.0, 2.0), rel=1e-12)


# ----------------------------------------------------------------------------
# Door: grasp, snap lock, handle latch, handle circle and spring, friction
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("distance,engaged", [
    (0.0, True), (0.5 * GRASP_TOL, True), (math.nextafter(GRASP_TOL, 0.0), True),
    (GRASP_TOL, False), (2.0 * GRASP_TOL, False),
], ids=["at-grasp", "half", "just-inside", "at-tolerance", "twice"])
def test_gripper_closes_on_the_handle_within_grasp_tol(distance, engaged):
    door = microwave()
    door.update((distance, 0.0, 0.0), 1.0)
    assert door.engaged is engaged


@pytest.mark.parametrize("sense", [1.0, -1.0], ids=["opening", "closing"])
def test_the_door_opens_in_the_opening_sense(sense):
    door = microwave()
    door.update(door.grasp0, 1.0)
    door.update(microwave_grasp(sense * 0.2), 1.0)
    assert door.door_angle == pytest.approx(max(0.0, sense * 0.2), abs=1e-12)


@pytest.mark.parametrize("share,released", [(0.9, False), (1.1, True)], ids=["inside", "past"])
def test_snap_lock_yields_past_the_release_angle(share, released):
    door = microwave()
    door.update(door.grasp0, 1.0)
    door.update(microwave_grasp(share * RELEASE_ANGLE), 1.0)
    assert door.latch_released is released


@pytest.mark.parametrize("share,released", [(0.9, False), (1.1, True)], ids=["inside", "past"])
def test_bolt_yields_at_the_latch_threshold(share, released):
    door = lever_door()
    door.update(door.grasp0, 1.0)
    door.update(lever_grasp(share * LATCH_THRESHOLD), 1.0)
    assert door.handle_angle == pytest.approx(share * LATCH_THRESHOLD, rel=1e-12)
    assert door.latch_released is released


@pytest.mark.parametrize("offset", [0.0, 0.001, -0.001], ids=["on", "outside", "inside"])
def test_the_latched_handle_circle_has_radius_handle_lever(offset):
    door = lever_door()
    door.update(door.grasp0, 1.0)
    force = door.external_wrench((0.0, -(HANDLE_LEVER + offset), 0.0), (0.0, 0.0, 0.0))
    assert force == pytest.approx((0.0, 1000.0 * offset, 0.0), abs=1e-9)


@pytest.mark.parametrize("angle", [math.radians(10.0), math.radians(20.0)], ids=["10deg", "20deg"])
def test_handle_spring_turns_the_handle_back(angle):
    door = lever_door(latch_force=0.0)
    door.update(door.grasp0, 1.0)
    p = lever_grasp(angle)
    door.update(p, 1.0)
    assert not door.latch_released and door.door_angle == 0.0
    force = np.array(door.external_wrench(p, (0.0, 0.0, 0.0)))
    turning = np.array([0.0, math.sin(angle), -math.cos(angle)])  # d p / d angle, unit
    np.testing.assert_allclose(force, -HANDLE_SPRING * angle * turning, atol=1e-9)


def test_door_slides_on_its_circle_with_door_friction():
    door = microwave()
    door.update(door.grasp0, 1.0)
    # 1 mm outside the hinge circle, moving along it at 1 m/s.
    force = door.external_wrench((0.0, -0.001, 0.0), (1.0, 0.0, 0.0))
    f_con = -1000.0 * 0.001
    slip = DOOR_FRICTION.coulomb_mu * abs(f_con) + DOOR_FRICTION.viscous_c * 1.0
    assert force == pytest.approx((-slip, -f_con, 0.0), rel=1e-9)
