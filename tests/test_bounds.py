"""Every numeric bound of the constructors, in one table.

Each bound is checked by `errors.check_range` (finite and > low, or >= low
when closed) or, for counts and seeds, by `errors.check_count`. NaN, both
infinities and the value just past the bound raise the documented type; the
bound itself is accepted where the range is closed and rejected where it is
open, and the value just inside it is accepted.
"""

import math

import numpy as np
import pytest

from admitsim.admittance import AdmittanceConfig, compute_damping
from admitsim.environments import (
    FrictionModel,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
    SpringContact,
)
from admitsim.errors import NonPositiveParameter
from admitsim.harness import ScenarioConfig
from admitsim.policy import NoiseSpec
from admitsim.verify import NormalDynamicsParams


def field(cls, name):
    return lambda v: cls(**{name: v})


def door(name):
    return lambda v: HingedDoor(hinge_pivot=(0.0, 0.42, 0.0), grasp0=(0.0, -0.06, 0.0),
                                handle_pivot=(0.0, 0.0, 0.0), handle_axis=(1.0, 0.0, 0.0),
                                microwave=False, **{name: v})


def dynamics(**kw):
    return NormalDynamicsParams(**{"m": 1.0, "d": 28.0, "k_e": 1000.0, "f_H": 4.0, **kw})


NPP, VE = NonPositiveParameter, ValueError
# (owner, name in the message, constructor of one value, low, closed, error)
BOUNDS = [
    ("compute_damping", "mass", lambda v: compute_damping(v, 50.0, 2.0), 0.0, False, NPP),
    ("compute_damping", "stiffness", lambda v: compute_damping(1.0, v, 2.0), 0.0, False, NPP),
    ("compute_damping", "damping_ratio", lambda v: compute_damping(1.0, 50.0, v), 0.0, False, NPP),
    ("admittance", "mass", field(AdmittanceConfig, "mass"), 0.0, False, NPP),
    ("admittance", "stiffness", field(AdmittanceConfig, "stiffness"), 0.0, False, NPP),
    ("admittance", "damping_ratio", field(AdmittanceConfig, "damping_ratio"), 0.0, False, NPP),
    ("admittance", "tangent_scale", field(AdmittanceConfig, "tangent_scale"), 1.0, True, VE),
    ("admittance", "target_force", field(AdmittanceConfig, "target_force"), 0.0, True, VE),
    ("admittance", "force_deadband", field(AdmittanceConfig, "force_deadband"), 0.0, True, VE),
    ("dynamics", "m", lambda v: dynamics(m=v), 0.0, False, VE),
    ("dynamics", "d", lambda v: dynamics(d=v), 0.0, False, VE),
    ("dynamics", "k_e", lambda v: dynamics(k_e=v), 0.0, False, VE),
    ("dynamics", "f_H", lambda v: dynamics(f_H=v), 0.0, True, VE),
    ("noise", "pos_std", field(NoiseSpec, "pos_std"), 0.0, True, VE),
    ("noise", "rot_std", field(NoiseSpec, "rot_std"), 0.0, True, VE),
    ("noise", "normal_cone_std", field(NoiseSpec, "normal_cone_std"), 0.0, True, VE),
    ("scenario", "environment k_e",
     lambda v: ScenarioConfig("DO", env_overrides={"k_e": v}), 0.0, False, VE),
    ("scenario", "environment latch_force",
     lambda v: ScenarioConfig("DO", env_overrides={"latch_force": v}), 0.0, False, VE),
    ("scenario", "safety limit", lambda v: ScenarioConfig("WW", safety_limit=v), 0.0, False, VE),
    ("scenario", "safety debounce",
     lambda v: ScenarioConfig("WW", safety_debounce=v), 0.0, True, VE),
    ("spring", "k_e", lambda v: SpringContact(v, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
     0.0, False, VE),
    ("friction", "coulomb_mu", field(FrictionModel, "coulomb_mu"), 0.0, True, VE),
    ("friction", "viscous_c", field(FrictionModel, "viscous_c"), 0.0, True, VE),
    ("board", "eraser_half_x", field(PlaneBoard, "eraser_half_x"), 0.0, False, VE),
    ("board", "eraser_half_y", field(PlaneBoard, "eraser_half_y"), 0.0, False, VE),
    ("board", "f_min_wipe", field(PlaneBoard, "f_min_wipe"), 0.0, True, VE),
    ("hole", "depth", field(HoleFixture, "depth"), 0.0, False, VE),
    ("hole", "hole_radius", field(HoleFixture, "hole_radius"), 0.0, False, VE),
    ("hole", "wall_stiffness", field(HoleFixture, "wall_stiffness"), 0.0, False, VE),
    ("hole", "k_e", field(HoleFixture, "k_e"), 0.0, False, VE),
    ("hole", "clearance", field(HoleFixture, "clearance"), 0.0, True, VE),
    ("hole", "chamfer", field(HoleFixture, "chamfer"), 0.0, True, VE),
    ("door", "handle_lever", door("handle_lever"), 0.0, False, VE),
    ("door", "grasp_tol", door("grasp_tol"), 0.0, False, VE),
    ("door", "k_e", door("k_e"), 0.0, False, VE),
    ("door", "latch_force", door("latch_force"), 0.0, True, VE),
    ("door", "handle_spring", door("handle_spring"), 0.0, True, VE),
    ("door", "latch_threshold", door("latch_threshold"), 0.0, True, VE),
    ("door", "release_angle", door("release_angle"), 0.0, True, VE),
]


@pytest.mark.parametrize("owner,name,build,low,closed,error", BOUNDS,
                         ids=[f"{row[0]}-{row[1]}" for row in BOUNDS])
def test_range_bound(owner, name, build, low, closed, error):
    relation = ">=" if closed else ">"
    message = f"{name} must be finite and {relation} {low:g}, got "
    past = math.nextafter(low, -math.inf)
    for value in (math.nan, math.inf, -math.inf, past) + (() if closed else (low,)):
        with pytest.raises(error) as exc:
            build(value)
        assert type(exc.value) is error, value
        assert str(exc.value) == message + str(value), value
    build(math.nextafter(low, math.inf))
    if closed:
        build(low)


# (name, constructor of one value, low)
COUNTS = [
    ("seed", lambda v: ScenarioConfig("WW", seed=v), 0),
    ("wipe_passes", lambda v: ScenarioConfig("WW", wipe_passes=v), 1),
    ("seed", lambda v: NoiseSpec(seed=v), 0),
]


@pytest.mark.parametrize("name,build,low", COUNTS, ids=["scenario-seed", "wipe_passes",
                                                        "noise-seed"])
def test_count_bound(name, build, low):
    with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {low - 1}$"):
        build(low - 1)
    # A float, even an integral one, fails here and not inside run_episode.
    for value in (low + 0.5, float(low), math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            build(value)
    build(low)
    build(np.int64(low + 1))
