"""Every numeric bound of the constructors, in one table.

Each bound is checked by `errors.check_range` (finite and > low, or >= low
when closed) or, for counts and seeds, by `errors.check_count`. NaN, both
infinities and the value just past the bound raise the documented type; the
bound itself is accepted where the range is closed and rejected where it is
open, and the value just inside it is accepted.

The inputs that a task does not read (an environment override outside its
record's `env_keys`, a `wipe_passes` other than 1 outside WW), the admittance
overrides, the verifier's horizons and its other inputs (start offset and
velocity, rest-point amplitude and frequency) and a value that is not a number
fail with a typed error too.
"""

import math

import numpy as np
import pytest

from admitsim.admittance import AdmittanceConfig, compute_damping
from admitsim.environments import (
    DisturbanceEvent,
    FrictionModel,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
)
from admitsim.config import parse_scenario
from admitsim.errors import ConfigParse, NonPositiveParameter
from admitsim.harness import ScenarioConfig
from admitsim.policy import NoiseSpec
from admitsim.tasks import TASK_SPECS, TASKS, build_environment
from admitsim.verify import (
    NormalDynamicsParams,
    equivalence_check,
    verify_prop1_grid,
    verify_prop2,
    verify_prop3_grid,
)


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
    ("equivalence", "k_e", lambda v: equivalence_check(AdmittanceConfig(), v, T=1e-3),
     0.0, False, VE),
    ("friction", "coulomb_mu", field(FrictionModel, "coulomb_mu"), 0.0, True, VE),
    ("friction", "viscous_c", field(FrictionModel, "viscous_c"), 0.0, True, VE),
    ("board", "eraser_half_x", field(PlaneBoard, "eraser_half_x"), 0.0, False, VE),
    ("board", "eraser_half_y", field(PlaneBoard, "eraser_half_y"), 0.0, False, VE),
    ("board", "f_min_wipe", field(PlaneBoard, "f_min_wipe"), 0.0, True, VE),
    ("board", "k_e", field(PlaneBoard, "k_e"), 0.0, False, VE),
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


# Each task's environment override keys, from its record: every one is read,
# and every other key is rejected at construction, naming the task.
ENV_READ = [(task, key) for task in TASKS for key in TASK_SPECS[task].env_keys]
ANY_ENV_KEY = tuple(dict.fromkeys(k for spec in TASK_SPECS.values() for k in spec.env_keys))
ENV_UNREAD = [(task, key) for task in TASKS for key in ANY_ENV_KEY + ("bogus",)
              if key not in TASK_SPECS[task].env_keys]


@pytest.mark.parametrize("task,key", ENV_READ, ids=[f"{t}-{k}" for t, k in ENV_READ])
def test_environment_override_changes_the_built_environment(task, key):
    default = getattr(build_environment(task, np.random.default_rng(3)), key)
    cfg = ScenarioConfig(task, env_overrides={key: 2.0 * default})
    env = build_environment(task, np.random.default_rng(3), cfg.env_overrides)
    assert getattr(env, key) == 2.0 * default


@pytest.mark.parametrize("task,key", ENV_UNREAD, ids=[f"{t}-{k}" for t, k in ENV_UNREAD])
def test_environment_override_the_task_does_not_read(task, key, tmp_path):
    with pytest.raises(ValueError, match=f"^unknown environment override '{key}' for {task} "):
        ScenarioConfig(task, env_overrides={key: 1.0})
    path = tmp_path / "s.ini"  # through an INI file: a config error
    path.write_text(f"[scenario]\ntask = {task}\n[environment]\n{key} = 1.0\n")
    with pytest.raises(ConfigParse, match=f"override '{key}' for {task} "):
        parse_scenario(str(path))


@pytest.mark.parametrize("task", [t for t in TASKS if not TASK_SPECS[t].multipass])
def test_wipe_passes_is_one_outside_a_multipass_task(task, tmp_path):
    assert ScenarioConfig(task, wipe_passes=1).wipe_passes == 1
    for passes in (2, 3):
        with pytest.raises(ValueError, match=f"^wipe_passes must be 1 for {task}, "):
            ScenarioConfig(task, wipe_passes=passes)
    path = tmp_path / "s.ini"
    path.write_text(f"[scenario]\ntask = {task}\nwipe_passes = 3\n")
    with pytest.raises(ConfigParse, match=f"wipe_passes must be 1 for {task}"):
        parse_scenario(str(path))


@pytest.mark.parametrize("key", ["mass", "stiffness", "damping_ratio"])
def test_a_non_positive_gain_override_is_a_value_error(key):
    with pytest.raises(ValueError, match=f"^{key} must be finite and > 0, got 0.0$") as exc:
        ScenarioConfig("WW", admittance_overrides={key: 0.0})
    assert type(exc.value) is NonPositiveParameter


def test_admittance_flag_overrides_still_apply():
    flags = {"enable_tangent_stiffening": False, "enable_normal_regulation": False}
    adm = ScenarioConfig("WW", admittance_overrides=flags).build_admittance()
    assert not adm.enable_tangent_stiffening and not adm.enable_normal_regulation
    adm = ScenarioConfig("WW", admittance_overrides={"mass": np.float64(2.0)}).build_admittance()
    assert adm.mass == 2.0


PROPS = (("prop1", verify_prop1_grid, "proposition 1 horizon T", {}),
         ("prop2", verify_prop2, "proposition 2 horizon T", {"v0": 0.05}),
         ("prop3", verify_prop3_grid, "proposition 3 duration T", {}))


def horizon(call, **kw):
    return lambda: call([dynamics()], **kw)


# (case, call, error, message prefix): the inputs that no range table covers.
TYPED = [
    ("admittance-key", lambda: ScenarioConfig("WW", admittance_overrides={"bogus": 1.0}),
     ValueError, "unknown admittance override 'bogus'"),
    ("admittance-str", lambda: ScenarioConfig("WW", admittance_overrides={"mass": "2"}),
     ValueError, "admittance mass must be a real number, got '2'"),
    ("admittance-none", lambda: ScenarioConfig("PH", admittance_overrides={"stiffness": None}),
     ValueError, "admittance stiffness must be a real number, got None"),
] + [
    (f"{name}-T={T}-dt={dt}", horizon(call, T=T, dt=dt, **kw), ValueError, message)
    for name, call, what, kw in PROPS
    for T, dt, message in [(T, 1e-3, f"{what} must be finite, > 0 and span at least ")
                           for T in (math.inf, math.nan, 0.0, -1.0)]
    + [(1.0, dt, "dt must be finite and > 0, got ") for dt in (0.0, -1e-3, math.nan, math.inf)]
    + [(1.0, 5e-324, f"{what} needs inf steps of 5e-324 s")]
] + [
    (f"{name}-{arg}={value}", horizon(call, **{arg: value}), ValueError,
     f"{arg} must be finite, got {value}")
    for name, call, arg in (("prop1", verify_prop1_grid, "x0_offset"),
                            ("prop1", verify_prop1_grid, "v0"),
                            ("prop2", verify_prop2, "v0"),
                            ("prop3", verify_prop3_grid, "amplitude"),
                            ("prop3", verify_prop3_grid, "omega"))
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("case,call,error,message", TYPED, ids=[row[0] for row in TYPED])
def test_typed_error(case, call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value).startswith(message), str(exc.value)


# (name in the message, constructor given a str where a number belongs, error)
NON_NUMBERS = [
    ("environment k_e", lambda: ScenarioConfig("WW", env_overrides={"k_e": "2"}), VE),
    ("safety limit", lambda: ScenarioConfig("WW", safety_limit="1"), VE),
    ("safety debounce", lambda: ScenarioConfig("WW", safety_debounce="0"), VE),
    ("duration", lambda: ScenarioConfig("WW", duration="5"), VE),
    ("pos_std", lambda: NoiseSpec(pos_std="1"), VE),
    ("contact_flip_prob", lambda: NoiseSpec(contact_flip_prob="0.1"), VE),
    ("mass", lambda: AdmittanceConfig(mass="1"), NPP),
    ("m", lambda: NormalDynamicsParams("1", 1, 1, 1), VE),
    ("x0_offset", lambda: verify_prop1_grid([dynamics()], x0_offset="0"), VE),
    ("v0", lambda: verify_prop2([dynamics()], v0="0.05"), VE),
    ("amplitude", lambda: verify_prop3_grid([dynamics()], amplitude="x"), VE),
    ("omega", lambda: verify_prop3_grid([dynamics()], omega="3"), VE),
    ("start", lambda: DisturbanceEvent("raise", start="1", duration=1.0, magnitude=0.01,
                                       direction=(0.0, 0.0, 1.0)), VE),
]


@pytest.mark.parametrize("name,call,error", NON_NUMBERS, ids=[row[0] for row in NON_NUMBERS])
def test_a_value_that_is_not_a_number_is_a_typed_error(name, call, error):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value).startswith(f"{name} must be a real number, got '"), str(exc.value)
