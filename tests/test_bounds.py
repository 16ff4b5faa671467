"""Every numeric bound of the constructors, in one table.

Each bound is checked by `errors.check_range` (finite and > low, or >= low
when closed) or, for counts and seeds, by `errors.check_count`. NaN, both
infinities and the value just past the bound raise the documented type; the
bound itself is accepted where the range is closed and rejected where it is
open, and the value just inside it is accepted.

The inputs that a task does not read (an environment override outside its
record's `env_keys`, a `wipe_passes` other than 1 outside WW), the admittance
overrides, the verifier's horizons and its other inputs (start offset and
velocity, rest-point amplitude and frequency), a value that is not a number and
a `ScenarioConfig` object field of the wrong type fail with a typed error too.
"""

import math
import sys

import numpy as np
import pytest

from scenarios import lever_door, microwave

from admitsim.admittance import AdmittanceConfig, ControllerCommand, compute_damping
from admitsim.environments import DisturbanceEvent, HoleFixture, PlaneBoard
from admitsim.config import parse_scenario
from admitsim.errors import ConfigParse, NonPositiveParameter
from admitsim.harness import CONTROL_HZ, ScenarioConfig, run_episode
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
     lambda v: ScenarioConfig("DO", env_overrides={"latch_force": v}), 0.0, True, VE),
    ("scenario", "safety limit", lambda v: ScenarioConfig("WW", safety_limit=v), 0.0, False, VE),
    ("scenario", "safety debounce",
     lambda v: ScenarioConfig("WW", safety_debounce=v), 0.0, True, VE),
    ("equivalence", "k_e", lambda v: equivalence_check(AdmittanceConfig(), v, T=1e-3),
     0.0, False, VE),
    ("board", "k_e", field(PlaneBoard, "k_e"), 0.0, False, VE),
    ("hole", "k_e", field(HoleFixture, "k_e"), 0.0, False, VE),
    ("door", "k_e", field(lever_door, "k_e"), 0.0, False, VE),
    ("door", "latch_force", field(lever_door, "latch_force"), 0.0, True, VE),
    ("microwave", "k_e", field(microwave, "k_e"), 0.0, False, VE),
    ("microwave", "latch_force", field(microwave, "latch_force"), 0.0, True, VE),
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


def test_a_debounce_too_long_to_count_in_ticks_is_refused():
    """The run counts the debounce in ticks: a finite debounce whose tick
    count overflows the float range fails at construction, not mid-run."""
    longest = sys.float_info.max / CONTROL_HZ  # its tick count is the largest float
    past = math.nextafter(longest, math.inf)
    with pytest.raises(ValueError) as exc:
        ScenarioConfig("PH", safety_debounce=past)
    assert str(exc.value) == (f"safety debounce must be a finite number of ticks "
                              f"({CONTROL_HZ} per s), got {past}")
    log = run_episode(ScenarioConfig("PH", duration=0.2, safety_debounce=longest))
    assert log.n_ticks == 200 and not log.safety_stopped


# (name, upper bound, its unit in the message): wider noise draws overflow
# mid-run, a command position or a normal cone angle of inf.
NOISE_UPPER = [("pos_std", 1.0, "1 (m)"), ("normal_cone_std", math.pi, "pi (rad)")]


@pytest.mark.parametrize("name,high,unit", NOISE_UPPER, ids=[row[0] for row in NOISE_UPPER])
def test_noise_wider_than_its_bound_is_refused(name, high, unit):
    for value in (math.nextafter(high, math.inf), 1e308):
        with pytest.raises(ValueError) as exc:
            NoiseSpec(**{name: value})
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{name} must be <= {unit}, got {value}"
    noise = NoiseSpec(**{name: high}, contact_flip_prob=0.5, seed=2)
    log = run_episode(ScenarioConfig("WW", duration=0.5, noise=noise))
    assert log.n_ticks > 0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_an_omega_whose_phase_overflows_is_refused(sign):
    """A sinusoid's phase omega * (t - start) reaches omega * duration: one
    that overflows fails at construction, not as a math domain error mid-run."""
    longest = sign * sys.float_info.max / 2.0
    past = math.nextafter(longest, sign * math.inf)
    with pytest.raises(ValueError) as exc:
        DisturbanceEvent("sinusoid", start=0.0, duration=2.0, magnitude=0.01, omega=past)
    assert str(exc.value) == f"omega * duration must be finite, got {past} * 2.0"
    event = DisturbanceEvent("sinusoid", start=0.0, duration=2.0, magnitude=0.01,
                             omega=longest)
    assert all(math.isfinite(event.amplitude(t, 1.0)) for t in (0.5, 1.999, 2.0))


def test_a_damping_whose_square_overflows_is_refused():
    """The verifier's time constant squares d: a d whose square overflows fails
    at construction, not as an OverflowError mid-verification."""
    largest = math.sqrt(sys.float_info.max)  # the largest float whose square is finite
    past = math.nextafter(largest, math.inf)
    for value in (past, 1e300):
        with pytest.raises(ValueError) as exc:
            dynamics(d=value)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"d ** 2 must be finite, got d = {value}"
    assert dynamics(d=largest, k_e=1e200).time_constant() == math.inf


def test_a_tangent_stiffness_that_overflows_names_tangent_scale():
    with pytest.raises(ValueError) as exc:
        AdmittanceConfig(tangent_scale=1e308)
    assert str(exc.value) == "tangent_scale * stiffness must be finite, got 1e+308 * 50.0"
    AdmittanceConfig(tangent_scale=1e300)


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


# (name, constructor of one value, high): the largest count accepted. WW's
# wipe_passes is its time limit in policy steps, 120 s at 10 per s, as a
# pass takes two or more of them.
COUNT_CEILINGS = [
    ("wipe_passes", lambda v: ScenarioConfig("WW", wipe_passes=v), 1200),
]


@pytest.mark.parametrize("name,build,high", COUNT_CEILINGS, ids=["wipe_passes"])
def test_count_ceiling(name, build, high):
    with pytest.raises(ValueError, match=f"^{name} must be <= {high} .*, got {high + 1}$"):
        build(high + 1)
    build(high)  # it constructs; nothing runs


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
    with pytest.raises(ValueError,
                       match=f"^admittance {key} must be finite and > 0, got 0.0$") as exc:
        ScenarioConfig("WW", admittance_overrides={key: 0.0})
    assert type(exc.value) is NonPositiveParameter


def test_admittance_flag_overrides_still_apply():
    flags = {"enable_tangent_stiffening": False, "enable_normal_regulation": False}
    adm = ScenarioConfig("WW", admittance_overrides=flags).admittance
    assert not adm.enable_tangent_stiffening and not adm.enable_normal_regulation
    assert adm.target_force == 4.0  # the overrides apply on top of the mode's controller
    adm = ScenarioConfig("PH", "baseline_mid",
                         admittance_overrides={"mass": np.float64(2.0)}).admittance
    assert adm.mass == 2.0 and adm.stiffness == 200.0
    assert adm.damping == compute_damping(2.0, 200.0, 2.0)


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
    # The object fields, each checked at construction rather than mid-run.
    ("noise-none", lambda: ScenarioConfig("WW", duration=0.5, noise=None),
     ValueError, "noise must be a NoiseSpec, got None"),
    ("noise-dict", lambda: ScenarioConfig("WW", duration=0.5, noise={"seed": 1}),
     ValueError, "noise must be a NoiseSpec, got {'seed': 1}"),
    ("disturbances-int", lambda: ScenarioConfig("WW", disturbances=(1,)),
     ValueError, "disturbances must hold DisturbanceEvents, got (1,)"),
    ("disturbances-none", lambda: ScenarioConfig("WW", disturbances=None),
     ValueError, "disturbances must be a tuple, got None"),
    ("admittance_overrides-none", lambda: ScenarioConfig("WW", admittance_overrides=None),
     ValueError, "admittance_overrides must be a dict, got None"),
    ("env_overrides-none", lambda: ScenarioConfig("WW", env_overrides=None),
     ValueError, "env_overrides must be a dict, got None"),
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
    ("gripper", lambda: ControllerCommand((0.0, 0.0, 0.0), gripper="1"), VE),
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
