"""Every numeric bound of the inputs, in one table of real ranges and one of counts.

Each bound is checked by `errors.check_range` (finite and > low, or >= low
when closed, and <= high) or, for counts and seeds, by `errors.check_count`
(>= low and <= high). NaN, both infinities and the value just past each end
raise the documented type in the one wording of that end; the bound itself
is accepted where the range is closed and rejected where it is open, and the
value just inside it is accepted. A high of inf is no upper bound.

Every input that must be one of a set of names (a task, a controller mode,
a disturbance kind, an override key, a suite's `disturbed`) is a row of one
more table, `CHOICES`: each listed name is accepted, and any other value is a
ValueError (from a file a ConfigParse naming the path) in the one wording of
`errors.check_choice`, and the package's readers of that check are the
table's call sites.

An input that a task does not read (a `wipe_passes` other than 1 outside
WW), the admittance override values, the verifier's horizons and its other
inputs (start offset and velocity, rest-point amplitude and frequency), a
value that is not a number and a `ScenarioConfig` object field of the wrong
type fail with a typed error too. The INI readers convert text and check
nothing, so a value of the wrong kind in a file is refused by the check of
the constructor it reaches, in that check's wording.

Every point, direction and rotation input has one more table, of its faults:
a component of the wrong kind or not finite is a ValueError naming the
input, and a normalized one whose norm is zero or overflows is
`DegenerateInput`, each in one wording whichever constructor it reaches.
"""

import ast
import math
import pathlib
import sys

import numpy as np
import pytest

from scenarios import lever_door, microwave

from admitsim import errors
from admitsim.admittance import (
    AdmittanceConfig,
    ControllerCommand,
    ControllerState,
    compute_damping,
)
from admitsim.environments import (
    DISTURBANCE_KINDS,
    DisturbanceEvent,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
)
from admitsim.config import parse_scenario, parse_suite, parse_verify_params
from admitsim.datasets import MAX_HORIZON, Dataset, write_dataset
from admitsim.errors import (
    ConfigParse,
    DegenerateInput,
    NonPositiveParameter,
    check_count,
    check_distinct,
)
from admitsim.geometry import _quat_matrix, vec3
from admitsim.harness import CONTROL_HZ, MODES, ScenarioConfig, run_episode
from admitsim.policy import NoiseSpec
from admitsim.tasks import TASK_SPECS, TASKS, build_environment
from admitsim.verify import (
    NormalDynamicsParams,
    default_grid,
    equivalence_check,
    verify_prop1_grid,
    verify_prop2,
    verify_prop3_grid,
)


def field(cls, name):
    return lambda v: cls(**{name: v})


def dynamics(**kw):
    return NormalDynamicsParams(**{"m": 1.0, "d": 28.0, "k_e": 1000.0, "f_H": 4.0, **kw})


NPP, VE, INF = NonPositiveParameter, ValueError, math.inf
# (owner, name in the message, constructor of one value, low, closed, high, error)
BOUNDS = [
    ("compute_damping", "mass", lambda v: compute_damping(v, 50.0, 2.0), 0.0, False, INF, NPP),
    ("compute_damping", "stiffness", lambda v: compute_damping(1.0, v, 2.0), 0.0, False, INF,
     NPP),
    ("compute_damping", "damping_ratio", lambda v: compute_damping(1.0, 50.0, v), 0.0, False,
     INF, NPP),
    ("admittance", "mass", field(AdmittanceConfig, "mass"), 0.0, False, INF, NPP),
    ("admittance", "stiffness", field(AdmittanceConfig, "stiffness"), 0.0, False, INF, NPP),
    ("admittance", "damping_ratio", field(AdmittanceConfig, "damping_ratio"), 0.0, False, INF,
     NPP),
    ("admittance", "tangent_scale", field(AdmittanceConfig, "tangent_scale"), 1.0, True, INF, VE),
    ("admittance", "target_force", field(AdmittanceConfig, "target_force"), 0.0, True, INF, VE),
    ("admittance", "force_deadband", field(AdmittanceConfig, "force_deadband"), 0.0, True, INF,
     VE),
    ("dynamics", "m", lambda v: dynamics(m=v), 0.0, False, INF, VE),
    ("dynamics", "d", lambda v: dynamics(d=v), 0.0, False, INF, VE),
    ("dynamics", "k_e", lambda v: dynamics(k_e=v), 0.0, False, INF, VE),
    ("dynamics", "f_H", lambda v: dynamics(f_H=v), 0.0, True, INF, VE),
    # Wider noise draws overflow mid-run: a command position or a cone angle of inf.
    ("noise", "pos_std", field(NoiseSpec, "pos_std"), 0.0, True, 1.0, VE),
    ("noise", "rot_std", field(NoiseSpec, "rot_std"), 0.0, True, INF, VE),
    ("noise", "normal_cone_std", field(NoiseSpec, "normal_cone_std"), 0.0, True, math.pi, VE),
    ("noise", "contact_flip_prob", field(NoiseSpec, "contact_flip_prob"), 0.0, True, 1.0, VE),
    # Each task's duration up to its time limit.
    *[(task, "duration", lambda v, task=task: ScenarioConfig(task, duration=v), 0.0, True,
       TASK_SPECS[task].time_limit, VE) for task in TASKS],
    ("scenario", "environment k_e",
     lambda v: ScenarioConfig("DO", env_overrides={"k_e": v}), 0.0, False, INF, VE),
    ("scenario", "environment latch_force",
     lambda v: ScenarioConfig("DO", env_overrides={"latch_force": v}), 0.0, True, INF, VE),
    ("scenario", "safety limit", lambda v: ScenarioConfig("WW", safety_limit=v), 0.0, False,
     INF, VE),
    ("scenario", "safety debounce",
     lambda v: ScenarioConfig("WW", safety_debounce=v), 0.0, True, INF, VE),
    ("equivalence", "k_e", lambda v: equivalence_check(AdmittanceConfig(), v, T=1e-3),
     0.0, False, INF, VE),
    ("disturbance", "duration", lambda v: DisturbanceEvent("raise", 0.0, v, 0.01), 0.0, False,
     INF, VE),
    ("disturbance", "ramp", lambda v: DisturbanceEvent("raise", 0.0, 2.0, 0.01, ramp=v), 0.0,
     True, 2.0, VE),  # up to the event's duration
    ("board", "k_e", field(PlaneBoard, "k_e"), 0.0, False, INF, VE),
    ("hole", "k_e", field(HoleFixture, "k_e"), 0.0, False, INF, VE),
    ("door", "k_e", field(lever_door, "k_e"), 0.0, False, INF, VE),
    ("door", "latch_force", field(lever_door, "latch_force"), 0.0, True, INF, VE),
    ("microwave", "k_e", field(microwave, "k_e"), 0.0, False, INF, VE),
    ("microwave", "latch_force", field(microwave, "latch_force"), 0.0, True, INF, VE),
]


@pytest.mark.parametrize("owner,name,build,low,closed,high,error", BOUNDS,
                         ids=[f"{row[0]}-{row[1]}" for row in BOUNDS])
def test_range_bound(owner, name, build, low, closed, high, error):
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
    if high < INF:
        past = math.nextafter(high, math.inf)
        with pytest.raises(error) as exc:
            build(past)
        assert type(exc.value) is error
        assert str(exc.value) == f"{name} must be <= {high}, got {past}"
        build(high)
        build(math.nextafter(high, -math.inf))


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


@pytest.mark.parametrize("name,high", [("pos_std", 1.0), ("normal_cone_std", math.pi)])
def test_noise_at_its_upper_bound_runs(name, high):
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


def suite_seeds(value):
    """parse_suite of a WW suite file of value seeds, written to the working
    directory: its errors are ConfigParses led by the file's name."""
    with open("suite.ini", "w") as fh:
        fh.write(f"[suite]\ntask = WW\nseeds = {value}\n")
    return parse_suite("suite.ini")


# (id, name in the message, constructor of one value, low, high, error). WW's
# wipe_passes is at most its time limit in policy steps, 120 s at 10 per s, as
# a pass takes two or more of them; the dataset header holds the horizon as a u32.
COUNTS = [
    ("scenario-seed", "seed", lambda v: ScenarioConfig("WW", seed=v), 0, INF, VE),
    ("wipe_passes", "wipe_passes", lambda v: ScenarioConfig("WW", wipe_passes=v), 1, 1200, VE),
    ("noise-seed", "seed", lambda v: NoiseSpec(seed=v), 0, INF, VE),
    ("horizon", "horizon", lambda v: write_dataset("demos.bin", Dataset("WW", v, ())), 0,
     MAX_HORIZON, VE),
    ("suite-seeds", "suite.ini: [suite] seeds", suite_seeds, 1, INF, ConfigParse),
]


@pytest.mark.parametrize("owner,name,build,low,high,error", COUNTS, ids=[row[0] for row in COUNTS])
def test_count_bound(owner, name, build, low, high, error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the rows that write a file write it
    ends = [(low - 1, ">=", low)] + ([(high + 1, "<=", high)] if high < INF else [])
    for value, relation, bound in ends:
        with pytest.raises(error) as exc:
            build(value)
        assert type(exc.value) is error
        assert str(exc.value) == f"{name} must be {relation} {bound}, got {value}"
    # A float, even an integral one, fails here and not inside run_episode, in
    # the same wording from an INI file.
    for value in (low + 0.5, float(low), math.nan, math.inf, -math.inf):
        with pytest.raises(error) as exc:
            build(value)
        assert type(exc.value) is error, value
        assert str(exc.value) == f"{name} must be an integer, got {value}"
    build(low)
    build(np.int64(low + 1))
    if high < INF:
        build(high)


# Each task's environment override keys, from its environment class: every
# one is read (and any other key is refused, see CHOICES).
OVERRIDES = {task: tuple(TASK_SPECS[task].environment.OVERRIDES) for task in TASKS}
ENV_READ = [(task, key) for task in TASKS for key in OVERRIDES[task]]


@pytest.mark.parametrize("task,key", ENV_READ, ids=[f"{t}-{k}" for t, k in ENV_READ])
def test_environment_override_changes_the_built_environment(task, key):
    default = getattr(build_environment(task, np.random.default_rng(3)), key)
    cfg = ScenarioConfig(task, env_overrides={key: 2.0 * default})
    env = build_environment(task, np.random.default_rng(3), cfg.env_overrides)
    assert getattr(env, key) == 2.0 * default


EVENT_SECTION = "[disturbance.a]\nkind = {v}\nstart = 1\nduration = 1\nmagnitude = 0.01\n"
# Names no input takes, and one that cannot be hashed: a ValueError, not a TypeError.
STRANGERS = ("bogus", "", [1], None)
DISTURBANCES = {task: TASK_SPECS[task].environment.DISTURBANCES for task in TASKS}
# Every input that must be one of a set of names, each checked by
# `errors.check_choice`: (id, call site as module:function, name in the
# message, the choices, values outside them, call of one value or None where
# only a file reaches the input, and (parser, INI text of one value, section
# named in the message) or None where no file does). A file's [admittance]
# lists its keys, so an unknown one there is a config error of the file's
# structure, not this check. WW's board takes every disturbance kind.
CHOICES = [
    ("disturbance-kind", "environments:DisturbanceEvent.__post_init__", "kind",
     DISTURBANCE_KINDS, STRANGERS + ("Raise",),
     lambda v: DisturbanceEvent(v, 1.0, 1.0, 0.01),
     (parse_scenario, "[scenario]\ntask = WW\n" + EVENT_SECTION, "[disturbance.a] ")),
    ("mode", "harness:ScenarioConfig.__post_init__", "mode", MODES,
     STRANGERS + ("baseline",), lambda v: ScenarioConfig("WW", mode=v),
     (parse_scenario, "[scenario]\ntask = WW\nmode = {v}\n", "")),
    ("suite-modes", "harness:ScenarioConfig.__post_init__", "mode", MODES, ("bogus",), None,
     (parse_suite, "[suite]\ntask = PH\nseeds = 1\nmodes = {v}\n", "")),
    *[(f"{task}-disturbance-kind", "harness:ScenarioConfig.__post_init__",
       f"{task} disturbance kind", DISTURBANCES[task],
       tuple(k for k in DISTURBANCE_KINDS if k not in DISTURBANCES[task]),
       lambda v, task=task: ScenarioConfig(task, disturbances=(DisturbanceEvent(v, 1, 1, 0.01),)),
       (parse_scenario, f"[scenario]\ntask = {task}\n" + EVENT_SECTION, ""))
      for task in TASKS if DISTURBANCES[task] != DISTURBANCE_KINDS],
    *[(f"{task}-environment-override", "harness:ScenarioConfig.__post_init__",
       f"{task} environment override", OVERRIDES[task],
       tuple(k for k in ("k_e", "latch_force", "bogus") if k not in OVERRIDES[task]),
       lambda v, task=task: ScenarioConfig(task, env_overrides={v: 1.0}),
       (parse_scenario, f"[scenario]\ntask = {task}\n[environment]\n{{v}} = 1.0\n", ""))
      for task in TASKS],
    ("admittance-override", "harness:ScenarioConfig.__post_init__", "admittance override",
     tuple(AdmittanceConfig.__dataclass_fields__), ("bogus", "damping", 1),
     lambda v: ScenarioConfig("WW", admittance_overrides={v: 1.0}), None),
    ("task", "tasks:task_spec", "task", TASKS, STRANGERS + ("ww", "WWW"), ScenarioConfig,
     (parse_scenario, "[scenario]\ntask = {v}\n", "")),
    ("suite-task", "tasks:task_spec", "task", TASKS, ("ZZ",), None,
     (parse_suite, "[suite]\ntask = {v}\nseeds = 1\n", "")),
    ("environment-task", "tasks:task_spec", "task", TASKS, STRANGERS,
     lambda v: build_environment(v, np.random.default_rng(0)), None),
    # The header's task code: refused before the file is opened.
    ("dataset-task", "tasks:task_spec", "task", TASKS, ("ZZ", "PHXYZ", "W\u00e9", [1]),
     lambda v: write_dataset("demos.bin", Dataset(v, 16, ())), None),
    ("suite-disturbed", "config:parse_suite", "disturbed", ("none", "only", "both"),
     ("bogus", "None", ""), None,
     (parse_suite, "[suite]\ntask = WW\nseeds = 1\ndisturbed = {v}\n", "[suite] ")),
]


@pytest.mark.parametrize("case,site,name,choices,outside,build,ini", CHOICES,
                         ids=[row[0] for row in CHOICES])
def test_a_choice_is_one_of_its_names(case, site, name, choices, outside, build, ini,
                                      tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the rows that write a file write it
    parse, text, where = ini or (None, None, None)
    for value in choices:
        if build:
            build(value)
        if parse:
            pathlib.Path("c.ini").write_text(text.format(v=value))
            parse("c.ini")
    assert outside
    for value in outside:
        message = f"{name} must be one of {' | '.join(choices)}, got {value!r}"
        if build:
            with pytest.raises(ValueError) as exc:
                build(value)
            assert type(exc.value) is ValueError and str(exc.value) == message
        if parse and isinstance(value, str):
            pathlib.Path("c.ini").write_text(text.format(v=value))
            with pytest.raises(ConfigParse) as exc:
                parse("c.ini")
            assert str(exc.value) == f"c.ini: {where}{message}"


def choice_readers(tree: ast.AST, module: str, scope: str = "") -> set:
    """module:function of each function in tree that reads the name
    check_choice, by a call or as an argument."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= choice_readers(node, module, scope + node.name + ".")
        else:
            if (isinstance(node, ast.Name) and node.id == "check_choice"
                    and isinstance(node.ctx, ast.Load)):
                found.add(f"{module}:{scope[:-1]}")
            found |= choice_readers(node, module, scope)
    return found


def test_every_reader_of_check_choice_is_a_row_of_the_table():
    """A new choice input cannot skip its test: the functions of the package
    that read check_choice are the sites that CHOICES tests."""
    package = pathlib.Path(errors.__file__).parent
    readers = set()
    for source in sorted(package.glob("*.py")):
        readers |= choice_readers(ast.parse(source.read_text()), source.stem)
    assert readers == {row[1] for row in CHOICES}


@pytest.mark.parametrize("task", [t for t in TASKS if not TASK_SPECS[t].multipass])
def test_wipe_passes_is_one_outside_a_multipass_task(task, tmp_path):
    assert ScenarioConfig(task, wipe_passes=1).wipe_passes == 1
    for passes in (2, 3, 1201):  # 1201: past every task's ceiling, checked after this
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


EVENT = ("[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\nduration = 1\n"
         "magnitude = 0.01\n")


def event(direction):
    return lambda: DisturbanceEvent("raise", 1.0, 1.0, 0.01, direction=direction)


# (id, parser, INI text, the call its value reaches): the value-kind faults of
# a file. A [suite]'s own keys reach no constructor but the checks parse_suite
# runs on them.
INI_FAULTS = [
    ("scenario-duration", parse_scenario, "[scenario]\ntask = WW\nduration = fast\n",
     lambda: ScenarioConfig("WW", duration="fast")),
    ("suite-seeds", parse_suite, "[suite]\ntask = WW\nseeds = 1.5\n",
     lambda: check_count("seeds", 1.5, 1)),
    ("scenario-seed", parse_scenario, "[scenario]\ntask = WW\nseed = 1.5\n",
     lambda: ScenarioConfig("WW", seed=1.5)),
    ("noise-seed", parse_scenario, "[scenario]\ntask = WW\n[noise]\nseed = 1.5\n",
     lambda: NoiseSpec(seed=1.5)),
    ("verify-m-word", parse_verify_params, "[verify]\nm = 1.0 x\n",
     lambda: default_grid(m=(1.0, "x"))),
    ("verify-m-zero", parse_verify_params, "[verify]\nm = 0\n", lambda: default_grid(m=(0.0,))),
    ("verify-k_e-empty", parse_verify_params, "[verify]\nk_e =\n", lambda: default_grid(k_e=())),
    ("suite-modes-empty", parse_suite, "[suite]\ntask = WW\nmodes =\n",
     lambda: check_distinct("modes", [])),
    ("direction-two", parse_scenario, EVENT + "direction = 0 1\n", event((0.0, 1.0))),
    ("direction-word", parse_scenario, EVENT + "direction = 0 1 z\n", event((0.0, 1.0, "z"))),
]


@pytest.mark.parametrize("case,parse,text,call", INI_FAULTS, ids=[row[0] for row in INI_FAULTS])
def test_an_ini_value_fault_is_worded_by_the_check_it_reaches(case, parse, text, call, tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        call()
    with pytest.raises(ConfigParse) as parsed:
        parse(str(path))
    assert str(parsed.value).startswith(f"{path}: ")
    assert str(parsed.value).endswith(str(exc.value))


# (id, call, message): the same faults at the API, which no INI reader screens.
API_FAULTS = [
    ("grid-k_e-empty", lambda: default_grid(k_e=()), "k_e has no values"),
    ("grid-m-zero", lambda: default_grid(m=(0.0,)), "m must be finite and > 0, got 0.0"),
    ("grid-m-word", lambda: default_grid(m=("1",)), "m must be a real number, got '1'"),
]


@pytest.mark.parametrize("case,call,message", API_FAULTS, ids=[row[0] for row in API_FAULTS])
def test_an_api_value_fault_is_a_value_error_naming_the_field(case, call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


ORIGIN = (0.0, 0.0, 0.0)
# Every point, direction and rotation input: (owner, name in the message,
# constructor of one value, components, normalized). `geometry.vec3` checks
# each, and `_normalize` (`_unit_quat` for the rotation) the normalized ones.
GEOMETRY = [
    ("state", "x_r", lambda v: ControllerState(v, ORIGIN), 3, False),
    ("state", "v_r", lambda v: ControllerState(ORIGIN, v), 3, False),
    ("command", "x_cmd", lambda v: ControllerCommand(v), 3, False),
    ("command", "n", lambda v: ControllerCommand(ORIGIN, 0.0, v, 0), 3, False),  # c = 0 too
    ("board", "center", field(PlaneBoard, "center"), 3, False),
    ("board", "rotation", field(PlaneBoard, "rotation"), 4, True),
    ("hole", "rim_center", field(HoleFixture, "rim_center"), 3, False),
    ("door", "hinge_pivot", field(HingedDoor, "hinge_pivot"), 3, False),
    ("door", "grasp0", field(HingedDoor, "grasp0"), 3, False),
    ("door", "handle_pivot", field(lever_door, "handle_pivot"), 3, False),
    ("door", "handle_axis", field(lever_door, "handle_axis"), 3, True),
    ("disturbance", "direction", lambda v: event(v)(), 3, True),
    ("equivalence", "n", lambda v: equivalence_check(AdmittanceConfig(), 1000.0, n=v), 3, True),
]


def geometry_faults(owner, name, build, size, normalized):
    """(id, call, error, message) of each fault of one input: a component
    that is not a real number, each non-finite value in each component and,
    where the input is normalized, a zero norm and one that overflows."""
    unit = (1.0,) + (0.0,) * (size - 1)
    word = ("1",) + unit[1:]
    rows = [(f"{owner}-{name}-word", lambda: build(word), VE,
             f"{name} must be {size} real numbers, got {word!r}")]
    for i in range(size):
        for value in (math.nan, math.inf, -math.inf):
            v = unit[:i] + (value,) + unit[i + 1:]
            rows.append((f"{owner}-{name}-{i}={value}", lambda v=v: build(v), VE,
                         f"{name} must be finite, got {v}"))
    if normalized:
        zero, huge = (0.0,) * size, (1e200, 1e200) + (0.0,) * (size - 2)
        rows += [(f"{owner}-{name}-zero", lambda: build(zero), DegenerateInput,
                  "cannot normalize a vector of norm 0"),
                 (f"{owner}-{name}-overflow", lambda: build(huge), DegenerateInput,
                  "cannot normalize a vector of norm inf")]
    return rows


# (id, call, error, message): one type and one wording per fault, whichever
# constructor the input reaches.
GEOMETRY_FAULTS = [row for entry in GEOMETRY for row in geometry_faults(*entry)] + [
    ("vector-str", lambda: PlaneBoard(center=("0.3", "0", "0.1")), VE,
     "center must be 3 real numbers, got ('0.3', '0', '0.1')"),
    ("vector-str-direction", event(("0", "0", "1")), VE,
     "direction must be 3 real numbers, got ('0', '0', '1')"),
    ("vector-two", lambda: ControllerState((0.0, 0.0), ORIGIN), VE,
     "x_r must be 3 real numbers, got (0.0, 0.0)"),
    ("vector-four", lambda: HoleFixture(rim_center=[0.0, 0.0, 0.1, 1.0]), VE,
     "rim_center must be 3 real numbers, got [0.0, 0.0, 0.1, 1.0]"),
    ("vector-scalar", lambda: ControllerCommand(1.0), VE, "x_cmd must be 3 real numbers, got 1.0"),
    ("vector-none", lambda: equivalence_check(AdmittanceConfig(), 1000.0, n=None), VE,
     "n must be 3 real numbers, got None"),
    ("vector-int-past-float", lambda: ControllerState((10 ** 400, 0, 0), ORIGIN), VE,
     f"x_r must be finite, got {(10 ** 400, 0, 0)}"),
    ("rotation-str", lambda: PlaneBoard(rotation=("1", "0", "0", "0")), VE,
     "rotation must be 4 real numbers, got ('1', '0', '0', '0')"),
    ("rotation-three", lambda: PlaneBoard(rotation=(1.0, 0.0, 0.0)), VE,
     "rotation must be 4 real numbers, got (1.0, 0.0, 0.0)"),
    ("direction-overflow-one", event((0.0, -1e155, 0.0)), DegenerateInput,
     "cannot normalize a vector of norm inf"),
    # The rotation's normalization itself, which a tilt reaches too.
    *[(f"quat_matrix-{q}", lambda q=q: _quat_matrix(q), DegenerateInput,
       f"cannot normalize a vector of norm {norm}")
      for q, norm in (((math.nan, 0.0, 0.0, 0.0), "nan"), ((1.0, 0.0, math.nan, 0.0), "nan"),
                      ((0.0, 0.0, 0.0, 0.0), "0"), ((1e-13, 0.0, 0.0, 0.0), "1e-13"))],
]


@pytest.mark.parametrize("case,call,error,message", GEOMETRY_FAULTS,
                         ids=[row[0] for row in GEOMETRY_FAULTS])
def test_a_geometric_fault_has_one_type_and_one_message(case, call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize("v", [(0.5, -1.0, 2.0), [1, 0, -3], (True, 0, 0.5),
                               np.array([0.5, -1.0, 2.0]), np.arange(3),
                               (np.float32(0.5), np.int64(-1), np.float64(2.0)),
                               (0.5, 0.5, -0.5, 0.5), np.arange(4)],
                         ids=["floats", "ints", "bool", "array", "int-array", "numpy-scalars",
                              "quaternion", "int-quaternion"])
def test_a_vector_of_real_numbers_is_a_float_tuple(v):
    got = vec3("v", v, len(v))
    assert got == tuple(float(c) for c in v)
    assert type(got) is tuple and all(type(c) is float for c in got)
