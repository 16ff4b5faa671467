"""Every input check, tested here once: each numeric bound in one table of
real ranges and one of counts.

Each bound is checked by `errors.check_range` (finite and > low, or >= low
when closed, and <= high) or, for counts and seeds, by `errors.check_count`
(>= low and <= high). NaN, both infinities and the value just past each end
raise the documented type in the one wording of that end; the bound itself
is accepted where the range is closed and rejected where it is open, and the
value just inside it is accepted. A high of inf is no upper bound. Each value
of each row is a case of its own.

Every input that must be one of a set of names (a task, a controller mode,
a disturbance kind, an override key, a suite's `disturbed`) is a row of one
more table, `CHOICES`: each listed name is accepted, and any other value is a
ValueError (from a file a ConfigParse naming the path) in the one wording of
`errors.check_choice`.

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

This module is the one home of these tests. Each row names the call site it
tests as module:function: the function that calls the check, or that holds
a check written out in place. For each shared check (`check_range`,
`check_count`, `check_finite`, `check_real`, `check_distinct`,
`check_choice` and `geometry.vec3`) the functions of the package that read
it are the sites its rows name, so a new call of a check cannot go untested.
"""

import ast
import math
import pathlib
import sys
from functools import partial

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
from admitsim.cli import main
from admitsim.environments import (
    DISTURBANCE_KINDS,
    DisturbanceEvent,
    HingedDoor,
    HoleFixture,
    PlaneBoard,
)
from admitsim.config import parse_scenario, parse_suite, parse_verify_params
from admitsim.datasets import MAX_EPISODES, MAX_HORIZON, Dataset, write_dataset
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
    run_default_verification,
    verify_prop1_grid,
    verify_prop2,
    verify_prop3_grid,
)


def field(cls, name):
    return lambda v: cls(**{name: v})


def dynamics(**kw):
    return NormalDynamicsParams(**{"m": 1.0, "d": 28.0, "k_e": 1000.0, "f_H": 4.0, **kw})


NPP, VE, INF = NonPositiveParameter, ValueError, math.inf
# The checks that rows name after their sites, and the sites that many rows share.
RANGE, COUNT, FINITE, REAL, DISTINCT, VEC3, CHOICE = (
    "check_range", "check_count", "check_finite", "check_real", "check_distinct", "vec3",
    "check_choice")
DAMPING, ADMITTANCE = "admittance:compute_damping", "admittance:AdmittanceConfig.__post_init__"
COMMAND = "admittance:ControllerCommand.__post_init__"
SCENARIO, NOISE = "harness:ScenarioConfig.__post_init__", "policy:NoiseSpec.__post_init__"
EVENT_SITE = "environments:DisturbanceEvent.__post_init__"
DOOR = "environments:HingedDoor.__post_init__"
DYNAMICS, GRID = "verify:NormalDynamicsParams.__post_init__", "verify:default_grid"
STEPS, SUITE = "verify:_steps", "config:parse_suite"
# (owner, call site of check_range, name in the message, constructor of one
# value, low, closed, high, error). compute_damping checks the gains of an
# AdmittanceConfig, a scenario's gain overrides among them.
BOUNDS = [
    ("compute_damping", DAMPING, "mass", lambda v: compute_damping(v, 50.0, 2.0), 0.0, False,
     INF, NPP),
    ("compute_damping", DAMPING, "stiffness", lambda v: compute_damping(1.0, v, 2.0), 0.0, False,
     INF, NPP),
    ("compute_damping", DAMPING, "damping_ratio", lambda v: compute_damping(1.0, 50.0, v), 0.0,
     False, INF, NPP),
    ("admittance", DAMPING, "mass", field(AdmittanceConfig, "mass"), 0.0, False, INF, NPP),
    ("admittance", DAMPING, "stiffness", field(AdmittanceConfig, "stiffness"), 0.0, False, INF,
     NPP),
    ("admittance", DAMPING, "damping_ratio", field(AdmittanceConfig, "damping_ratio"), 0.0, False,
     INF, NPP),
    *[("scenario", DAMPING, f"admittance {key}",
       lambda v, key=key: ScenarioConfig("WW", admittance_overrides={key: v}), 0.0, False, INF,
       NPP) for key in ("mass", "stiffness", "damping_ratio")],
    ("admittance", ADMITTANCE, "tangent_scale", field(AdmittanceConfig, "tangent_scale"), 1.0,
     True, INF, VE),
    ("admittance", ADMITTANCE, "target_force", field(AdmittanceConfig, "target_force"), 0.0, True,
     INF, VE),
    ("admittance", ADMITTANCE, "force_deadband", field(AdmittanceConfig, "force_deadband"), 0.0,
     True, INF, VE),
    ("dynamics", DYNAMICS, "m", lambda v: dynamics(m=v), 0.0, False, INF, VE),
    ("dynamics", DYNAMICS, "d", lambda v: dynamics(d=v), 0.0, False, INF, VE),
    ("dynamics", DYNAMICS, "k_e", lambda v: dynamics(k_e=v), 0.0, False, INF, VE),
    ("dynamics", DYNAMICS, "f_H", lambda v: dynamics(f_H=v), 0.0, True, INF, VE),
    # Wider noise draws overflow mid-run: a command position or a cone angle of inf.
    ("noise", NOISE, "pos_std", field(NoiseSpec, "pos_std"), 0.0, True, 1.0, VE),
    ("noise", NOISE, "rot_std", field(NoiseSpec, "rot_std"), 0.0, True, INF, VE),
    ("noise", NOISE, "normal_cone_std", field(NoiseSpec, "normal_cone_std"), 0.0, True, math.pi,
     VE),
    ("noise", NOISE, "contact_flip_prob", field(NoiseSpec, "contact_flip_prob"), 0.0, True, 1.0,
     VE),
    # Each task's duration up to its time limit.
    *[(task, SCENARIO, "duration", lambda v, task=task: ScenarioConfig(task, duration=v), 0.0,
       True, TASK_SPECS[task].time_limit, VE) for task in TASKS],
    # An environment override runs the check of the environment's constructor.
    ("scenario", SCENARIO, "environment k_e",
     lambda v: ScenarioConfig("DO", env_overrides={"k_e": v}), 0.0, False, INF, VE),
    ("scenario", SCENARIO, "environment latch_force",
     lambda v: ScenarioConfig("DO", env_overrides={"latch_force": v}), 0.0, True, INF, VE),
    ("scenario", SCENARIO, "safety limit", lambda v: ScenarioConfig("WW", safety_limit=v), 0.0,
     False, INF, VE),
    ("scenario", SCENARIO, "safety debounce",
     lambda v: ScenarioConfig("WW", safety_debounce=v), 0.0, True, INF, VE),
    ("equivalence", "verify:equivalence_check", "k_e",
     lambda v: equivalence_check(AdmittanceConfig(), v, T=1e-3), 0.0, False, INF, VE),
    ("disturbance", EVENT_SITE, "duration", lambda v: DisturbanceEvent("raise", 0.0, v, 0.01),
     0.0, False, INF, VE),
    ("disturbance", EVENT_SITE, "ramp",
     lambda v: DisturbanceEvent("raise", 0.0, 2.0, 0.01, ramp=v), 0.0, True, 2.0,
     VE),  # up to the event's duration
    # Each environment's k_e and latch_force, through environments' partials of check_range.
    ("board", "environments:PlaneBoard.__post_init__", "k_e", field(PlaneBoard, "k_e"), 0.0,
     False, INF, VE),
    ("hole", "environments:HoleFixture.__post_init__", "k_e", field(HoleFixture, "k_e"), 0.0,
     False, INF, VE),
    ("door", DOOR, "k_e", field(lever_door, "k_e"), 0.0, False, INF, VE),
    ("door", DOOR, "latch_force", field(lever_door, "latch_force"), 0.0, True, INF, VE),
    ("microwave", DOOR, "k_e", field(microwave, "k_e"), 0.0, False, INF, VE),
    ("microwave", DOOR, "latch_force", field(microwave, "latch_force"), 0.0, True, INF, VE),
]


def range_cases(owner, site, name, build, low, closed, high, error):
    """(value, message) of each value a BOUNDS row tries: the one wording of
    its refusal, or None where the row accepts it."""
    relation = ">=" if closed else ">"
    head = f"{name} must be finite and {relation} {low:g}, got "
    cases = [(value, head + str(value))
             for value in (math.nan, math.inf, -math.inf, math.nextafter(low, -math.inf))]
    cases += [(low, None if closed else head + str(low)), (math.nextafter(low, math.inf), None)]
    if high < INF:
        past = math.nextafter(high, math.inf)
        cases += [(past, f"{name} must be <= {high}, got {past}"), (high, None),
                  (math.nextafter(high, -math.inf), None)]
    return cases


# One case per value of each row, so a fault at one value cannot hide another.
RANGE_CASES = [(row, value, message) for row in BOUNDS for value, message in range_cases(*row)]


@pytest.mark.parametrize("row,value,message", RANGE_CASES,
                         ids=[f"{row[0]}-{row[2]}-{value!r}" for row, value, _ in RANGE_CASES])
def test_range_bound(row, value, message):
    build, error = row[3], row[7]
    if message is None:
        build(value)
        return
    with pytest.raises(error) as exc:
        build(value)
    assert type(exc.value) is error
    assert str(exc.value) == message


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


# (id, call site of check_count, name in the message, constructor of one
# value, low, high, error). WW's wipe_passes is at most its time limit in
# policy steps, 120 s at 10 per s, as a pass takes two or more of them; the
# dataset header holds the horizon as a u32.
COUNTS = [
    ("scenario-seed", SCENARIO, "seed", lambda v: ScenarioConfig("WW", seed=v), 0, INF, VE),
    ("wipe_passes", SCENARIO, "wipe_passes", lambda v: ScenarioConfig("WW", wipe_passes=v), 1,
     1200, VE),
    ("noise-seed", NOISE, "seed", lambda v: NoiseSpec(seed=v), 0, INF, VE),
    ("horizon", "datasets:write_dataset", "horizon",
     lambda v: write_dataset("demos.bin", Dataset("WW", v, ())), 0, MAX_HORIZON, VE),
    ("suite-seeds", SUITE, "suite.ini: [suite] seeds", suite_seeds, 1, INF, ConfigParse),
]


def count_cases(owner, site, name, build, low, high, error):
    """(value, message) of each value a COUNTS row tries, as range_cases. A
    float, even an integral one, fails here and not inside run_episode, in
    the same wording from an INI file."""
    cases = [(low - 1, f"{name} must be >= {low}, got {low - 1}")]
    if high < INF:
        cases.append((high + 1, f"{name} must be <= {high}, got {high + 1}"))
    cases += [(value, f"{name} must be an integer, got {value}")
              for value in (low + 0.5, float(low), math.nan, math.inf, -math.inf)]
    cases += [(low, None), (np.int64(low + 1), None)] + ([(high, None)] if high < INF else [])
    return cases


COUNT_CASES = [(row, value, message) for row in COUNTS for value, message in count_cases(*row)]


@pytest.mark.parametrize("row,value,message", COUNT_CASES,
                         ids=[f"{row[0]}-{type(value).__name__}-{value}"
                              for row, value, _ in COUNT_CASES])
def test_count_bound(row, value, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the rows that write a file write it
    build, error = row[3], row[6]
    if message is None:
        build(value)
        return
    with pytest.raises(error) as exc:
        build(value)
    assert type(exc.value) is error
    assert str(exc.value) == message


# (flag, call site of check_count, value, message): gen-demos' counts, through
# the command line, where argparse has made each an int. Each is an exit 2
# that prints the message after the command's name and writes no file.
# tests/test_cli.py stubs out the dataset to accept the largest count.
CLI_COUNTS = [
    ("--count", "cli:_cmd_gen_demos", 0, "--count must be >= 1, got 0"),
    ("--count", "cli:_cmd_gen_demos", MAX_EPISODES + 1,
     f"--count must be <= {MAX_EPISODES}, got {MAX_EPISODES + 1}"),
    ("--seed", "cli:_cmd_gen_demos", -1, "--seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("flag,site,value,message", CLI_COUNTS,
                         ids=[f"{row[0]}={row[2]}" for row in CLI_COUNTS])
def test_a_gen_demos_count_out_of_range_exits_2(flag, site, value, message, tmp_path, capsys):
    out = tmp_path / "x.bin"
    assert main(["gen-demos", "--task", "WW", flag, str(value), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"gen-demos: {message}\n"
    assert not out.exists()


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
    ("disturbance-kind", EVENT_SITE, "kind", DISTURBANCE_KINDS, STRANGERS + ("Raise",),
     lambda v: DisturbanceEvent(v, 1.0, 1.0, 0.01),
     (parse_scenario, "[scenario]\ntask = WW\n" + EVENT_SECTION, "[disturbance.a] ")),
    ("mode", SCENARIO, "mode", MODES, STRANGERS + ("baseline",),
     lambda v: ScenarioConfig("WW", mode=v),
     (parse_scenario, "[scenario]\ntask = WW\nmode = {v}\n", "")),
    ("suite-modes", SCENARIO, "mode", MODES, ("bogus",), None,
     (parse_suite, "[suite]\ntask = PH\nseeds = 1\nmodes = {v}\n", "")),
    *[(f"{task}-disturbance-kind", SCENARIO, f"{task} disturbance kind", DISTURBANCES[task],
       tuple(k for k in DISTURBANCE_KINDS if k not in DISTURBANCES[task]),
       lambda v, task=task: ScenarioConfig(task, disturbances=(DisturbanceEvent(v, 1, 1, 0.01),)),
       (parse_scenario, f"[scenario]\ntask = {task}\n" + EVENT_SECTION, ""))
      for task in TASKS if DISTURBANCES[task] != DISTURBANCE_KINDS],
    *[(f"{task}-environment-override", SCENARIO, f"{task} environment override", OVERRIDES[task],
       tuple(k for k in ("k_e", "latch_force", "bogus") if k not in OVERRIDES[task]),
       lambda v, task=task: ScenarioConfig(task, env_overrides={v: 1.0}),
       (parse_scenario, f"[scenario]\ntask = {task}\n[environment]\n{{v}} = 1.0\n", ""))
      for task in TASKS],
    ("admittance-override", SCENARIO, "admittance override",
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
    ("suite-disturbed", SUITE, "disturbed", ("none", "only", "both"), ("bogus", "None", ""), None,
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


def test_admittance_flag_overrides_still_apply():
    flags = {"enable_tangent_stiffening": False, "enable_normal_regulation": False}
    adm = ScenarioConfig("WW", admittance_overrides=flags).admittance
    assert not adm.enable_tangent_stiffening and not adm.enable_normal_regulation
    assert adm.target_force == 4.0  # the overrides apply on top of the mode's controller
    adm = ScenarioConfig("PH", "baseline_mid",
                         admittance_overrides={"mass": np.float64(2.0)}).admittance
    assert adm.mass == 2.0 and adm.stiffness == 200.0
    assert adm.damping == compute_damping(2.0, 200.0, 2.0)


# The verifiers on a grid of one point, and a disturbance, each called with keywords.
PROP1, PROP2, PROP3 = (partial(verify_prop1_grid, [dynamics()]),
                       partial(verify_prop2, [dynamics()], v0=0.05),
                       partial(verify_prop3_grid, [dynamics()]))
SHIFT = partial(DisturbanceEvent, "shift", start=1.0, duration=2.0, magnitude=0.01, ramp=0.5)
# Each verifier's horizon: (id, call, name of T in the message). `_steps`
# counts its steps and checks T and dt.
HORIZONS = (("prop1", PROP1, "proposition 1 horizon T"),
            ("prop2", PROP2, "proposition 2 horizon T"),
            ("prop3", PROP3, "proposition 3 duration T"),
            ("equivalence", partial(equivalence_check, AdmittanceConfig(), 1000.0),
             "equivalence horizon T"))
PROP3_SHORT = "proposition 3 duration T must be finite, > 0 and span at least 4 steps of 0.001 s"
# (case, call site, the check it calls or None where the check is written out
# in place, call, error, message prefix): the inputs that no range table covers.
TYPED = [
    ("admittance-str", SCENARIO, REAL,
     lambda: ScenarioConfig("WW", admittance_overrides={"mass": "2"}),
     ValueError, "admittance mass must be a real number, got '2'"),
    ("admittance-none", SCENARIO, REAL,
     lambda: ScenarioConfig("PH", admittance_overrides={"stiffness": None}),
     ValueError, "admittance stiffness must be a real number, got None"),
    # The object fields, each checked at construction rather than mid-run.
    ("noise-none", SCENARIO, None, lambda: ScenarioConfig("WW", duration=0.5, noise=None),
     ValueError, "noise must be a NoiseSpec, got None"),
    ("noise-dict", SCENARIO, None, lambda: ScenarioConfig("WW", duration=0.5, noise={"seed": 1}),
     ValueError, "noise must be a NoiseSpec, got {'seed': 1}"),
    ("disturbances-int", SCENARIO, None, lambda: ScenarioConfig("WW", disturbances=(1,)),
     ValueError, "disturbances must hold DisturbanceEvents, got (1,)"),
    ("disturbances-none", SCENARIO, None, lambda: ScenarioConfig("WW", disturbances=None),
     ValueError, "disturbances must be a tuple, got None"),
    ("admittance_overrides-none", SCENARIO, None,
     lambda: ScenarioConfig("WW", admittance_overrides=None),
     ValueError, "admittance_overrides must be a dict, got None"),
    ("env_overrides-none", SCENARIO, None, lambda: ScenarioConfig("WW", env_overrides=None),
     ValueError, "env_overrides must be a dict, got None"),
] + [
    (f"{name}-T={T}-dt={dt}", STEPS, check, partial(call, T=T, dt=dt), ValueError, message)
    for name, call, what in HORIZONS
    for T, dt, check, message in
    # T = 5e-324 over dt = 10: the step count underflows to 0.
    [(T, dt, None, f"{what} must be finite, > 0 and span at least ")
     for T, dt in ((math.inf, 1e-3), (math.nan, 1e-3), (0.0, 1e-3), (-1.0, 1e-3), (5e-324, 10.0))]
    + [(1.0, dt, RANGE, "dt must be finite and > 0, got ")
       for dt in (0.0, -1e-3, math.nan, math.inf)]
    + [(1.0, 5e-324, None, f"{what} needs inf steps of 5e-324 s")]
] + [
    # Proposition 3's judge needs 4 steps, also of the duration a batch gives it.
    (f"prop3-T={T}", STEPS, None, partial(PROP3, T=T), ValueError, f"{PROP3_SHORT}, got {T}")
    for T in (0.002, 0.003)
] + [
    (f"run_default_verification-T={T}", STEPS, None,
     partial(run_default_verification, prop3_T=T, grid=[dynamics()]), ValueError,
     f"{PROP3_SHORT}, got {T}") for T in (math.nan, math.inf, 0.0, -1.0, 0.002, 0.003)
] + [
    (f"{name}-{arg}={value}", site, FINITE, partial(call, **{arg: value}), ValueError,
     f"{arg} must be finite, got {value}")
    for name, site, call, arg in (("prop1", "verify:_Prop1.__init__", PROP1, "x0_offset"),
                                  ("prop1", "verify:_Prop1.__init__", PROP1, "v0"),
                                  ("prop2", "verify:_Prop2.__init__", PROP2, "v0"),
                                  ("prop3", "verify:_Prop3.__init__", PROP3, "amplitude"),
                                  ("prop3", "verify:_Prop3.__init__", PROP3, "omega"),
                                  ("disturbance", EVENT_SITE, SHIFT, "start"),
                                  ("disturbance", EVENT_SITE, SHIFT, "magnitude"),
                                  ("disturbance", EVENT_SITE, SHIFT, "omega"))
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("case,site,check,call,error,message", TYPED,
                         ids=[row[0] for row in TYPED])
def test_typed_error(case, site, check, call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value).startswith(message), str(exc.value)


# (name in the message, call site, the check it calls, constructor given a str
# where a number belongs, error)
NON_NUMBERS = [
    ("environment k_e", SCENARIO, RANGE, lambda: ScenarioConfig("WW", env_overrides={"k_e": "2"}),
     VE),
    ("safety limit", SCENARIO, RANGE, lambda: ScenarioConfig("WW", safety_limit="1"), VE),
    ("safety debounce", SCENARIO, RANGE, lambda: ScenarioConfig("WW", safety_debounce="0"), VE),
    ("duration", SCENARIO, RANGE, lambda: ScenarioConfig("WW", duration="5"), VE),
    ("pos_std", NOISE, RANGE, lambda: NoiseSpec(pos_std="1"), VE),
    ("contact_flip_prob", NOISE, RANGE, lambda: NoiseSpec(contact_flip_prob="0.1"), VE),
    ("mass", DAMPING, RANGE, lambda: AdmittanceConfig(mass="1"), NPP),
    ("gripper", COMMAND, REAL, lambda: ControllerCommand((0.0, 0.0, 0.0), gripper="1"), VE),
    ("m", DYNAMICS, RANGE, lambda: NormalDynamicsParams("1", 1, 1, 1), VE),
    ("x0_offset", "verify:_Prop1.__init__", FINITE, partial(PROP1, x0_offset="0"), VE),
    ("v0", "verify:_Prop2.__init__", FINITE, partial(PROP2, v0="0.05"), VE),
    ("amplitude", "verify:_Prop3.__init__", FINITE, partial(PROP3, amplitude="x"), VE),
    ("omega", "verify:_Prop3.__init__", FINITE, partial(PROP3, omega="3"), VE),
    ("start", EVENT_SITE, FINITE, partial(SHIFT, start="1"), VE),
]


@pytest.mark.parametrize("name,site,check,call,error", NON_NUMBERS,
                         ids=[row[0] for row in NON_NUMBERS])
def test_a_value_that_is_not_a_number_is_a_typed_error(name, site, check, call, error):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value).startswith(f"{name} must be a real number, got '"), str(exc.value)


EVENT = ("[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\nduration = 1\n"
         "magnitude = 0.01\n")


def event(direction):
    return lambda: DisturbanceEvent("raise", 1.0, 1.0, 0.01, direction=direction)


# (id, call site, the check it calls, parser, INI text, the call its value
# reaches): the value-kind faults of a file. A [suite]'s own keys reach no
# constructor but the checks parse_suite runs on them.
INI_FAULTS = [
    ("scenario-duration", SCENARIO, RANGE, parse_scenario,
     "[scenario]\ntask = WW\nduration = fast\n", lambda: ScenarioConfig("WW", duration="fast")),
    ("suite-seeds", SUITE, COUNT, parse_suite, "[suite]\ntask = WW\nseeds = 1.5\n",
     lambda: check_count("seeds", 1.5, 1)),
    ("scenario-seed", SCENARIO, COUNT, parse_scenario, "[scenario]\ntask = WW\nseed = 1.5\n",
     lambda: ScenarioConfig("WW", seed=1.5)),
    ("noise-seed", NOISE, COUNT, parse_scenario,
     "[scenario]\ntask = WW\n[noise]\nseed = 1.5\n", lambda: NoiseSpec(seed=1.5)),
    ("verify-m-word", GRID, RANGE, parse_verify_params, "[verify]\nm = 1.0 x\n",
     lambda: default_grid(m=(1.0, "x"))),
    ("verify-m-zero", GRID, RANGE, parse_verify_params, "[verify]\nm = 0\n",
     lambda: default_grid(m=(0.0,))),
    ("verify-k_e-empty", GRID, DISTINCT, parse_verify_params, "[verify]\nk_e =\n",
     lambda: default_grid(k_e=())),
    ("suite-modes-empty", SUITE, DISTINCT, parse_suite, "[suite]\ntask = WW\nmodes =\n",
     lambda: check_distinct("modes", [])),
    ("direction-two", EVENT_SITE, VEC3, parse_scenario, EVENT + "direction = 0 1\n",
     event((0.0, 1.0))),
    ("direction-word", EVENT_SITE, VEC3, parse_scenario, EVENT + "direction = 0 1 z\n",
     event((0.0, 1.0, "z"))),
]


@pytest.mark.parametrize("case,site,check,parse,text,call", INI_FAULTS,
                         ids=[row[0] for row in INI_FAULTS])
def test_an_ini_value_fault_is_worded_by_the_check_it_reaches(case, site, check, parse, text,
                                                               call, tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        call()
    with pytest.raises(ConfigParse) as parsed:
        parse(str(path))
    assert str(parsed.value).startswith(f"{path}: ")
    assert str(parsed.value).endswith(str(exc.value))


# (id, call site, the check it calls, call, message): the same faults at the
# API, which no INI reader screens, and a repeat on each axis of the grid.
API_FAULTS = [
    ("grid-k_e-empty", GRID, DISTINCT, lambda: default_grid(k_e=()), "k_e has no values"),
    ("grid-m-zero", GRID, RANGE, lambda: default_grid(m=(0.0,)),
     "m must be finite and > 0, got 0.0"),
    ("grid-m-word", GRID, RANGE, lambda: default_grid(m=("1",)),
     "m must be a real number, got '1'"),
    ("grid-m-repeat", GRID, DISTINCT, lambda: default_grid(m=(1.0, 1.0)), "m repeats 1.0"),
    ("grid-k_e-repeat", GRID, DISTINCT, lambda: default_grid(k_e=(100.0, 500.0, 100.0)),
     "k_e repeats 100.0"),
    ("grid-f_h-repeat", GRID, DISTINCT, lambda: default_grid(f_h=(4, 4.0)), "f_h repeats 4.0"),
]


@pytest.mark.parametrize("case,site,check,call,message", API_FAULTS,
                         ids=[row[0] for row in API_FAULTS])
def test_an_api_value_fault_is_a_value_error_naming_the_field(case, site, check, call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


ORIGIN = (0.0, 0.0, 0.0)
STATE = "admittance:ControllerState.__new__"
# Every point, direction and rotation input: (owner, call site of vec3, name
# in the message, constructor of one value, components, normalized).
# `geometry.vec3` checks each, and `_normalize` (`_unit_quat` for the
# rotation) the normalized ones. A command's position and normal are checked
# in and out of contact alike.
GEOMETRY = [
    ("state", STATE, "x_r", lambda v: ControllerState(v, ORIGIN), 3, False),
    ("state", STATE, "v_r", lambda v: ControllerState(ORIGIN, v), 3, False),
    ("command", COMMAND, "x_cmd", lambda v: ControllerCommand(v), 3, False),
    ("command", COMMAND, "n", lambda v: ControllerCommand(ORIGIN, 0.0, v, 0), 3, False),
    ("command-c1", COMMAND, "x_cmd", lambda v: ControllerCommand(v, 1.0, (0.0, 0.0, 1.0), 1), 3,
     False),
    ("command-c1", COMMAND, "n", lambda v: ControllerCommand(ORIGIN, 0.0, v, 1), 3, False),
    ("board", "environments:PlaneBoard.__post_init__", "center", field(PlaneBoard, "center"), 3,
     False),
    ("board", "environments:PlaneBoard.__post_init__", "rotation",
     field(PlaneBoard, "rotation"), 4, True),
    ("hole", "environments:HoleFixture.__post_init__", "rim_center",
     field(HoleFixture, "rim_center"), 3, False),
    ("door", DOOR, "hinge_pivot", field(HingedDoor, "hinge_pivot"), 3, False),
    ("door", DOOR, "grasp0", field(HingedDoor, "grasp0"), 3, False),
    ("door", DOOR, "handle_pivot", field(lever_door, "handle_pivot"), 3, False),
    ("door", DOOR, "handle_axis", field(lever_door, "handle_axis"), 3, True),
    ("disturbance", EVENT_SITE, "direction", lambda v: event(v)(), 3, True),
    ("equivalence", "verify:equivalence_check", "n",
     lambda v: equivalence_check(AdmittanceConfig(), 1000.0, n=v), 3, True),
]


def geometry_faults(owner, site, name, build, size, normalized):
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


def readers(tree: ast.AST, module: str, names: set, scope: str = "",
            in_function: bool = False) -> set:
    """module:function (Class.method for a method) of each function in tree
    that reads one of names, by a call or as an argument. A module or class
    body only binds a check to a name (a partial, an OVERRIDES table), so its
    reads are no call site."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= readers(node, module, names, scope + node.name + ".",
                             in_function or not isinstance(node, ast.ClassDef))
        else:
            if (in_function and isinstance(node, ast.Name) and node.id in names
                    and isinstance(node.ctx, ast.Load)):
                found.add(f"{module}:{scope[:-1]}")
            found |= readers(node, module, names, scope, in_function)
    return found


def check_names(tree: ast.Module, check: str) -> set:
    """check and each name that the module binds at its top level to a call
    taking it, such as environments' `_K_E = partial(check_range, "k_e")`: a
    function that reads the name calls the check."""
    return {check} | {target.id for node in tree.body if isinstance(node, ast.Assign)
                      and isinstance(node.value, ast.Call)
                      and any(isinstance(arg, ast.Name) and arg.id == check
                              for arg in node.value.args)
                      for target in node.targets if isinstance(target, ast.Name)}


def sites(check: str) -> set:
    """The call sites that the rows of check name: every row of the table
    that tests that check alone, and each row of the others that names it."""
    whole = {RANGE: BOUNDS, COUNT: COUNTS + CLI_COUNTS, VEC3: GEOMETRY, CHOICE: CHOICES}
    mixed = TYPED + NON_NUMBERS + INI_FAULTS + API_FAULTS
    return {row[1] for row in whole.get(check, ())} | {row[1] for row in mixed if row[2] == check}


@pytest.mark.parametrize("check", [RANGE, COUNT, FINITE, REAL, DISTINCT, VEC3, CHOICE])
def test_the_readers_of_a_check_are_the_sites_its_rows_name(check):
    """A new call of a check cannot skip its test: the functions of the
    package that read the check are the sites that its rows name. `errors`,
    whose checks call each other, is left out."""
    package = pathlib.Path(errors.__file__).parent
    found = set()
    for source in sorted(package.glob("*.py")):
        if source.stem != "errors":
            tree = ast.parse(source.read_text())
            found |= readers(tree, source.stem, check_names(tree, check))
    named = sites(check)
    assert found == named, (f"no row names {sorted(found - named)}; "
                            f"no function reads {check} at {sorted(named - found)}")
