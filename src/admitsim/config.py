"""Flat key-value scenario/suite configuration files (INI sections, SI units).

Scenario schema:

    [scenario]
    task = WW                ; MO | PH | WW | DO
    mode = force_aware       ; force_aware | baseline_low | baseline_mid | baseline_high
    duration = 20.0          ; seconds, within the task time limit
    seed = 0                 ; >= 0
    wipe_passes = 1          ; WW only: repetitions of the coverage path, >= 1 (1 elsewhere)

    [admittance]             ; optional gain overrides
    mass = 1.0
    stiffness = 50.0
    damping_ratio = 2.0
    tangent_scale = 4.0
    target_force = 4.0
    force_deadband = 2.0

    [noise]                  ; optional oracle-prediction noise
    pos_std = 0.002
    rot_std = 0.01
    normal_cone_std = 0.05
    contact_flip_prob = 0.01
    seed = 0                 ; >= 0

    [environment]            ; optional; a key the task does not read is an error
    k_e = 1000.0
    latch_force = 15.0       ; MO, DO only

    [safety]                 ; optional
    limit = 25.0
    debounce = 0.02

    [disturbance.<name>]     ; zero or more
    kind = lower             ; raise | lower | shift | tilt | force_pulse | sinusoid
                             ; (PH: no tilt; MO, DO: force_pulse only)
    start = 5.0
    duration = 10.0
    magnitude = 0.03
    direction = 0 0 1
    ramp = 0.5
    omega = 6.283185307179586

Suite schema:

    [suite]
    task = WW
    modes = force_aware baseline_low baseline_mid baseline_high
    seeds = 25               ; >= 1
    duration = 20.0
    disturbed = none         ; none | only | both
    base_seed = 0            ; >= 0
    wipe_passes = 1          ; >= 1, WW only
    plus optional [noise], [admittance], [environment], [safety],
    [disturbance.*] sections applied to every episode (disturbances only to
    disturbed runs).

A key that a section read by the parser does not list above is a ConfigParse,
and so is an input the task does not read (see `tasks.TaskSpec`).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import replace

from .environments import DisturbanceEvent
from .errors import ConfigParse, DegenerateInput
from .harness import ScenarioConfig, default_disturbance
from .policy import NoiseSpec

# The keys of each section; any other key is a config error.
_SCENARIO_KEYS = ("task", "mode", "duration", "seed", "wipe_passes")
_SUITE_KEYS = ("task", "modes", "seeds", "duration", "disturbed", "base_seed", "wipe_passes")
_VERIFY_KEYS = ("m", "k_e", "f_h", "d")
_ADMITTANCE_KEYS = (
    "mass", "stiffness", "damping_ratio", "tangent_scale", "target_force", "force_deadband",
)
_NOISE_KEYS = ("pos_std", "rot_std", "normal_cone_std", "contact_flip_prob", "seed")
_SAFETY_KEYS = ("limit", "debounce")
_DISTURBANCE_KEYS = ("kind", "start", "duration", "magnitude", "direction", "ramp", "omega")


def _read(path: str, section: str, keys) -> configparser.ConfigParser:
    """The parsed file, which must have section, with only keys in it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigParse(f"{path}: {exc}") from exc
    if not parser.has_section(section):
        raise ConfigParse(f"{path}: missing [{section}] section")
    _check_keys(parser, section, keys, path)
    return parser


def _check_keys(parser, section: str, keys, path: str):
    for key in parser.options(section):
        if key not in keys:
            raise ConfigParse(f"{path}: unknown key {key!r} in [{section}]")


def _get_float(parser, section: str, key: str, path: str, **fallback) -> float:
    try:
        return parser.getfloat(section, key, **fallback)
    except ValueError as exc:
        raise ConfigParse(f"{path}: [{section}] {key} is not a number") from exc


def _get_int(parser, section: str, key: str, path: str, **fallback) -> int:
    try:
        return parser.getint(section, key, **fallback)
    except ValueError as exc:
        raise ConfigParse(f"{path}: [{section}] {key} is not an integer") from exc


def _scenario(path: str, base: ScenarioConfig | None = None, **kwargs) -> ScenarioConfig:
    """ScenarioConfig(**kwargs), or base with kwargs replaced, its validation
    errors reported as ConfigParse."""
    try:
        return ScenarioConfig(**kwargs) if base is None else replace(base, **kwargs)
    except ValueError as exc:
        raise ConfigParse(f"{path}: {exc}") from exc


def _floats_from(parser, section: str, keys, path: str) -> dict:
    """The section's keys read as floats (none when it is absent)."""
    if not parser.has_section(section):
        return {}
    if keys is not None:  # None: ScenarioConfig checks them
        _check_keys(parser, section, keys, path)
    return {key: _get_float(parser, section, key, path) for key in parser.options(section)}


def _shared_sections(parser, path: str) -> dict:
    """The ScenarioConfig keyword arguments of the sections scenario and suite
    files share: [noise], [admittance], [environment], [safety] and
    [disturbance.*]."""
    noise = _floats_from(parser, "noise", _NOISE_KEYS, path)
    if "seed" in noise:
        noise["seed"] = _get_int(parser, "noise", "seed", path)
    try:
        noise = NoiseSpec(**noise)
    except ValueError as exc:
        raise ConfigParse(f"{path}: [noise] {exc}") from exc
    safety = _floats_from(parser, "safety", _SAFETY_KEYS, path)
    return dict(noise=noise, disturbances=_disturbances_from(parser, path),
                admittance_overrides=_floats_from(parser, "admittance", _ADMITTANCE_KEYS, path),
                env_overrides=_floats_from(parser, "environment", None, path),
                **{"safety_" + key: value for key, value in safety.items()})


def _disturbances_from(parser, path: str) -> tuple:
    events = []
    for section in parser.sections():
        if not section.startswith("disturbance"):
            continue
        _check_keys(parser, section, _DISTURBANCE_KEYS, path)
        kind = parser.get(section, "kind", fallback=None)
        if kind is None:
            raise ConfigParse(f"{path}: [{section}] missing 'kind'")
        direction = (0.0, 0.0, 1.0)
        if parser.has_option(section, "direction"):
            parts = parser.get(section, "direction").split()
            if len(parts) != 3:
                raise ConfigParse(f"{path}: [{section}] direction needs 3 components")
            try:
                direction = tuple(float(p) for p in parts)
            except ValueError as exc:
                raise ConfigParse(f"{path}: [{section}] direction is not numeric") from exc
        try:
            events.append(DisturbanceEvent(
                kind=kind,
                start=_get_float(parser, section, "start", path),
                duration=_get_float(parser, section, "duration", path),
                magnitude=_get_float(parser, section, "magnitude", path),
                direction=direction,
                ramp=_get_float(parser, section, "ramp", path, fallback=0.0),
                omega=_get_float(parser, section, "omega", path, fallback=2.0 * math.pi),
            ))
        except (ValueError, DegenerateInput, configparser.NoOptionError) as exc:
            raise ConfigParse(f"{path}: [{section}] {exc}") from exc
    return tuple(events)


def parse_scenario(path: str) -> ScenarioConfig:
    parser = _read(path, "scenario", _SCENARIO_KEYS)
    return _scenario(
        path,
        task=parser.get("scenario", "task", fallback=None),
        mode=parser.get("scenario", "mode", fallback="force_aware"),
        duration=_get_float(parser, "scenario", "duration", path, fallback=20.0),
        seed=_get_int(parser, "scenario", "seed", path, fallback=0),
        wipe_passes=_get_int(parser, "scenario", "wipe_passes", path, fallback=1),
        **_shared_sections(parser, path),
    )


def parse_verify_params(path: str):
    """Verification grid overrides: [verify] with space-separated value lists.

    Keys: m, k_e, f_H (grid axes, each defaulting to the default grid's) and
    optional d (explicit damping for every point instead of the over-damped
    rule at stiffness 50).
    """
    from .verify import GRID_FH, GRID_KE, GRID_M, default_grid

    parser = _read(path, "verify", _VERIFY_KEYS)

    def floats(key, default):
        if not parser.has_option("verify", key):
            return default
        try:
            values = [float(v) for v in parser.get("verify", key).split()]
        except ValueError as exc:
            raise ConfigParse(f"{path}: [verify] {key} must be numbers") from exc
        if not values:
            raise ConfigParse(f"{path}: [verify] {key} has no values")
        return values

    try:
        return default_grid(floats("m", GRID_M), floats("k_e", GRID_KE), floats("f_h", GRID_FH),
                            _get_float(parser, "verify", "d", path, fallback=None))
    except ValueError as exc:
        raise ConfigParse(f"{path}: [verify] {exc}") from exc


def parse_suite(path: str) -> list[ScenarioConfig]:
    """Expand a suite file into scenario configs (modes x conditions x seeds)."""
    parser = _read(path, "suite", _SUITE_KEYS)
    modes = parser.get("suite", "modes", fallback="force_aware").split()
    if not modes:
        raise ConfigParse(f"{path}: [suite] modes has no values")
    seeds = _get_int(parser, "suite", "seeds", path, fallback=5)
    if seeds < 1:
        raise ConfigParse(f"{path}: [suite] seeds must be >= 1, got {seeds}")
    base_seed = _get_int(parser, "suite", "base_seed", path, fallback=0)
    disturbed = parser.get("suite", "disturbed", fallback="none")
    conditions = {"none": (False,), "only": (True,), "both": (False, True)}.get(disturbed)
    if conditions is None:
        raise ConfigParse(f"{path}: [suite] disturbed must be none|only|both")
    task = parser.get("suite", "task", fallback=None)
    shared = _shared_sections(parser, path)
    # The base carries the file's events, so they must suit the task even
    # when no run of the suite takes them.
    events = shared.pop("disturbances")
    base = _scenario(
        path, task=task, mode=modes[0], seed=base_seed, disturbances=events,
        duration=_get_float(parser, "suite", "duration", path, fallback=20.0),
        wipe_passes=_get_int(parser, "suite", "wipe_passes", path, fallback=1), **shared,
    )
    events = events or default_disturbance(task)  # the task is known by now
    return [_scenario(path, base, mode=mode, seed=base_seed + s,
                      disturbances=events if with_dist else ())
            for mode in modes for with_dist in conditions for s in range(seeds)]
