"""Flat key-value scenario, suite and verify configuration files (INI
sections, SI units).

The README's "Scenario config" block shows every section and key of a
scenario file, with units and bounds, and the paragraphs after it those of
suite and verify files. `_SCHEMA` is the one list of them that the parsers
read: each key of each section with the reader of its text, which converts
it and checks nothing. A value is refused by the check of the constructor it
reaches, in that check's wording, and a key the file leaves out takes that
constructor's default (`ScenarioConfig`, `NoiseSpec`, `DisturbanceEvent`,
`verify.default_grid`). A section that the file's parser does not read is a
ConfigParse, and so is a key that a section it reads does not list, and an
input the task does not read (see `tasks.TaskSpec`).
"""

from __future__ import annotations

import configparser
import functools
import inspect

from .environments import DisturbanceEvent
from .errors import ConfigParse, DegenerateInput, check_choice, check_count, check_distinct
from .harness import ScenarioConfig, default_disturbance
from .policy import NoiseSpec
from .verify import default_grid


def _reader(*kinds):
    """A key's reader: its text as the first of kinds that converts it, else as is."""
    def read(text: str):
        for kind in kinds:
            try:
                return kind(text)
            except ValueError:
                pass
        return text
    return read


_FLOAT, _INT = _reader(float), _reader(int, float)


def _numbers(text: str) -> tuple:
    """The space-separated words of text, each read by `_FLOAT`."""
    return tuple(map(_FLOAT, text.split()))


# The reader of each key of each section; any other key is a config error.
# [environment] reads any key as a number (ScenarioConfig checks it against the
# task), and every [disturbance.<name>] reads the "disturbance" keys.
_SCHEMA = {
    "scenario": {"task": str, "mode": str, "duration": _FLOAT, "seed": _INT, "wipe_passes": _INT},
    "suite": {"task": str, "modes": str.split, "seeds": _INT, "duration": _FLOAT,
              "disturbed": str, "base_seed": _INT, "wipe_passes": _INT},
    "verify": {"m": _numbers, "k_e": _numbers, "f_h": _numbers, "d": _FLOAT},
    "admittance": dict.fromkeys(("mass", "stiffness", "damping_ratio", "tangent_scale",
                                 "target_force", "force_deadband"), _FLOAT),
    "noise": {"pos_std": _FLOAT, "rot_std": _FLOAT, "normal_cone_std": _FLOAT,
              "contact_flip_prob": _FLOAT, "seed": _INT},
    "environment": None,
    "safety": {"limit": _FLOAT, "debounce": _FLOAT},
    "disturbance": {"kind": str, "start": _FLOAT, "duration": _FLOAT, "magnitude": _FLOAT,
                    "direction": _numbers, "ramp": _FLOAT, "omega": _FLOAT},
}
# The optional sections of scenario and suite files, besides [disturbance.<name>].
_SHARED_SECTIONS = ("admittance", "noise", "environment", "safety")
_DISTURBANCE = "disturbance."


def _read(path: str, section: str, shared: bool = True) -> configparser.ConfigParser:
    """The parsed file, which must have section, and besides it only the
    shared sections (none unless shared)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is not text
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigParse(f"{path}: {exc}") from exc
    if not parser.has_section(section):
        raise ConfigParse(f"{path}: missing [{section}] section")
    # A [DEFAULT] section's keys go into every section, so it is one too.
    for name in parser.sections() + ["DEFAULT"] * bool(parser.defaults()):
        event = name.startswith(_DISTURBANCE) and name != _DISTURBANCE
        if name != section and not (shared and (name in _SHARED_SECTIONS or event)):
            raise ConfigParse(f"{path}: unknown section [{name}]")
    return parser


def _values(parser, section: str, path: str) -> dict:
    """The keys that the file's section sets (none when it is absent), each
    read by its `_SCHEMA` reader."""
    if not parser.has_section(section):
        return {}
    readers = _SCHEMA[section.partition(".")[0]]
    values = {}
    for key, text in parser.items(section):
        read = _FLOAT if readers is None else readers.get(key)
        if read is None:
            raise ConfigParse(f"{path}: unknown key {key!r} in [{section}]")
        values[key] = read(text)
    return values


@functools.cache
def _required(build) -> tuple:
    """The parameters of build that have no default."""
    return tuple(name for name, param in inspect.signature(build).parameters.items()
                 if param.default is param.empty)


def _build(build, path: str, section: str, **kwargs):
    """build(**kwargs) from the file's [section]. A parameter without a default
    that kwargs lacks, and a ValueError of build, are ConfigParses."""
    for name in _required(build):
        if name not in kwargs:
            raise ConfigParse(f"{path}: [{section}] missing {name!r}")
    try:
        return build(**kwargs)
    except (ValueError, DegenerateInput) as exc:
        # A ScenarioConfig error can be about any section, so it names none.
        where = "" if build is ScenarioConfig else f"[{section}] "
        raise ConfigParse(f"{path}: {where}{exc}") from exc


def _shared_sections(parser, path: str) -> dict:
    """The ScenarioConfig keyword arguments of the sections scenario and suite
    files share: [noise], [admittance], [environment], [safety] and
    [disturbance.*]."""
    noise = _build(NoiseSpec, path, "noise", **_values(parser, "noise", path))
    safety = _values(parser, "safety", path)
    events = (_build(DisturbanceEvent, path, name, **_values(parser, name, path))
              for name in parser.sections() if name.startswith(_DISTURBANCE))
    return dict(noise=noise, disturbances=tuple(events),
                admittance_overrides=_values(parser, "admittance", path),
                env_overrides=_values(parser, "environment", path),
                **{"safety_" + key: value for key, value in safety.items()})


def parse_scenario(path: str) -> ScenarioConfig:
    parser = _read(path, "scenario")
    return _build(ScenarioConfig, path, "scenario", **_values(parser, "scenario", path),
                  **_shared_sections(parser, path))


def parse_verify_params(path: str):
    """Verification grid overrides: [verify] with space-separated value lists.

    Keys: m, k_e, f_H (grid axes, each defaulting to the default grid's) and
    optional d (explicit damping for every point instead of the over-damped
    rule at stiffness 50).
    """
    parser = _read(path, "verify", shared=False)
    return _build(default_grid, path, "verify", **_values(parser, "verify", path))


def parse_suite(path: str) -> list[ScenarioConfig]:
    """Expand a suite file into scenario configs (modes x conditions x seeds).

    The suite's own keys default to modes = force_aware, seeds = 5,
    base_seed = 0 and disturbed = none.
    """
    parser = _read(path, "suite")
    common = _values(parser, "suite", path)
    modes = common.pop("modes", ("force_aware",))
    seeds = common.pop("seeds", 5)
    _build(check_distinct, path, "suite", name="modes", values=modes)  # a repeat runs twice
    _build(check_count, path, "suite", name="seeds", value=seeds, low=1)
    base_seed = common.pop("base_seed", 0)
    conditions = {"none": (False,), "only": (True,), "both": (False, True)}
    disturbed = common.pop("disturbed", "none")
    _build(check_choice, path, "suite", name="disturbed", value=disturbed, choices=conditions)
    common.update(_shared_sections(parser, path))
    # The file's events must suit the task even when no run of the suite
    # takes them.
    events = common.pop("disturbances")
    first = _build(ScenarioConfig, path, "suite", mode=modes[0], seed=base_seed,
                   disturbances=events, **common)
    events = events or default_disturbance(first.task)
    return [_build(ScenarioConfig, path, "suite", mode=mode, seed=base_seed + s,
                   disturbances=events if with_dist else (), **common)
            for mode in modes for with_dist in conditions[disturbed] for s in range(seeds)]
