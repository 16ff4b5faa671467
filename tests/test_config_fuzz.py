"""INI fuzzing: every generated file parses to a config or fails with ConfigParse.

The files mix schema keys with junk keys, and numbers with nan, inf, junk and
empty values, over the scenario, suite and verify sections plus [disturbance.*]
and junk sections. A key that is not in the schema of a section the parser
reads always fails, and so does a section the parser does not read. Only the
parsers run: no episode, no verification.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from admitsim.config import parse_scenario, parse_suite, parse_verify_params
from admitsim.environments import DISTURBANCE_KINDS
from admitsim.errors import ConfigParse
from admitsim.harness import MODES
from admitsim.tasks import TASK_SPECS, TASKS

SCHEMA = {
    "scenario": ("task", "mode", "duration", "seed", "wipe_passes"),
    "suite": ("task", "modes", "seeds", "duration", "disturbed", "base_seed", "wipe_passes"),
    "verify": ("m", "k_e", "f_h", "d"),
    "admittance": ("mass", "stiffness", "damping_ratio", "tangent_scale", "target_force",
                   "force_deadband"),
    "noise": ("pos_std", "rot_std", "normal_cone_std", "contact_flip_prob", "seed"),
    "environment": ("k_e", "latch_force"),
    "safety": ("limit", "debounce"),
    "disturbance.a": ("kind", "start", "duration", "magnitude", "direction", "ramp", "omega"),
}
SECTIONS = tuple(SCHEMA) + ("disturbance.b", "disturbance", "DEFAULT", "junk")
KEYS = tuple(dict.fromkeys(k for keys in SCHEMA.values() for k in keys))
JUNK_KEYS = ("junk", "rot_mass", "horizon", "x y")
# The sections each parser reads, so every key in them must be in the schema.
READS = {
    "scenario": ("scenario", "admittance", "noise", "environment", "safety", "disturbance.a"),
    "suite": ("suite", "admittance", "noise", "environment", "safety", "disturbance.a"),
    "verify": ("verify",),
}
# Sections each parser does not read, misspelt ones among them.
_TYPOS = ("admitance", "disturbancex", "disturbance.", "Scenario", "junk", "DEFAULT")
UNREAD = {
    "scenario": ("suite", "verify", "disturbance") + _TYPOS,
    "suite": ("scenario", "verify", "disturbance") + _TYPOS,
    "verify": ("scenario", "suite", "admittance", "noise", "environment", "safety",
               "disturbance.a", "disturbance.b", "disturbance") + _TYPOS,
}

_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "0", "1e-320", "0x10", "1_0"]),
)
_junk = st.one_of(
    st.just(""),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Nd", "No", "Nl")),
            max_size=8),
)
_word = st.sampled_from(TASKS + MODES + DISTURBANCE_KINDS + ("none", "only", "both"))
_value = st.one_of(
    _number,
    _junk,
    _word,
    st.lists(_word, min_size=1, max_size=4).map(" ".join),
    st.lists(_number, min_size=1, max_size=4).map(" ".join),
)


def _between(lo, hi):
    return st.floats(lo, hi).map(repr)


# Values the schema accepts (any other key: a number in [1, 10]). The suite's
# episode count is seeds x modes x conditions, so its seeds stay small, valid
# or not.
VALID = {
    "task": st.sampled_from(TASKS),
    "mode": st.sampled_from(MODES),
    "modes": st.lists(st.sampled_from(MODES), min_size=1, max_size=2, unique=True).map(" ".join),
    "seeds": st.integers(1, 3).map(str),
    "seed": st.integers(0, 100).map(str),
    "base_seed": st.integers(0, 100).map(str),
    "wipe_passes": st.integers(1, 3).map(str),
    "disturbed": st.sampled_from(["none", "only", "both"]),
    "m": st.lists(_between(0.1, 10.0), min_size=1, max_size=2).map(" ".join),
    "f_h": st.lists(_between(0.0, 10.0), min_size=1, max_size=2).map(" ".join),
    "contact_flip_prob": _between(0.0, 1.0),
    "kind": st.sampled_from(DISTURBANCE_KINDS),
    "direction": st.lists(_between(-1.0, 1.0), min_size=3, max_size=3).map(" ".join),
    "ramp": _between(0.0, 1.0),
}
_seeds = st.one_of(st.integers(-2, 3).map(str), _junk, st.sampled_from(["nan", "1.5", "1e2"]))
_directions = st.sampled_from(["0 0 0", "1e-200 0 0", "1 nan 0", "1 0", "0 0 inf"])


@st.composite
def ini_files(draw, first: str, unknown_key: bool = False,
              unknown_section: bool = False) -> str:
    """A valid file, or nearly: most of each drawn section's keys with values
    the schema accepts, then up to three keys set to junk (junk keys included).
    The section its parser requires comes first, or is missing. With
    unknown_key, that section is there and one section the parser reads holds
    a key outside its schema; with unknown_section, that section is there and
    so is one the parser does not read, with a schema key or none (a [DEFAULT]
    always has one)."""
    names = draw(st.lists(st.sampled_from(SECTIONS), max_size=4, unique=True))
    if first in names:
        names.remove(first)
    if unknown_key or unknown_section or draw(st.integers(0, 9)):
        names.insert(0, first)
    if not names:
        return ""
    ini = {name: {key: draw(VALID.get(key, _between(1.0, 10.0)))
                  for key in SCHEMA.get(name, ()) if draw(st.integers(0, 4))}
           for name in names}
    if unknown_key:
        section = draw(st.sampled_from(READS[first]))
        key = draw(st.sampled_from([k for k in KEYS + JUNK_KEYS if k not in SCHEMA[section]]))
        ini.setdefault(section, {})[key] = draw(VALID.get(key, _between(1.0, 10.0)))
    if unknown_section:
        section = draw(st.sampled_from(UNREAD[first]))
        entries = ini.setdefault(section, {})
        if section == "DEFAULT" or draw(st.booleans()):
            key = draw(st.sampled_from(KEYS))
            entries[key] = draw(VALID.get(key, _between(1.0, 10.0)))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(KEYS + JUNK_KEYS))
        if key == "seeds":
            value = draw(_seeds)
        elif key == "direction" and draw(st.booleans()):
            value = draw(_directions)
        else:
            value = draw(_value)
        ini[draw(st.sampled_from(names))][key] = value
    lines = []
    for name, entries in ini.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return "\n".join(lines) + "\n"


def _parse_or_config_error(parse, text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            return parse(path)
        except ConfigParse:
            return None


@given(ini_files("scenario"))
@settings(max_examples=200, deadline=None)
def test_parse_scenario_returns_or_raises_config_parse(text):
    _parse_or_config_error(parse_scenario, text)


@given(ini_files("suite"))
@settings(max_examples=200, deadline=None)
def test_parse_suite_returns_or_raises_config_parse(text):
    cfgs = _parse_or_config_error(parse_suite, text)
    assert cfgs is None or len(cfgs) >= 1


@given(ini_files("verify"))
@settings(max_examples=200, deadline=None)
def test_parse_verify_params_returns_or_raises_config_parse(text):
    grid = _parse_or_config_error(parse_verify_params, text)
    assert grid is None or len(grid) >= 1


PARSERS = {"scenario": parse_scenario, "suite": parse_suite, "verify": parse_verify_params}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_unknown_key_in_a_section_read_is_config_parse(data):
    first = data.draw(st.sampled_from(tuple(PARSERS)))
    text = data.draw(ini_files(first, unknown_key=True))
    assert _parse_or_config_error(PARSERS[first], text) is None


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_a_section_the_parser_does_not_read_is_config_parse(data):
    first = data.draw(st.sampled_from(tuple(PARSERS)))
    text = data.draw(ini_files(first, unknown_section=True))
    assert _parse_or_config_error(PARSERS[first], text) is None


def test_schema_names_the_sections_and_keys_of_the_parsers_table():
    """SCHEMA is this test's own copy of the INI schema: it names the sections
    and keys of the parsers' table, and [environment] the keys some task reads."""
    from admitsim import config

    env_keys = {key for spec in TASK_SPECS.values() for key in spec.environment.OVERRIDES}
    table = {name: env_keys if keys is None else set(keys)
             for name, keys in config._SCHEMA.items()}
    assert {name.partition(".")[0]: set(keys) for name, keys in SCHEMA.items()} == table
