"""The scenarios, fixtures and RunLog digest that several test modules share.

Each is defined here once; the test modules import it as they import
`reference_laws`, and `test_unused_imports.py` fails when a test module binds
one of these names at its top level.

- `SUITE_NOISE` is the acceptance suite's policy noise, and `GOLDEN_NOISE` the
  same noise at seed 11, which the golden scenarios run under.
- `SCENARIOS` are the golden scenarios, `WW_MIXED` the events of the mixed WW
  one, and `scenario_config` builds one of them.
- `log_digest` hashes every `SERIES` of a RunLog, its metrics and its flags:
  `test_golden.py` pins it, and other tests compare two runs by it. `bits`
  gives the bytes of floats, so that a signed zero or a last bit apart shows.
- `flat_board` is a board through the origin, facing up; `microwave` and
  `lever_door` are a door of each kind, grasped closed at the origin, and
  `microwave_grasp` and `lever_grasp` their grasp points once moved.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import replace

import numpy as np

from admitsim.environments import HANDLE_LEVER, DisturbanceEvent, HingedDoor, PlaneBoard
from admitsim.harness import ScenarioConfig, default_disturbance
from admitsim.policy import NoiseSpec

SUITE_NOISE = NoiseSpec(pos_std=0.002, rot_std=0.01, normal_cone_std=0.05,
                        contact_flip_prob=0.01, seed=0)
GOLDEN_NOISE = replace(SUITE_NOISE, seed=11)

# Board tilt about x, a lowering of the board and a rest-point oscillation,
# all inside the first 6 s of a WW episode (contact starts near 2.1 s).
WW_MIXED = (
    DisturbanceEvent("tilt", start=2.5, duration=3.0, magnitude=0.05,
                     direction=(1.0, 0.0, 0.0), ramp=0.5),
    DisturbanceEvent("lower", start=3.0, duration=2.0, magnitude=0.004, ramp=0.3),
    DisturbanceEvent("sinusoid", start=4.0, duration=1.5, magnitude=0.002, ramp=0.2,
                     omega=9.0),
)

# name -> (task, mode, duration s, scenario seed, disturbances)
SCENARIOS = {
    "ww_force_aware_clean": ("WW", "force_aware", 4.0, 1, ()),
    "ww_force_aware_raise": ("WW", "force_aware", 6.0, 1, default_disturbance("WW")),
    "ww_force_aware_mixed": ("WW", "force_aware", 6.0, 2, WW_MIXED),
    "ww_baseline_high_raise_stop": ("WW", "baseline_high", 6.0, 1, default_disturbance("WW")),
    "ph_force_aware_shift": ("PH", "force_aware", 4.0, 1, default_disturbance("PH")),
    "ph_baseline_mid_clean": ("PH", "baseline_mid", 3.0, 2, ()),
    "mo_force_aware_pulse": ("MO", "force_aware", 7.0, 1, default_disturbance("MO")),
    "do_force_aware_clean": ("DO", "force_aware", 4.0, 1, ()),
    "do_baseline_mid_pulse": ("DO", "baseline_mid", 7.0, 1, default_disturbance("DO")),
}


def scenario_config(name: str, **fields) -> ScenarioConfig:
    """The golden scenario `name` under GOLDEN_NOISE, with the ScenarioConfig
    fields given replaced."""
    task, mode, duration, seed, events = SCENARIOS[name]
    return replace(ScenarioConfig(task, mode, duration, seed, noise=GOLDEN_NOISE,
                                  disturbances=events), **fields)


SERIES = ("t", "x_r", "v_r", "f_ext", "f_cmd", "k_eigs", "phase", "contact", "disturbed")


def log_digest(log) -> str:
    """SHA-256 over every per-tick series (dtype, shape, bytes), the metrics
    and the success and safety-stop flags."""
    h = hashlib.sha256()
    for name in SERIES:
        arr = np.ascontiguousarray(getattr(log, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}\n".encode())
        h.update(arr.tobytes())
    h.update(repr(sorted(log.metrics.items())).encode())
    h.update(f"success={log.success} stopped={log.safety_stopped}".encode())
    return h.hexdigest()


def bits(value):
    """The bytes of a float, or of each float of nested tuples."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return struct.pack("<d", value)


def flat_board(**kw):
    """A board through the origin with the identity rotation, its normal +z;
    kw sets the other fields."""
    return PlaneBoard(center=(0.0, 0.0, 0.0), rotation=(1.0, 0.0, 0.0, 0.0), **kw)


def microwave(**kw):
    """A microwave grasped at the origin and hinged 0.25 m along y; kw sets
    the other fields."""
    return HingedDoor(hinge_pivot=(0.0, 0.25, 0.0), grasp0=(0.0, 0.0, 0.0), **kw)


def lever_door(**kw):
    """A door with its handle axis along x through the origin, grasped
    HANDLE_LEVER off it along -y and hinged 0.42 m along y; kw sets any field,
    the geometry's too."""
    return HingedDoor(**{"hinge_pivot": (0.0, 0.42, 0.0), "grasp0": (0.0, -HANDLE_LEVER, 0.0),
                         "handle_pivot": (0.0, 0.0, 0.0), "handle_axis": (1.0, 0.0, 0.0), **kw})


def microwave_grasp(angle):
    """Grasp point of microwave() opened by `angle` rad about its hinge."""
    return (-0.25 * math.sin(angle), 0.25 - 0.25 * math.cos(angle), 0.0)


def lever_grasp(handle_angle, door_shift=0.0):
    """Grasp point of lever_door() with the handle turned by `handle_angle`
    rad and the door pulled `door_shift` m open."""
    return (-door_shift, -HANDLE_LEVER * math.cos(handle_angle),
            -HANDLE_LEVER * math.sin(handle_angle))
