"""The scenarios, fixtures, RunLog digest and pinned digests that several
test modules share.

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
- `GOLDEN` is the one table of pinned SHA-256 digests, all 25 of them, which
  `python tests/test_golden.py` prints. `test_golden.py` checks 22 of them;
  `test_cli.py` checks the default-grid verification CSV that
  `verify_default_grid` writes, and `test_verify.py` the reports of
  `one_point_reports` and `non_default_reports` by `reports_digest`.
- `flat_board` is a board through the origin, facing up; `microwave` and
  `lever_door` are a door of each kind, grasped closed at the origin, and
  `microwave_grasp` and `lever_grasp` their grasp points once moved.
- `fail_writes` makes every file that `admitsim.datasets` opens raise an
  exception at its second write or at its close: a write that fails part way.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import replace

import numpy as np

from admitsim import datasets
from admitsim.admittance import compute_damping
from admitsim.cli import main as cli_main
from admitsim.environments import HANDLE_LEVER, DisturbanceEvent, HingedDoor, PlaneBoard
from admitsim.harness import ScenarioConfig, default_disturbance
from admitsim.policy import NoiseSpec
from admitsim.verify import NormalDynamicsParams, run_default_verification, verify_prop3_grid

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


GOLDEN = {
    "ww_force_aware_clean": "83643bb3af9b63a4bd814fe040b4c46cc3955a92470b183be4fe10980e011a3b",
    "ww_force_aware_raise": "dc6fdba16d06485277ae72d464704fe7ec2dd412d8325dd3578e42fafe570518",
    "ww_force_aware_mixed": "e234ca04435ae9460279e4be2eda90eb47e0d364d492d39eaed28a125fd0f26b",
    "ww_baseline_high_raise_stop": "4b1963d19a27ec5b2488d77b87c125c517a22da30f68aec84b851adae1d84e93",
    "ph_force_aware_shift": "2f1e8bd25e59d6844dd511477411993c05eb8b7cfe246c407e35b6ea585edd8c",
    "ph_baseline_mid_clean": "9b957fe5f353eac431cc35fdcbe4890b69ff619d23711938d4500713018bb6b8",
    "mo_force_aware_pulse": "4b46997a186c6f36b4c2341e06fe031a2526fe2fe5a1704ecc576206a73ff78c",
    "do_force_aware_clean": "82d4ce12fd1f94ac7d569005a8e906ffcd49ad2a5b4c2034fd68e31dde4f7b81",
    "do_baseline_mid_pulse": "61e70b7589580aaed048d69448cea5a0046edde89320add94af85d48e162d2aa",
    "trace_csv": "5343e7faf7009191d9a57e14dbb5865cb7cacdcc6f070633f030813b6db4cc66",
    "trace_csv_do": "735fef5a6b7a5c39e5e233d1c757cb3be7d3636e44bbc209a5e4623eed07da51",
    "gen_demos": "2eccda7a009acb56fcb84e3066d3e23d8076f1db35738d406967cff0630a695a",
    "gen_demos_ph": "b0b2a9a023a9c0dc8df2de466372eae4edeec309ea272976a34e0a18059bfc55",
    "gen_demos_mo": "b0ae67ceef87b592eaf1be08e8e6d3408331a8b14ed3f7242ca0a20ce0969f59",
    "gen_demos_do": "f34eca92617508d6b5668936bfb12c00846c696d5f08904d7e62a9778efefb7f",
    "gen_demos_200_ww": "4fb33ad3d05803306e32f943f1266b240912a9642529aafedd802ce32a40659f",
    "gen_demos_200_ph": "b5cc1c1690906b4c973996a04a7477c007b1445d959cb26fd86fe1770f795283",
    "gen_demos_200_mo": "fcf77ab85615b6408701741d6f32845308c1331ef31946028e88fc6594618b1c",
    "gen_demos_200_do": "7c28441d4cb1dc890c117141d05c66cd470cc0df2b48f5b9bb9cc73e71f08904",
    "verification_csv": "75cb80e62a000bd790b2018fb2cd20ac71ed629a2fb68ee98b2473f36d1ff091",
    "suite_csv": "568ed16175a3862e32363fda68fad98487725dbf55fe9bd7ae41fc6d4d2ea016",
    "default_grid_csv": "8c2202d820eb1a4493b3becd23b48baddc6ce305efe1f224c715dc7f95bced63",
    "one_point_reports": "47a6958fd6db0c2eb3a7b8abd3f2f7945b42efc46156d0430257a6378f9f6af0",
    "non_default_reports": "efb9c8cc69b14ef76f39070c607d2535bbaa079a58c7e51cdd70e1005c8be638",
    "predict_chunks": "55bbafc328a93d28a6d8e2f25b30ba4dd456d93cee5629fed652a08a1e51f4cc",
}


def reports_digest(reports) -> str:
    """SHA-256 over repr() of verification reports: every measured field, not
    only the CSV's columns."""
    return hashlib.sha256(repr(reports).encode()).hexdigest()


def verify_default_grid(out: str) -> int:
    """`admitsim verify --prop3-duration 5.0` on the default 27-point grid,
    its CSV written to out: the exit code."""
    return cli_main(["verify", "--out", out, "--prop3-duration", "5.0"])


def one_point_reports() -> list:
    """run_default_verification on the one point m = 1, k_e = 1000, f_H = 4 at
    the default damping, with a 5 s proposition 3: the four checks with their
    defaults."""
    point = NormalDynamicsParams(1.0, compute_damping(1.0, 50.0, 2.0), 1000.0, 4.0)
    return run_default_verification(prop3_T=5.0, grid=[point])


def non_default_reports() -> list:
    """Proposition 3 on the default grid with a negative amplitude and a
    non-default omega."""
    return verify_prop3_grid(T=7.0, amplitude=-0.003, omega=3.0)


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


class _FailingFile:
    """A file whose second write raises exc instead of writing, or with
    at_close, whose close raises exc once it has closed the file."""

    def __init__(self, fh, exc, at_close):
        self._fh, self._exc, self._at_close, self._writes = fh, exc, at_close, 0

    def write(self, data):
        self._writes += 1
        if self._writes == 2 and not self._at_close:
            raise self._exc
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()
        if self._at_close:
            raise self._exc


def fail_writes(monkeypatch, exc, at_close=False):
    """Every file that admitsim.datasets opens from now on raises exc at its
    second write, or with at_close at its close, as a full disk does when the
    close flushes the last writes; monkeypatch undoes it."""
    def opened(*args, **kw):
        return _FailingFile(open(*args, **kw), exc, at_close)

    monkeypatch.setattr(datasets, "open", opened, raising=False)
