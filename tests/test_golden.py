"""Golden digests: pinned SHA-256 hashes of simulated outputs.

The tolerance-based tests accept any refactor that keeps the physics within
their bounds; these digests catch one that shifts a single bit. Each scenario
is short but exercises one feature: contact, tangent stiffening, the raise,
lower, shift, tilt, sinusoid and force-pulse disturbances, a safety stop, and
the PH, MO and DO environments. A `run` trace file, a 5-episode `gen-demos`
dataset and the verification CSV on a one-point grid are pinned as bytes.

The digests depend on the host: 3-vector dot products go through BLAS, whose
fused multiply-add rounding varies with the CPU kernel. After a change that is
meant to alter the numbers, or on another host, print the current digests with

    PYTHONPATH=src python tests/test_golden.py

and paste them over GOLDEN below, saying in CHANGES.md why they moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np
import pytest

from admitsim.cli import main as cli_main
from admitsim.datasets import write_trace
from admitsim.environments import DisturbanceEvent
from admitsim.harness import ScenarioConfig, default_disturbance, run_episode
from admitsim.policy import NoiseSpec

NOISE = NoiseSpec(pos_std=0.002, rot_std=0.01, normal_cone_std=0.05,
                  contact_flip_prob=0.01, seed=11)

# Board tilt about x, a lowering of the board and a rest-point oscillation,
# all inside the first 6 s of a WW episode (contact starts near 2.1 s).
WW_MIXED = (
    DisturbanceEvent("tilt", start=2.5, duration=3.0, magnitude=0.05,
                     direction=np.array([1.0, 0.0, 0.0]), ramp=0.5),
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

SERIES = ("t", "x_r", "v_r", "f_ext", "f_cmd", "k_eigs", "phase", "contact", "disturbed")

VERIFY_GRID = "[verify]\nm = 1.0\nk_e = 1000\nf_h = 4\n"

GOLDEN = {
    "ww_force_aware_clean": "19ea51591221fca0b5f45a1cf6a03c56bb82252a6698cf6050bee51a5501f2a3",
    "ww_force_aware_raise": "0333843d7e4332ddcd57f99c1836ff3f30246abb4111b3c376022af07901bc77",
    "ww_force_aware_mixed": "1e10f06e3b34c2636599bcf1f17ace3847d9130750d34b047fffa96dd848f59a",
    "ww_baseline_high_raise_stop": "511fccbc393395040020cbb13f21c4a80da396cede6112ac463e524ba9ca181c",
    "ph_force_aware_shift": "2d830badabeca8be1248c1edd9491666a3545c6fd0c49bbb3937c9bb7de84996",
    "ph_baseline_mid_clean": "85979a0521abce8b04ebacfc4b12f6298ef680be14414f8a201e4ffd318769c2",
    "mo_force_aware_pulse": "fed144778ba58638c50b74e451b3e38698f036c28e68b1047e4b537d5baea981",
    "do_force_aware_clean": "9ee19bddde676be92532c7878378569478337e2b86f4bf0d806f3fc7071c4e0b",
    "do_baseline_mid_pulse": "8f44a27f5578cc0bf3f76493a0cded80ed57dd3aeac6b32f8911482939192ac1",
    "trace_csv": "6873fbc63df1866f2b2862dd65badbdf307a131a1b9cae8c7bf098d32be89416",
    "gen_demos": "1d19f75cb54dd56ade1bcc4b8ced5b4b263e8c60a884f9f32539c3390dd8dfb1",
    "verification_csv": "550c0373391ac8390508e5b94b79f87f4eb5c6909a01368f36a0f285a3c701e9",
}


def scenario_config(name: str) -> ScenarioConfig:
    task, mode, duration, seed, events = SCENARIOS[name]
    return ScenarioConfig(task, mode, duration, seed, noise=NOISE, disturbances=events)


def log_digest(log) -> str:
    """SHA-256 over every per-tick series (dtype, shape, bytes) and the metrics."""
    h = hashlib.sha256()
    for name in SERIES:
        arr = np.ascontiguousarray(getattr(log, name))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}\n".encode())
        h.update(arr.tobytes())
    h.update(repr(sorted(log.metrics.items())).encode())
    h.update(f"success={log.success} stopped={log.safety_stopped}".encode())
    return h.hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def file_digests(workdir: str, log) -> dict:
    """Digests of a trace file, a demo dataset and a verification CSV."""
    trace = os.path.join(workdir, "trace.csv")
    write_trace(trace, log)
    demos = os.path.join(workdir, "ww.demos")
    grid = os.path.join(workdir, "grid.ini")
    with open(grid, "w") as fh:
        fh.write(VERIFY_GRID)
    report = os.path.join(workdir, "verification.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        rc_demos = cli_main(["gen-demos", "--task", "WW", "--count", "5", "--seed", "3",
                             "--out", demos])
        rc_verify = cli_main(["verify", "--config", grid, "--out", report,
                              "--prop3-duration", "5.0"])
    if (rc_demos, rc_verify) != (0, 0):
        raise RuntimeError(f"gen-demos exit {rc_demos}, verify exit {rc_verify}")
    return {"trace_csv": _file_sha(trace), "gen_demos": _file_sha(demos),
            "verification_csv": _file_sha(report)}


@pytest.fixture(scope="module")
def logs():
    return {name: run_episode(scenario_config(name)) for name in SCENARIOS}


def test_scenarios_cover_their_features(logs):
    """Each scenario still reaches the behaviour it is in the set for."""
    def tangent_ticks(log):
        return int((log.k_eigs[:, 2] != log.k_eigs[:, 0]).sum())

    for name in ("ww_force_aware_clean", "mo_force_aware_pulse", "do_force_aware_clean"):
        assert logs[name].contact.any(), name
        assert tangent_ticks(logs[name]) > 0, name
    for name, (_, _, _, _, events) in SCENARIOS.items():
        assert bool(logs[name].disturbed.any()) == bool(events), name
    assert logs["ww_baseline_high_raise_stop"].safety_stopped
    assert sum(lg.safety_stopped for lg in logs.values()) == 1
    assert logs["ph_force_aware_shift"].metrics["insertion_depth_mm"] > 0.0


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_runlog_digest(logs, name):
    assert log_digest(logs[name]) == GOLDEN[name]


def test_file_digests(logs, tmp_path):
    got = file_digests(str(tmp_path), logs["ww_force_aware_clean"])
    assert got == {k: GOLDEN[k] for k in got}


def current_digests() -> dict:
    logs = {name: run_episode(scenario_config(name)) for name in SCENARIOS}
    out = {name: log_digest(log) for name, log in logs.items()}
    with tempfile.TemporaryDirectory() as workdir:
        out.update(file_digests(workdir, logs["ww_force_aware_clean"]))
    return out


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, digest in current_digests().items():
        print(f'    "{key}": "{digest}",')
    print("}")
    sys.exit(0)
