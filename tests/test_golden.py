"""Golden digests: pinned SHA-256 hashes of simulated outputs.

The tolerance-based tests accept any refactor that keeps the physics within
their bounds; these digests catch one that shifts a single bit. Each scenario
is short but exercises one feature: contact, tangent stiffening, the raise,
lower, shift, tilt, sinusoid and force-pulse disturbances, a safety stop, and
the PH, MO and DO environments. Two `run` trace files (WW, and DO with the
door, the force pulse and several chunks of the trace writer), a 5-episode
`gen-demos` dataset per task, the verification CSV on a one-point grid and the
summary CSV of a small clean/raise WW suite are pinned as bytes.

The digests hold for one C math library (libm): every 3-vector dot product is
a left-to-right Python-float sum (admitsim.geometry.dot3) and no BLAS kernel
rounds an output, so only libm's sin, cos and atan2 (and, for the
verification CSV, numpy's array sin, cos and exp loops) tie them to a host.
After a change that is meant to alter the numbers, or on another libm, print
the current digests with

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
from admitsim.datasets import TRACE_CHUNK_ROWS, write_trace
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

# GOLDEN key -> task of a 5-episode `gen-demos` dataset (seed 3).
DEMO_DIGESTS = {"gen_demos": "WW", "gen_demos_ph": "PH", "gen_demos_mo": "MO",
                "gen_demos_do": "DO"}

VERIFY_GRID = "[verify]\nm = 1.0\nk_e = 1000\nf_h = 4\n"

# A clean/raise WW suite of two modes and two seeds: the seed-1 baseline_high
# episode with the raise stops on the force limit.
SUITE_INI = ("[suite]\ntask = WW\nmodes = force_aware baseline_high\nseeds = 2\n"
             "base_seed = 1\nduration = 8.0\ndisturbed = both\n"
             "[noise]\npos_std = 0.002\nrot_std = 0.01\nnormal_cone_std = 0.05\n"
             "contact_flip_prob = 0.01\nseed = 11\n")

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
    "gen_demos": "703e76c5036d5543ec33e8ace7f14d450c74524e872474b41d00b9d592cae955",
    "gen_demos_ph": "b0b2a9a023a9c0dc8df2de466372eae4edeec309ea272976a34e0a18059bfc55",
    "gen_demos_mo": "c9a77488e7815ff94765507a1f864e1f0a19b7bca9783f9c9c4557b09ba7f305",
    "gen_demos_do": "4958e64285bc5726e28657690c97be95b0e0e5453a8a80f33579bd685638d555",
    "verification_csv": "550c0373391ac8390508e5b94b79f87f4eb5c6909a01368f36a0f285a3c701e9",
    "suite_csv": "568ed16175a3862e32363fda68fad98487725dbf55fe9bd7ae41fc6d4d2ea016",
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


def file_digests(workdir: str, logs) -> dict:
    """Digests of two trace files, a demo dataset per task, a verification CSV and a
    suite CSV."""
    trace = os.path.join(workdir, "trace.csv")
    write_trace(trace, logs["ww_force_aware_clean"])
    trace_do = os.path.join(workdir, "trace_do.csv")
    write_trace(trace_do, logs["do_baseline_mid_pulse"])
    grid = os.path.join(workdir, "grid.ini")
    with open(grid, "w") as fh:
        fh.write(VERIFY_GRID)
    report = os.path.join(workdir, "verification.csv")
    out = {"trace_csv": _file_sha(trace), "trace_csv_do": _file_sha(trace_do)}
    for key, task in DEMO_DIGESTS.items():
        demos = os.path.join(workdir, f"{task}.demos")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["gen-demos", "--task", task, "--count", "5", "--seed", "3",
                           "--out", demos])
        if rc != 0:
            raise RuntimeError(f"gen-demos {task} exit {rc}")
        out[key] = _file_sha(demos)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["verify", "--config", grid, "--out", report,
                       "--prop3-duration", "5.0"])
    if rc != 0:
        raise RuntimeError(f"verify exit {rc}")
    out["verification_csv"] = _file_sha(report)
    suite = os.path.join(workdir, "suite.ini")
    with open(suite, "w") as fh:
        fh.write(SUITE_INI)
    summary = os.path.join(workdir, "suite.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["suite", "--config", suite, "--out", summary])
    if rc != 0:
        raise RuntimeError(f"suite exit {rc}")
    out["suite_csv"] = _file_sha(summary)
    return out


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
    assert logs["do_baseline_mid_pulse"].n_ticks > 3 * TRACE_CHUNK_ROWS


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_runlog_digest(logs, name):
    assert log_digest(logs[name]) == GOLDEN[name]


def test_file_digests(logs, tmp_path):
    got = file_digests(str(tmp_path), logs)
    assert got == {k: GOLDEN[k] for k in got}


def current_digests() -> dict:
    logs = {name: run_episode(scenario_config(name)) for name in SCENARIOS}
    out = {name: log_digest(log) for name, log in logs.items()}
    with tempfile.TemporaryDirectory() as workdir:
        out.update(file_digests(workdir, logs))
    return out


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, digest in current_digests().items():
        print(f'    "{key}": "{digest}",')
    print("}")
    sys.exit(0)
