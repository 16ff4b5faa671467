"""Golden digests: pinned SHA-256 hashes of simulated outputs.

The tolerance-based tests accept any refactor that keeps the physics within
their bounds; these digests catch one that shifts a single bit. Each scenario
is short but exercises one feature: contact, tangent stiffening, the raise,
lower, shift, tilt, sinusoid and force-pulse disturbances, a safety stop, and
the PH, MO and DO environments. The action chunks `predict` makes of one WW
demo under the scenarios' noise are pinned by what a command reads of them.
Two `run` trace files (WW, and DO with the
door, the force pulse and several chunks of the trace writer), a 5-episode
and a 200-episode `gen-demos` dataset per task, the verification CSV on a
one-point grid and the summary CSV of a small clean/raise WW suite are pinned
as bytes. The scenarios, their noise, `log_digest` and the table of pinned
digests, `GOLDEN`, are defined once, in `tests/scenarios.py`, as other test
modules run them too: `GOLDEN` also holds the default-grid verification CSV
that `test_cli.py` checks and the two verification runs whose reports
`test_verify.py` checks, 25 pins in all.

The digests hold for one C math library (libm): every 3-vector dot product is
a left-to-right Python-float sum (admitsim.geometry.dot3) and no BLAS kernel
rounds an output, so only libm's sin, cos and atan2 (and, for the
verification CSV, its exp too, which `verify._libm` calls value by value in
place of numpy's array loops) tie them to a host.
After a change that is meant to alter the numbers, or on another libm, print
all 25 current digests with

    PYTHONPATH=src python tests/test_golden.py

and paste them over GOLDEN in tests/scenarios.py, saying in CHANGES.md why
they moved.
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

from scenarios import (
    GOLDEN,
    GOLDEN_NOISE,
    SCENARIOS,
    log_digest,
    non_default_reports,
    one_point_reports,
    reports_digest,
    scenario_config,
    verify_default_grid,
)

from admitsim.cli import main as cli_main
from admitsim.datasets import TRACE_CHUNK_ROWS, write_trace
from admitsim.harness import run_episode
from admitsim.policy import DEFAULT_HORIZON, predict
from admitsim.tasks import build_environment, generate_demo

# GOLDEN key -> (task, episodes, seed) of a `gen-demos` dataset: 5 demos per
# task, and 200 per task over the spread of boards, holes and doors that
# the task builders draw.
DEMO_DIGESTS = {"gen_demos": ("WW", 5, 3), "gen_demos_ph": ("PH", 5, 3),
                "gen_demos_mo": ("MO", 5, 3), "gen_demos_do": ("DO", 5, 3),
                "gen_demos_200_ww": ("WW", 200, 17), "gen_demos_200_ph": ("PH", 200, 17),
                "gen_demos_200_mo": ("MO", 200, 17), "gen_demos_200_do": ("DO", 200, 17)}

VERIFY_GRID = "[verify]\nm = 1.0\nk_e = 1000\nf_h = 4\n"

# A clean/raise WW suite of two modes and two seeds: the seed-1 baseline_high
# episode with the raise stops on the force limit.
SUITE_INI = ("[suite]\ntask = WW\nmodes = force_aware baseline_high\nseeds = 2\n"
             "base_seed = 1\nduration = 8.0\ndisturbed = both\n"
             "[noise]\npos_std = 0.002\nrot_std = 0.01\nnormal_cone_std = 0.05\n"
             "contact_flip_prob = 0.01\nseed = 11\n")


def predict_digest() -> str:
    """SHA-256 over the position, gripper, normal and contact flag of every
    command of every chunk `predict` makes of a seed-3 WW demo under
    GOLDEN_NOISE (the chunks the harness takes, at every DEFAULT_HORIZON-th
    step). GOLDEN_NOISE has rot_std > 0, whose draws advance the generator."""
    demo = generate_demo("WW", build_environment("WW", np.random.default_rng(3))).tuples
    h = hashlib.sha256()
    for t0 in range(0, len(demo), DEFAULT_HORIZON):
        for cmd in predict(t0, demo, GOLDEN_NOISE):
            h.update(np.array(cmd.x_cmd).tobytes())
            h.update(np.float64(cmd.gripper).tobytes())
            h.update(np.array(cmd.n).tobytes())
            h.update(bytes([cmd.c]))
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
    for key, (task, count, seed) in DEMO_DIGESTS.items():
        demos = os.path.join(workdir, f"{key}.demos")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["gen-demos", "--task", task, "--count", str(count), "--seed",
                           str(seed), "--out", demos])
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


def test_predict_digest():
    assert predict_digest() == GOLDEN["predict_chunks"]


def current_digests() -> dict:
    """All 25 pins of GOLDEN, in its order."""
    logs = {name: run_episode(scenario_config(name)) for name in SCENARIOS}
    out = {name: log_digest(log) for name, log in logs.items()}
    with tempfile.TemporaryDirectory() as workdir:
        out.update(file_digests(workdir, logs))
        report = os.path.join(workdir, "default_grid.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = verify_default_grid(report)
        if rc != 0:
            raise RuntimeError(f"verify exit {rc}")
        out["default_grid_csv"] = _file_sha(report)
    out["one_point_reports"] = reports_digest(one_point_reports())
    out["non_default_reports"] = reports_digest(non_default_reports())
    out["predict_chunks"] = predict_digest()
    return out


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, digest in current_digests().items():
        print(f'    "{key}": "{digest}",')
    print("}")
    sys.exit(0)
