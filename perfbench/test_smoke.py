"""Smoke test of the benchmark: every workload at minimum size, both modes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import layers  # noqa: E402
from hostclock import HostClock  # noqa: E402
from run import END_TO_END  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(*args):
    out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
                         capture_output=True, text=True, cwd=ROOT, timeout=180)
    return out.returncode, out.stdout, out.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimum_run_reports_every_metric(workload, trace):
    code, stdout, stderr = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                                  "--trace", str(trace))
    assert code == 0, stderr
    *report_lines, last = stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)

    report = json.loads("\n".join(report_lines))
    assert set(report["end_to_end"]) == set(END_TO_END)
    # Not measured here: set-up (no probes in a traced run) and a tail with
    # fewer than 11 samples, as a minimum-size batch has.
    skipped = {"setup_s"} if trace else set()
    if report["run_tail"] and report["run_tail"]["n"] <= 10:
        skipped.add("run_tail_s")
    for name, (unit, where) in END_TO_END.items():
        assert report["end_to_end"][name]["unit"] == unit
        measured = workload in where and name not in skipped
        assert (report["end_to_end"][name]["value"] is not None) == measured
    assert report["digest_mismatches"] == [] and report["failures"] == []
    if trace:
        assert report["per_layer"]["wrappers_restored"]
        assert report["per_layer"]["unmeasured"] == []


def _current(owner, attr):
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_restores_every_wrapped_name():
    originals = [(owner, attr, _current(owner, attr)) for _, owner, attr in layers.SPANS]
    with layers.Tracer(HostClock()):
        assert all(hasattr(_current(owner, attr), "__wrapped__")
                   for owner, attr, _ in originals)
    assert all(_current(owner, attr) is fn for owner, attr, fn in originals)


def test_tracer_reports_a_missing_name_as_unmeasured(monkeypatch):
    import admitsim.harness
    monkeypatch.delattr(admitsim.harness, "update_ink")
    with layers.Tracer(HostClock()) as tracer:
        pass
    assert tracer.unmeasured == ["environments.update_ink"]
    contract, report = tracer.metrics(1.0, 1.0)
    assert contract["environments.update_ink.share"]["value"] == 0.0
    assert report["environments.update_ink.us_per_call"]["value"] is None
    assert not hasattr(admitsim.harness, "update_ink")


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "hostclock.py"):
        (bench / name).write_text(open(os.path.join(BENCH_DIR, name)).read())
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "ww_suite",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
