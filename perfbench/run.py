"""admitsim benchmark entry point.

    python3 perfbench/run.py --workload ww_suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each workload runs in fresh single-threaded child processes,
one at a time: nine set-up probes (``--trace 0``), then the untraced batch, and
with ``--trace 1`` the same batch again under the per-layer tracer. The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are the full report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

from hostclock import HostClock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
DIGEST_CACHE = os.path.join(BENCH_DIR, ".state", "digests.json")

WORKLOADS = ("ww_suite", "task_runs", "offline")
SETUP_PROBES = 9
DEADLINE_S = 170.0   # the whole invocation, children included
SINGLE_THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# name -> (unit, workloads the issue defines it on); the first four are the
# contract's end-to-end metrics and are reported on every workload.
END_TO_END = {
    "setup_s": ("s", WORKLOADS),
    "episodes_per_s": ("1/s", WORKLOADS),
    "realtime_factor": ("s/s", WORKLOADS),
    "peak_rss_mb": ("MB", WORKLOADS),
    "run_p50_s": ("s", ("task_runs",)),
    "run_tail_s": ("s", ("task_runs",)),
    "verify_s": ("s", ("offline",)),
    "demos_per_s": ("1/s", ("offline",)),
    "success_rate": ("ratio", ("ww_suite", "task_runs")),
    "failure_ratio": ("ratio", WORKLOADS),
}
CONTRACT_END_TO_END = ("setup_s", "episodes_per_s", "realtime_factor", "peak_rss_mb")


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

def _child(role: str, workload: str, seed: int, seconds: int) -> int:
    sys.path.insert(0, SRC)
    import admitsim
    if os.path.dirname(os.path.dirname(os.path.abspath(admitsim.__file__))) != SRC:
        print(f"admitsim imported from {admitsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(WORK_DIR, f"{role}-{os.getpid()}")
    try:
        batch = workloads.prepare(workload, seed, seconds, workdir)
        print(f"READY {time.monotonic()!r}", flush=True)
        if role == "setup":
            return 0
        clock = HostClock()
        if role == "traced":
            import layers
            with layers.Tracer(clock) as tracer:
                res = batch.run(clock)
        else:
            res = batch.run(clock)
        import resource
        out = {
            "wall_s": res.wall_s, "scaled_s": res.scaled_s,
            "episodes": res.episodes, "successes": res.successes,
            "sim_s": res.sim_s, "counts": res.counts, "timings": res.timings,
            "ops": [op.__dict__ for op in res.ops], "digest": res.digest(),
            "inputs": batch.inputs, "why": workloads.WHY[workload],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if role == "traced":
            out["per_layer"], out["per_layer_report"] = tracer.metrics(res.wall_s, res.scaled_s)
            out["restored"] = _restored(layers)
        print("RESULT " + json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _restored(layers) -> bool:
    """True when every wrapped name is the program's own function again."""
    return not any(hasattr(owner.__dict__.get(attr) if isinstance(owner, type)
                           else getattr(owner, attr, None), "__wrapped__")
                   for _, owner, attr in layers.SPANS)


def _spawn(role: str, args, deadline: float) -> tuple[float, float, dict | None]:
    """Run one child to completion.

    Returns (spawn time, inputs-ready time, result or None); both times are
    ``time.monotonic``, which is system-wide on Linux.
    """
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} child exceeded the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or (role != "setup" and result is None):
        raise RuntimeError(f"{role} child printed no result")
    return t0, ready, result


# --------------------------------------------------------------------------
# Parent
# --------------------------------------------------------------------------

def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def _source_fingerprint() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "admitsim"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _check_digests(key: str, ops: list) -> list:
    """Compare op digests with an earlier run of the same key; store them if new.

    Returns the names of ops whose output differs from that earlier run.
    """
    try:
        with open(DIGEST_CACHE) as fh:
            cache = json.load(fh)
    except (OSError, ValueError):
        cache = {}
    current = {op["name"]: op["digest"] for op in ops if op["ok"]}
    earlier = cache.get(key)
    if earlier is None:
        cache[key] = current
        os.makedirs(os.path.dirname(DIGEST_CACHE), exist_ok=True)
        tmp = DIGEST_CACHE + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(cache, fh)
        os.replace(tmp, DIGEST_CACHE)
        return []
    return sorted(n for n, d in current.items() if earlier.get(n, d) != d)


def _tail(samples: list) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n <= 10:
        return None, None
    idx = n - 11
    return 100.0 * (idx + 1) / n, sorted(samples)[idx]


def _end_to_end(workload: str, setup: list, res: dict,
                failure_ratio: float) -> tuple[dict, dict]:
    ops = res["ops"]
    values = {
        "setup_s": statistics.median(setup) if setup else None,
        "episodes_per_s": res["episodes"] / res["scaled_s"],
        "realtime_factor": res["sim_s"] / res["scaled_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "failure_ratio": failure_ratio,
    }
    tail = {}
    if workload in ("ww_suite", "task_runs"):
        values["success_rate"] = res["successes"] / res["episodes"]
    if workload == "task_runs":
        times = [op["seconds"] for op in ops]
        values["run_p50_s"] = statistics.median(times)
        pct, values["run_tail_s"] = _tail(times)
        tail = {"percentile": pct, "n": len(times)}
    if workload == "offline":
        values["verify_s"] = res["timings"]["verify_s"]
        values["demos_per_s"] = res["counts"]["demos"] / res["timings"]["gen_demos_s"]
    report = {name: {"value": values.get(name) if workload in where else None, "unit": unit}
              for name, (unit, where) in END_TO_END.items()}
    return report, tail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure", "traced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "admitsim", "__init__.py")):
        print(f"no admitsim sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    if args.role:
        return _child(args.role, args.workload, args.seed, args.seconds)

    deadline = time.monotonic() + DEADLINE_S
    clock = HostClock(time.monotonic)
    try:
        probes = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            clock.sample()
            probes.append(_spawn("setup", args, deadline)[:2])
        clock.sample()
        untraced = _spawn("measure", args, deadline)[2]
        traced = _spawn("traced", args, deadline)[2] if args.trace else None
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup = [clock.scaled(t0, ready) for t0, ready in probes]

    runs = [untraced] + ([traced] if traced else [])
    key = f"{args.workload}|seed={args.seed}|seconds={args.seconds}|src={_source_fingerprint()}"
    mismatched = _check_digests(key, untraced["ops"])
    if traced:
        by_name = {op["name"]: op["digest"] for op in untraced["ops"]}
        mismatched += [f"traced:{op['name']}" for op in traced["ops"]
                       if op["ok"] and by_name.get(op["name"]) != op["digest"]]
    attempted = sum(len(r["ops"]) for r in runs)
    failures = [f"{op['name']}: {op['error']}" for r in runs for op in r["ops"] if not op["ok"]]
    failed = len(failures) + len(mismatched)

    e2e, tail = _end_to_end(args.workload, setup, untraced, failed / attempted)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "why": untraced["why"],
        "machine": _machine(), "inputs": untraced["inputs"],
        "end_to_end": e2e, "run_tail": tail, "counts": untraced["counts"],
        "digest": untraced["digest"], "digest_mismatches": mismatched, "failures": failures,
        "setup_samples_s": setup,
        "setup_wall_samples_s": [ready - t0 for t0, ready in probes],
        "batch_s": untraced["scaled_s"],
        "batch_wall_s": untraced["wall_s"],
        "wall_clock": {"episodes_per_s": untraced["episodes"] / untraced["wall_s"],
                       "realtime_factor": untraced["sim_s"] / untraced["wall_s"]},
    }
    if traced:
        overhead = {"value": traced["scaled_s"] - untraced["scaled_s"], "unit": "s"}
        metrics = dict(traced["per_layer"], **{"trace.overhead_s": overhead})
        report["per_layer"] = dict(traced["per_layer_report"], **{
            "trace.overhead_s": overhead, "wrappers_restored": traced["restored"]})
    else:
        metrics = {k: e2e[k] for k in CONTRACT_END_TO_END}
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0 and (not traced or traced["restored"]),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
