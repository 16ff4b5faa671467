"""The three benchmark workloads: inputs generated from a seed, and the closed
batch that runs them through ``admitsim.cli.main`` and the public API.

A batch is fixed by (workload, seed, seconds): ``seconds`` sets its size
through the per-workload rates below, calibrated so that one batch takes
roughly that long on a 2-core host at the commit that introduced the benchmark. The
clock never decides how much work runs, so the simulated outputs, their
digests and every count repeat exactly between runs with the same arguments.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import re
import time
from dataclasses import dataclass, field

import numpy as np

import admitsim.cli
import admitsim.datasets
import admitsim.harness
import admitsim.tasks
import admitsim.verify
from hostclock import HostClock

WORKLOADS = ("ww_suite", "task_runs", "offline")

WHY = {
    "ww_suite": "admitsim suite on a WW grid (4 modes x clean/board-raise x seeds): "
                "the traffic that dominates tier-1 time and that a batched engine should speed up",
    "task_runs": "one admitsim run per PH/MO/DO scenario, each writing its trace CSV: "
                 "the N=1 path users wait on; door, friction and chamfer code, no ink",
    "offline": "admitsim verify on the default grid, gen-demos for all four tasks and "
               "read_dataset of each file: no 1 kHz harness loop at all",
}

# Oracle noise of the acceptance suites (criterion 6); the workload seed picks its seed.
SUITE_NOISE = {"pos_std": 0.002, "rot_std": 0.01, "normal_cone_std": 0.05,
               "contact_flip_prob": 0.01}
WW_MODES = ("force_aware", "baseline_low", "baseline_mid", "baseline_high")
RUN_TASKS = ("PH", "MO", "DO")
RUN_CONDITIONS = (("force_aware", False), ("force_aware", True),
                  ("baseline_mid", False), ("baseline_mid", True))
DEMO_TASKS = ("WW", "PH", "MO", "DO")
EPISODE_DURATION = 25.0  # s; every episode here ends on its own before this

# Batch size per requested second (see the module docstring).
WW_EPISODES_PER_S = 1.3     # 8 episodes per board: 20 s -> 3 boards
RUNS_PER_S = 0.28           # per task: 20 s -> 6 runs each of PH, MO, DO
DEMOS_PER_S = 36.0          # per task: 20 s -> 720 demonstrations each

# Boards of one ww_suite batch are consecutive scenario seeds (one suite INI).
# Expert plan length varies 46-142 policy steps between boards, which would make
# a batch of a few boards depend on the seed more than on the code, so the seed
# picks a window whose summed plan length is close to N x the typical length.
# Long and short boards still occur; only their sum is held fixed.
WW_PLAN_TARGET = 90         # policy steps per board
WW_PLAN_TOLERANCE = 5       # policy steps per window
WW_WINDOW_SEARCH = 400      # windows tried before taking the closest one


@dataclass
class OpResult:
    """One operation of a batch: a closed-loop episode, a CLI call or a read."""

    name: str
    start: float
    end: float
    ok: bool
    digest: str = ""
    error: str = ""
    seconds: float = 0.0  # reference-speed seconds, set by BatchResult.finish


@dataclass
class BatchResult:
    clock: HostClock
    start: float = 0.0
    end: float = 0.0
    ops: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    parts: dict = field(default_factory=dict)  # name -> the ops it is made of
    successes: int = 0
    episodes: int = 0
    sim_s: float = 0.0

    def begin(self):
        self.clock.sample()
        self.start = time.perf_counter()

    def op(self, name: str, start: float, ok: bool, digest: str = "", error: str = "",
           end: float | None = None) -> OpResult:
        op = OpResult(name, start, time.perf_counter() if end is None else end, ok, digest,
                      error)
        self.ops.append(op)
        return op

    def finish(self):
        self.end = time.perf_counter()
        self.clock.sample()
        for op in self.ops:
            op.seconds = self.clock.scaled(op.start, op.end)

    @property
    def timings(self) -> dict:
        """Reference-speed seconds of each named part."""
        return {name: sum(op.seconds for op in ops) for name, ops in self.parts.items()}

    @property
    def wall_s(self) -> float:
        return self.clock.scaled(self.start, self.end, raw=True)

    @property
    def scaled_s(self) -> float:
        return self.clock.scaled(self.start, self.end)

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(f"{op.name}={op.digest}\n".encode())
        return h.hexdigest()


@dataclass
class Batch:
    workload: str
    workdir: str
    inputs: dict
    files: list

    def run(self, clock: HostClock) -> BatchResult:
        res = BatchResult(clock)
        res.begin()
        with clock.periodic():
            {"ww_suite": _run_ww_suite, "task_runs": _run_task_runs,
             "offline": _run_offline}[self.workload](self, res)
        res.finish()
        return res


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _noise_section(seed: int) -> str:
    lines = ["[noise]"] + [f"{k} = {v!r}" for k, v in SUITE_NOISE.items()]
    return "\n".join(lines + [f"seed = {seed}", ""])


def _disturbance_sections(task: str) -> str:
    """INI form of the program's own scripted disturbance for ``task``."""
    out = []
    for i, ev in enumerate(admitsim.harness.default_disturbance(task)):
        direction = " ".join(repr(float(v)) for v in ev.direction)
        out += [f"[disturbance.d{i}]", f"kind = {ev.kind}", f"start = {ev.start!r}",
                f"duration = {ev.duration!r}", f"magnitude = {ev.magnitude!r}",
                f"direction = {direction}", f"ramp = {ev.ramp!r}", f"omega = {ev.omega!r}", ""]
    return "\n".join(out)


def prepare(workload: str, seed: int, seconds: int, workdir: str) -> Batch:
    """Generate the batch's input files in ``workdir``; nothing runs yet."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    noise_seed = rng.randrange(2 ** 31)
    inputs = {"noise_seed": noise_seed}
    files = []
    if workload == "ww_suite":
        boards = max(1, round(seconds * WW_EPISODES_PER_S / (2 * len(WW_MODES))))
        start = rng.randrange(10 ** 6)
        base, plan = _pick_ww_window(start, boards)
        inputs.update(boards=boards, window_start=start, base_seed=base, plan_steps=plan)
        files.append(_write(os.path.join(workdir, "ww_suite.ini"), "\n".join([
            "[suite]", "task = WW", f"modes = {' '.join(WW_MODES)}", f"seeds = {boards}",
            f"base_seed = {base}", f"duration = {EPISODE_DURATION!r}", "disturbed = both", "",
            _noise_section(noise_seed)])))
    elif workload == "task_runs":
        per_task = max(1, round(seconds * RUNS_PER_S))
        runs = []
        for i in range(per_task):
            mode, disturbed = RUN_CONDITIONS[i % len(RUN_CONDITIONS)]
            for task in RUN_TASKS:
                s = rng.randrange(10 ** 6)
                name = f"{task}_{mode}_{'dist' if disturbed else 'clean'}_{s}"
                files.append(_write(os.path.join(workdir, name + ".ini"), "\n".join([
                    "[scenario]", f"task = {task}", f"mode = {mode}",
                    f"duration = {EPISODE_DURATION!r}", f"seed = {s}", "",
                    _noise_section(noise_seed),
                    _disturbance_sections(task) if disturbed else ""])))
                runs.append(name)
        inputs.update(runs=runs)
    else:
        grid = admitsim.verify.default_grid()
        axes = {key: sorted({getattr(p, attr) for p in grid})
                for key, attr in (("m", "m"), ("k_e", "k_e"), ("f_h", "f_H"))}
        files.append(_write(os.path.join(workdir, "verify.ini"), "\n".join(
            ["[verify]"] + [f"{k} = {' '.join(repr(v) for v in vs)}" for k, vs in axes.items()]
            + [""])))
        count = max(2, round(seconds * DEMOS_PER_S))
        demo_seeds = {}
        for task in DEMO_TASKS:
            demo_seeds[task] = rng.randrange(10 ** 6)
            files.append(_write(os.path.join(workdir, f"{task}.ini"),
                                f"[scenario]\ntask = {task}\n"))
        inputs.update(demos_per_task=count, demo_seeds=demo_seeds)
    return Batch(workload, workdir, inputs, files)


def _ww_plan_steps(scenario_seed: int) -> int:
    """Expert plan length of a WW scenario, seeded the way run_episode seeds it."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [scenario_seed, admitsim.tasks.TASKS.index("WW")]))
    env = admitsim.tasks.build_environment("WW", rng)
    return len(admitsim.tasks.generate_demo("WW", env).tuples)


def _pick_ww_window(start: int, boards: int) -> tuple[int, int]:
    """First window of consecutive seeds from ``start`` near the plan-length target."""
    target = boards * WW_PLAN_TARGET
    lengths = [_ww_plan_steps(start + i) for i in range(boards)]
    best = (abs(sum(lengths) - target), start, sum(lengths))
    for base in range(start, start + WW_WINDOW_SEARCH):
        if base > start:
            lengths = lengths[1:] + [_ww_plan_steps(base + boards - 1)]
        total = sum(lengths)
        if abs(total - target) <= WW_PLAN_TOLERANCE:
            return base, total
        best = min(best, (abs(total - target), base, total))
    return best[1], best[2]


# --------------------------------------------------------------------------
# Episode tap
# --------------------------------------------------------------------------

class EpisodeTap:
    """Observes each ``run_episode`` result of a ``suite`` call.

    The suite CSV only holds per-group means; the tap is how the benchmark sees
    per-episode ticks, flags, metrics and times there. It is installed in the
    untraced and the traced run alike, so it is not part of the tracing overhead.
    """

    def __init__(self):
        self.episodes = []  # (cfg, log, start, end)
        self._original = None

    def __enter__(self):
        self._original = admitsim.harness.run_episode
        original = self._original

        def run_episode(cfg):
            t0 = time.perf_counter()
            log = original(cfg)
            self.episodes.append((cfg, log, t0, time.perf_counter()))
            return log

        admitsim.harness.run_episode = run_episode
        return self

    def __exit__(self, *exc):
        admitsim.harness.run_episode = self._original
        return False


def _episode_record(cfg, log) -> str:
    m = log.metrics
    return (f"{cfg.mode},{int(bool(cfg.disturbances))},{cfg.seed},ticks={log.n_ticks},"
            f"success={int(log.success)},stopped={int(log.safety_stopped)},"
            f"peak={m['peak_force_n']!r},ink={m['remaining_ink_cm']!r},"
            f"depth={m['insertion_depth_mm']!r},angle={m['opening_angle_deg']!r}")


# --------------------------------------------------------------------------
# Batch runners
# --------------------------------------------------------------------------

def _cli(argv) -> tuple[int, str, str]:
    """``admitsim.cli.main`` with its stdout captured (the benchmark owns stdout).

    Returns (exit code, stdout, error); an exception or a nonzero exit becomes
    the error string.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = admitsim.cli.main(list(argv))
    except Exception as exc:
        return -1, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), "" if code == 0 else f"{argv[0]} exit {code}"


def _run_ww_suite(batch: Batch, res: BatchResult):
    out = os.path.join(batch.workdir, "ww_suite.csv")
    expected = batch.inputs["boards"] * len(WW_MODES) * 2
    with EpisodeTap() as tap:
        t0 = time.perf_counter()
        _, _, error = _cli(["suite", "--config", batch.files[0], "--out", out])
        t1 = time.perf_counter()
    if not error:
        with open(out) as fh:
            rows = fh.read().splitlines()[1:]
        if (len(rows) != 2 * len(WW_MODES)
                or sum(int(r.split(",")[2]) for r in rows) != expected):
            error = (f"suite CSV has {len(rows)} rows, expected {2 * len(WW_MODES)} "
                     f"covering {expected} episodes")
    for i, (cfg, log, start, end) in enumerate(tap.episodes):
        res.op(f"episode{i}", start, not error, _sha(_episode_record(cfg, log).encode()),
               error, end=end)
        res.successes += int(log.success)
        res.sim_s += log.n_ticks / admitsim.harness.CONTROL_HZ
    for i in range(len(tap.episodes), expected):  # episodes the suite never reached
        res.op(f"episode{i}", t1, False, "", error or "episode missing", end=t1)
    res.parts["suite_s"] = [res.op("suite_csv", t0, not error,
                                   "" if error else _file_sha(out), error, end=t1)]
    res.episodes = expected
    res.counts = _episode_counts(log for _, log, _, _ in tap.episodes)


def _episode_counts(logs) -> dict:
    counts = {"episodes": 0, "ticks": 0, "policy_steps": 0, "safety_stops": 0}
    for log in logs:
        counts["episodes"] += 1
        counts["ticks"] += log.n_ticks
        counts["policy_steps"] += math.ceil(log.n_ticks / admitsim.harness.TICKS_PER_STEP)
        counts["safety_stops"] += int(log.safety_stopped)
    return counts


_RUN_LINE = re.compile(r"success=(\d) safety_stopped=(\d) ticks=(\d+)")


def _run_task_runs(batch: Batch, res: BatchResult):
    counts = {"episodes": 0, "ticks": 0, "policy_steps": 0, "safety_stops": 0,
              "trace_rows": 0}
    for name, ini in zip(batch.inputs["runs"], batch.files):
        out = os.path.join(batch.workdir, name + ".csv")
        t0 = time.perf_counter()
        _, text, error = _cli(["run", "--config", ini, "--out", out])
        t1 = time.perf_counter()
        match = _RUN_LINE.search(text)
        digest = ""
        if not error and match is None:
            error = "run printed no result line"
        if not error:
            ticks = int(match.group(3))
            with open(out, "rb") as fh:
                trace = fh.read()
            os.remove(out)
            rows = trace.count(b"\n") - 1
            if rows != ticks:
                error = f"trace has {rows} rows for {ticks} ticks"
            digest = _sha(text.encode() + trace)
            res.successes += int(match.group(1))
            res.sim_s += ticks / admitsim.harness.CONTROL_HZ
            counts["episodes"] += 1
            counts["ticks"] += ticks
            counts["policy_steps"] += math.ceil(ticks / admitsim.harness.TICKS_PER_STEP)
            counts["safety_stops"] += int(match.group(2))
            counts["trace_rows"] += rows
        res.op(name, t0, not error, digest, error, end=t1)
    res.episodes = len(batch.files)
    res.counts = counts


def _run_offline(batch: Batch, res: BatchResult):
    counts = {"verify_checks": 0, "verify_failed": 0, "demos": 0, "demo_tuples": 0,
              "dataset_bytes": 0}
    count = batch.inputs["demos_per_task"]

    vcsv = os.path.join(batch.workdir, "verification.csv")
    t0 = time.perf_counter()
    _, _, error = _cli(["verify", "--config", batch.files[0], "--out", vcsv])
    digest = ""
    if os.path.exists(vcsv):
        with open(vcsv) as fh:
            rows = fh.read().splitlines()[1:]
        counts["verify_checks"] = len(rows)
        counts["verify_failed"] = sum(1 for r in rows if not r.endswith(",1"))
        digest = _file_sha(vcsv)
        if not rows:
            error = error or "verification CSV is empty"
    elif not error:
        error = "no verification CSV"
    verify_op = res.op("verify", t0, not error, digest, error)

    gen_ops = []
    for task, ini in zip(DEMO_TASKS, batch.files[1:]):
        path = os.path.join(batch.workdir, f"{task}.demos")
        t0 = time.perf_counter()
        _, _, error = _cli(["gen-demos", "--config", ini, "--count", str(count),
                            "--seed", str(batch.inputs["demo_seeds"][task]), "--out", path])
        gen_ops.append(res.op(f"gen_demos_{task}", t0, not error,
                              "" if error else _file_sha(path), error))
        if error:
            res.op(f"read_{task}", time.perf_counter(), False, "", "no dataset to read")
            continue
        size = os.path.getsize(path)
        t0 = time.perf_counter()
        try:
            ds = admitsim.datasets.read_dataset(path)
        except Exception as exc:
            res.op(f"read_{task}", t0, False, "", f"{type(exc).__name__}: {exc}")
            continue
        t1 = time.perf_counter()
        error = ""
        if len(ds.episodes) != count or ds.task != task:
            error = f"read back {len(ds.episodes)} {ds.task} episodes, wrote {count} {task}"
        counts["demos"] += len(ds.episodes)
        counts["demo_tuples"] += ds.tuple_count
        counts["dataset_bytes"] += size
        res.sim_s += ds.tuple_count / admitsim.harness.POLICY_HZ
        # The read side's digest: every record as parsed, re-serialized.
        h = hashlib.sha256()
        for ep in ds.episodes:
            for tup in ep:
                h.update(np.concatenate([tup.pose10, tup.normal, [tup.contact]]).tobytes())
        del ds
        os.remove(path)
        res.op(f"read_{task}", t0, not error, h.hexdigest(), error, end=t1)
    res.parts.update(verify_s=[verify_op], gen_demos_s=gen_ops)
    res.episodes = len(DEMO_TASKS) * count
    res.counts = counts
