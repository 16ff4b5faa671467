"""Closed-loop episode runner: oracle policy at 10 FPS, admittance controller
at 1 kHz, environment wrench and disturbances per tick.

An episode terminates at the configured duration, on a safety stop, or once
the expert plan is exhausted plus a short settle tail; success is judged on
the final task metrics. Identical configs (seed included) produce bit-identical
logs.
"""

from __future__ import annotations

import copy
import math
import struct
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .admittance import (
    AdmittanceConfig,
    ControllerCommand,
    ControllerState,
    controller_tick,
)
from .environments import PlaneBoard, apply_disturbances, update_ink
from .errors import NonFiniteState, check_count, check_range, check_real
from .geometry import dot3, sq_norm
from .policy import DEFAULT_HORIZON, NoiseSpec, predict
from .tasks import TASKS, build_environment, generate_demo, task_spec

MODES = ("force_aware", "baseline_low", "baseline_mid", "baseline_high")
BASELINE_STIFFNESS = {"baseline_low": 50.0, "baseline_mid": 200.0, "baseline_high": 800.0}

CONTROL_HZ = 1000
POLICY_HZ = 10
TICKS_PER_STEP = CONTROL_HZ // POLICY_HZ
SETTLE_STEPS = POLICY_HZ  # policy steps (1 s) that hold the last command after the demo

# Every episode's final metrics in SuiteRow's order; NaN unless its task measures one.
FINAL_METRICS = ("remaining_ink_cm", "insertion_depth_mm", "opening_angle_deg", "peak_force_n")

DEFAULT_SAFETY_LIMIT = 25.0   # N on the deadbanded force magnitude
DEFAULT_DEBOUNCE = 0.020      # s a violation must persist before stopping


@dataclass(frozen=True)
class ScenarioConfig:
    task: str
    mode: str = "force_aware"
    duration: float = 20.0
    seed: int = 0
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    disturbances: tuple = ()
    admittance_overrides: dict = field(default_factory=dict)
    env_overrides: dict = field(default_factory=dict)
    safety_limit: float = DEFAULT_SAFETY_LIMIT
    safety_debounce: float = DEFAULT_DEBOUNCE
    wipe_passes: int = 1

    def __post_init__(self):
        spec = task_spec(self.task)
        if self.mode not in MODES:
            raise ValueError(f"unknown controller mode {self.mode!r}")
        limit = spec.time_limit
        check_real("duration", self.duration)
        if not 0.0 <= self.duration <= limit:  # false for NaN
            raise ValueError(
                f"duration must be within [0, {limit}] s for {self.task}, got {self.duration}")
        check_count("seed", self.seed, 0)
        check_count("wipe_passes", self.wipe_passes, 1)
        if self.wipe_passes != 1 and not spec.multipass:  # generate_demo would ignore it
            raise ValueError(f"wipe_passes must be 1 for {self.task}, which has no coverage "
                             f"path to repeat, got {self.wipe_passes}")
        kinds = spec.disturbance_kinds
        for ev in self.disturbances:
            if ev.kind not in kinds:  # it would run as a no-op, logged as disturbed
                raise ValueError(f"a {ev.kind} disturbance has no effect on {self.task} "
                                 f"(it takes {' | '.join(kinds)})")
        # apply_disturbances sums the tilt angles about one axis.
        axes = {ev.direction for ev in self.disturbances if ev.kind == "tilt"}
        if len(axes) > 1:
            raise ValueError(f"tilt events must share one direction, got {sorted(axes)}")
        for key, value in self.env_overrides.items():
            if key not in spec.env_keys:  # the environment would not read it
                raise ValueError(f"unknown environment override {key!r} for {self.task} "
                                 f"(it takes {' | '.join(spec.env_keys)})")
            check_range(f"environment {key}", value)
        for key, value in self.admittance_overrides.items():
            if key not in AdmittanceConfig.__dataclass_fields__:
                raise ValueError(f"unknown admittance override {key!r}")
            check_real(f"admittance {key}", value)  # a bool flag is one too
        check_range("safety limit", self.safety_limit)
        check_range("safety debounce", self.safety_debounce, closed=True)
        self.build_admittance()  # the overrides fail here, not mid-run

    def build_admittance(self) -> AdmittanceConfig:
        if self.mode == "force_aware":
            spec = task_spec(self.task)
            base = dict(enable_tangent_stiffening=spec.tangent_stiffening,
                        enable_normal_regulation=spec.normal_regulation, target_force=spec.f_H)
        else:
            # Blind baselines: isotropic stiffness, no force awareness.
            base = dict(stiffness=BASELINE_STIFFNESS[self.mode],
                        enable_tangent_stiffening=False,
                        enable_normal_regulation=False, target_force=0.0)
        base.update(self.admittance_overrides)
        return AdmittanceConfig(**base)


@dataclass
class RunLog:
    """Per-tick series plus end-of-episode metrics."""

    t: np.ndarray
    x_r: np.ndarray
    v_r: np.ndarray
    f_ext: np.ndarray   # deadbanded force fed to the controller
    f_cmd: np.ndarray
    k_eigs: np.ndarray
    phase: np.ndarray
    contact: np.ndarray
    disturbed: np.ndarray
    metrics: dict
    success: bool
    safety_stopped: bool

    @property
    def n_ticks(self) -> int:
        return len(self.t)


def success_check(task: str, log: RunLog) -> bool:
    """Task threshold on final metrics; any safety stop is a failure."""
    spec = task_spec(task)
    return not log.safety_stopped and spec.meets(log.metrics[spec.metric], spec.threshold)


def run_episode(cfg: ScenarioConfig) -> RunLog:
    slot = _twin_slot
    if slot:  # the clean twin of the disturbed episode run_suite ran just before
        ep = slot.pop()
        if ep.cfg != cfg:
            ep = _Episode(cfg)
    else:
        ep = _Episode(cfg)
        if slot is not None and 0 < ep.onset < ep.max_ticks:
            # A disturbed episode whose clean twin runs next: hand the twin
            # this episode up to the onset, where the two part.
            ep.advance(ep.onset)
            if not ep.ended:
                slot.append(ep.copy(replace(cfg, disturbances=())))
    ep.advance(ep.max_ticks)
    return ep.log()


# run_suite's hand-off from a disturbed episode to its clean twin, which it
# runs right after it: an empty list while such a pair runs, then the
# disturbed episode's copy at its onset tick until the twin's run_episode
# takes it. None otherwise, so a standalone run_episode never copies itself.
_twin_slot: list | None = None


def _first_tick(holds, lo: int, hi: int) -> int:
    """The first tick k in [lo, hi) at which holds(k), or hi if there is none.

    By bisection: holds must be monotone, true at every tick after one at
    which it is true.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _settle_tick(events, onset: int, max_ticks: int) -> int:
    """The first tick from the onset on at which every event is settled (see
    `DisturbanceEvent.settled`): apply_disturbances returns the same force and
    flag, and sets the same environment state, at it and at every later tick.

    max_ticks when some event does not settle in time; onset when there is no
    event. Exact: k * dt and settled never decrease as k grows.
    """
    dt = 1.0 / CONTROL_HZ
    return _first_tick(lambda k: all(ev.settled(k * dt) for ev in events), onset, max_ticks)


def _onset_tick(events, max_ticks: int) -> int:
    """The first tick whose time k * dt is at or past the earliest event start.

    Every event's profile is zero before its start, so no event acts before
    this tick; max_ticks when there is no event or none starts in time.
    """
    if not events:
        return max_ticks
    start = min(ev.start for ev in events)
    dt = 1.0 / CONTROL_HZ
    return _first_tick(lambda k: k * dt >= start, 0, max_ticks)


class _Episode:
    """run_episode's loop state: advanced tick by tick, and logged once it ends.

    Before the onset tick the loop leaves the environment to itself, so a
    disturbed episode up to its onset is bit for bit its clean twin's prefix,
    signed zeros of the geometry included, and a copy of it there continues
    as that twin (`copy`). From the settle tick on, every event holds its
    value, and the loop holds that tick's disturbance result instead of
    applying the events again.
    """

    def __init__(self, cfg: ScenarioConfig):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, TASKS.index(cfg.task)]))
        self.cfg = cfg
        self.env = build_environment(cfg.task, rng, cfg.env_overrides)
        self.demo = generate_demo(cfg.task, self.env, wipe_passes=cfg.wipe_passes)
        self.adm = cfg.build_admittance()
        self.noise = replace(cfg.noise, seed=cfg.noise.seed ^ (cfg.seed * 2654435761 % 2 ** 31))
        self.max_ticks = int(round(cfg.duration * CONTROL_HZ))
        self.onset = _onset_tick(cfg.disturbances, self.max_ticks)
        self.settle = _settle_tick(cfg.disturbances, self.onset, self.max_ticks)
        self.held = None      # the last disturbance result, held from the settle tick on
        self.k = 0            # the next tick
        self.ended = False    # the plan and its settle tail ran out, or a safety stop
        self.state = ControllerState.at_rest(self.demo.poses[0])
        self.chunk = self.cmd = None
        self.phase_idx = 0
        self.over = 0
        self.safety_stopped = False
        self.peak_force = 0.0
        # Compact logs, appended to per tick and turned into arrays once at the
        # end: no numpy call per tick. Each tick appends one _RECORD of the
        # float series and one disturbed flag. t is k * dt, and phase and
        # contact change only at a policy step, so those two hold one record
        # per step begun.
        self.records = bytearray()
        self.flags = (array("b"), array("b"), array("b"))  # phase, contact, disturbed
        self.final_log = None  # the log, once the episode cannot advance

    def copy(self, cfg: ScenarioConfig) -> "_Episode":
        """This episode so far, continued as its clean twin cfg: the same run up
        to this tick, which is at or before the onset, and no event after it."""
        dup = copy.copy(self)
        dup.cfg = cfg
        dup.onset = dup.settle = self.max_ticks
        dup.env = copy.deepcopy(self.env)
        dup.records = self.records[:]
        dup.flags = tuple(buf[:] for buf in self.flags)
        return dup

    def advance(self, k_end: int):
        """Run the ticks before k_end (at most max_ticks) unless the episode ended."""
        stop = min(k_end, self.max_ticks)
        if self.ended or self.k >= stop:
            return
        cfg, env, adm, noise = self.cfg, self.env, self.adm, self.noise
        tuples, phases = self.demo.tuples, self.demo.phases
        events, limit = cfg.disturbances, cfg.safety_limit
        onset, settle, held = self.onset, self.settle, self.held
        dt = 1.0 / CONTROL_HZ
        debounce_ticks = int(round(cfg.safety_debounce * CONTROL_HZ))
        n_demo = len(tuples)
        is_board = isinstance(env, PlaneBoard)
        # The per-tick callees, looked up once per call: a wrapper installed on
        # a module name (or an environment class) before this call is called.
        tick, disturb, ink = controller_tick, apply_disturbances, update_ink
        wrench = env.external_wrench
        door_update = env.update
        sqrt = math.sqrt
        pack = _RECORD.pack
        state, chunk, cmd = self.state, self.chunk, self.cmd
        phase_idx, over, peak_force = self.phase_idx, self.over, self.peak_force
        records = self.records
        buf_phase, buf_c, buf_dist = self.flags

        for k in range(self.k, stop):
            if k % TICKS_PER_STEP == 0:
                p = k // TICKS_PER_STEP
                if p >= n_demo + SETTLE_STEPS:
                    self.ended = True
                    break
                if p < n_demo:
                    if p % DEFAULT_HORIZON == 0:
                        chunk = predict(p, tuples, noise, DEFAULT_HORIZON)
                    # The controller is translational: a command takes the
                    # position and the gripper of the predicted 10-d pose.
                    pose10, normal, contact = chunk[p % DEFAULT_HORIZON]
                    cmd = ControllerCommand(pose10[:3], float(pose10[9]), normal, contact)
                    phase_idx = phases[p].value
                # Past the demo: hold the last command through the settle tail.
                buf_phase.append(phase_idx)
                buf_c.append(cmd.c)
            if k < onset:
                e0 = e1 = e2 = 0.0
                dist_active = False
            else:
                if k <= settle:  # past it, a call would return held and set no new state
                    held = disturb(env, events, k * dt)
                (e0, e1, e2), dist_active = held
            x_r, v_r = state
            if door_update is not None:
                door_update(x_r, cmd.gripper)
            w0, w1, w2 = wrench(x_r, v_r)
            raw_force = (w0 + e0, w1 + e1, w2 + e2)
            state, f_ext, f_cmd, eigs = tick(state, cmd, raw_force, dt, adm)
            x_r, v_r = state
            if is_board:
                fn = dot3(raw_force, env.surface_normal)
                if fn > 0.0:
                    ink(env, x_r, fn)
            records += pack(*x_r, *v_r, *f_ext, *f_cmd, *eigs)
            buf_dist.append(dist_active)
            f_mag = sqrt(sq_norm(f_ext))
            if f_mag > peak_force:
                peak_force = f_mag
            over = over + 1 if f_mag > limit else 0
            if over > debounce_ticks:
                self.safety_stopped = self.ended = True
                break

        self.k = stop
        self.held = held
        self.state, self.chunk, self.cmd = state, chunk, cmd
        self.phase_idx, self.over, self.peak_force = phase_idx, over, peak_force

    def log(self) -> RunLog:
        """The RunLog of an episode that cannot advance (it ended, or ran
        max_ticks): the series, moved out of the tick records, which are left
        empty, and the final metrics. Every later call returns the same log.
        """
        log = self.final_log
        if log is None:
            assert self.ended or self.k >= self.max_ticks, "the episode can still advance"
            task = self.cfg.task
            spec = task_spec(task)
            metrics = dict.fromkeys(FINAL_METRICS, math.nan)
            metrics[spec.metric] = self.env.measure(self.state.x_r)
            metrics["peak_force_n"] = self.peak_force
            buf_phase, buf_c, buf_dist = self.flags
            n = len(buf_dist)
            t = np.arange(n) * (1.0 / CONTROL_HZ)  # k * dt, as the loop's event times
            series = _take_series(self.records, n)
            disturbed = np.frombuffer(buf_dist, dtype=np.int8).copy()
            log = self.final_log = RunLog(t, *series, _per_tick(buf_phase, n),
                                          _per_tick(buf_c, n), disturbed, metrics, False,
                                          self.safety_stopped)
            log.success = success_check(task, log)
            log.metrics["success"] = log.success
        if not np.isfinite(log.x_r).all():
            raise NonFiniteState("episode produced a non-finite trajectory")
        return log


# One tick's float log values: x_r, v_r, f_ext, f_cmd and the stiffness
# eigenvalues, three each, in RunLog's field order.
_RECORD = struct.Struct("15d")


def _take_series(records: bytearray, n: int) -> list:
    """The five C-contiguous (n, 3) series of n tick records, cut off the
    buffer as they are copied, from the end.

    A bytearray gives memory back only when cut below half its allocation, so
    each pass takes the upper half of the rows left: the buffer and the
    series are never held whole at the same time.
    """
    series = [np.empty((n, 3)) for _ in range(5)]
    hi = n
    while hi:
        lo = hi // 2
        rows = np.frombuffer(records, np.float64, (hi - lo) * 15, lo * _RECORD.size)
        for i, out in enumerate(series):
            out[lo:hi] = rows.reshape(-1, 5, 3)[:, i]
        del rows  # the buffer cannot be resized while an array views it
        del records[lo * _RECORD.size:]
        hi = lo
    return series


def _per_tick(steps: array, n: int) -> np.ndarray:
    """The (n,) per-tick series of one int8 record per policy step begun."""
    return np.repeat(np.frombuffer(steps, dtype=np.int8), TICKS_PER_STEP)[:n]


# --------------------------------------------------------------------------
# Batch evaluation
# --------------------------------------------------------------------------

@dataclass
class SuiteRow:
    mode: str
    disturbed: bool
    episodes: int
    success_rate: float
    safety_stop_rate: float
    mean_remaining_ink_cm: float
    mean_insertion_depth_mm: float
    mean_opening_angle_deg: float
    mean_peak_force_n: float


def run_suite(cfgs: list[ScenarioConfig]) -> list[SuiteRow]:
    """Sequential episode batch aggregated by (mode, disturbed).

    A disturbed config runs right before its clean twin (the same config
    without disturbances), and the twin continues from the disturbed
    episode's copy at the disturbance onset instead of from tick 0: the same
    episodes, bit for bit, from fewer simulated ticks. Rows and means follow
    the order of cfgs.
    """
    global _twin_slot
    outcomes = [None] * len(cfgs)  # (success, safety stop, metrics) per config
    for run in _runs(cfgs):
        _twin_slot = [] if len(run) == 2 else None
        try:
            for i in run:
                log = run_episode(cfgs[i])
                outcomes[i] = (log.success, log.safety_stopped, log.metrics)
        finally:
            _twin_slot = None
    groups: dict = {}
    for cfg, outcome in zip(cfgs, outcomes):
        groups.setdefault((cfg.mode, bool(cfg.disturbances)), []).append(outcome)
    rows = []
    for (mode, disturbed), group in groups.items():
        success, stopped, metrics = zip(*group)
        rows.append(SuiteRow(
            mode=mode,
            disturbed=disturbed,
            episodes=len(group),
            success_rate=float(np.mean([1.0 if ok else 0.0 for ok in success])),
            safety_stop_rate=float(np.mean([1.0 if st else 0.0 for st in stopped])),
            **{"mean_" + name: _nanmean([m[name] for m in metrics]) for name in FINAL_METRICS},
        ))
    return rows


def _runs(cfgs: list[ScenarioConfig]) -> list[tuple]:
    """The suite's execution order as runs of config indices: (i,) for a config
    alone, (disturbed i, clean j) for a disturbed config and its clean twin, in
    the twin's place."""
    unpaired: dict = {}  # seed -> indices of clean configs without a twin yet
    for j, cfg in enumerate(cfgs):
        if not cfg.disturbances:
            unpaired.setdefault(cfg.seed, []).append(j)
    twin_of = {}  # clean index -> disturbed index
    for i, cfg in enumerate(cfgs):
        if cfg.disturbances:
            clean = replace(cfg, disturbances=())
            candidates = unpaired.get(cfg.seed, [])
            for j in candidates:
                if cfgs[j] == clean:
                    candidates.remove(j)
                    twin_of[j] = i
                    break
    paired = set(twin_of.values())
    return [(twin_of[j], j) if j in twin_of else (j,)
            for j in range(len(cfgs)) if j not in paired]


def _nanmean(values) -> float:
    arr = np.asarray(values, dtype=float)
    if np.isnan(arr).all():
        return float("nan")
    return float(np.nanmean(arr))


def default_disturbance(task: str) -> tuple:
    """The scripted disturbance used in disturbed suite runs."""
    return task_spec(task).suite_disturbance
