"""Closed-loop episode runner: oracle policy at 10 FPS, admittance controller
at 1 kHz, environment wrench and disturbances per tick.

An episode terminates at the configured duration, on a safety stop, or once
the expert plan is exhausted plus a short settle tail; success is judged on
the final task metrics. Identical configs (seed included) produce bit-identical
logs.

A mode names one `AdmittanceConfig`: the task's (`TaskSpec.admittance`) for
force_aware, one of `BASELINES` for each blind baseline.
"""

from __future__ import annotations

import copy
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, field, replace

import numpy as np

from .admittance import AdmittanceConfig, ControllerState, controller_tick
from .environments import (
    F_MIN_WIPE,
    DisturbanceEvent,
    PlaneBoard,
    apply_disturbances,
    update_ink,
)
from .errors import check_choice, check_count, check_range, check_real
from .policy import DEFAULT_HORIZON, NoiseSpec, predict
from .tasks import TASKS, build_environment, generate_demo, task_spec

# The blind baselines: isotropic stiffness, no force awareness.
BASELINES = {"baseline_low": AdmittanceConfig(stiffness=50.0),
             "baseline_mid": AdmittanceConfig(stiffness=200.0),
             "baseline_high": AdmittanceConfig(stiffness=800.0)}
MODES = ("force_aware", *BASELINES)

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
    """One episode's inputs, checked at construction. `admittance`, the mode's
    controller with `admittance_overrides` applied, is built here once and is
    not a field: `==` and `repr` ignore it, and `replace` builds it again."""

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
        for name, kind in (("noise", NoiseSpec), ("disturbances", tuple),
                           ("admittance_overrides", dict), ("env_overrides", dict)):
            value = getattr(self, name)
            if not isinstance(value, kind):  # the checks below and the run read it as one
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if not all(isinstance(ev, DisturbanceEvent) for ev in self.disturbances):
            raise ValueError(f"disturbances must hold DisturbanceEvents, got {self.disturbances!r}")
        check_choice("mode", self.mode, MODES)
        check_range("duration", self.duration, closed=True, high=spec.time_limit)
        check_count("seed", self.seed, 0)
        if self.wipe_passes != 1 and not spec.multipass:  # generate_demo would ignore it
            raise ValueError(f"wipe_passes must be 1 for {self.task}, which has no coverage "
                             f"path to repeat, got {self.wipe_passes}")
        # An episode runs at most this many policy steps, and a pass takes two or more.
        check_count("wipe_passes", self.wipe_passes, 1, high=int(spec.time_limit * POLICY_HZ))
        env_class = spec.environment  # it declares what moves it and what a config may set
        for ev in self.disturbances:  # any other kind is a no-op, yet logged as disturbed
            check_choice(f"{self.task} disturbance kind", ev.kind, env_class.DISTURBANCES)
        # apply_disturbances sums the tilt angles about one axis.
        axes = {ev.direction for ev in self.disturbances if ev.kind == "tilt"}
        if len(axes) > 1:
            raise ValueError(f"tilt events must share one direction, got {sorted(axes)}")
        for key, value in self.env_overrides.items():  # any other key would go unread
            check_choice(f"{self.task} environment override", key, env_class.OVERRIDES)
            try:
                env_class.OVERRIDES[key](value)  # the check its constructor runs
            except ValueError as exc:
                raise type(exc)(f"environment {exc}") from None
        for key, value in self.admittance_overrides.items():
            check_choice("admittance override", key, AdmittanceConfig.__dataclass_fields__)
            check_real(f"admittance {key}", value)  # a bool flag is one too
        check_range("safety limit", self.safety_limit)
        check_range("safety debounce", self.safety_debounce, closed=True)
        if self.safety_debounce * CONTROL_HZ == math.inf:  # the run counts it in ticks
            raise ValueError(f"safety debounce must be a finite number of ticks "
                             f"({CONTROL_HZ} per s), got {self.safety_debounce}")
        base = spec.admittance if self.mode == "force_aware" else BASELINES[self.mode]
        try:
            adm = replace(base, **self.admittance_overrides)
        except ValueError as exc:  # NonPositiveParameter is one too
            raise type(exc)(f"admittance {exc}") from None
        object.__setattr__(self, "admittance", adm)


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


def _onset_tick(events, max_ticks: int) -> int:
    """The first tick whose time k * dt is at or past the earliest event start.

    Every event's envelope is zero before its start, so no event acts before
    this tick; max_ticks when there is no event or none starts in time.
    """
    if not events:
        return max_ticks
    start = min(ev.start for ev in events)
    dt = 1.0 / CONTROL_HZ
    return bisect_left(range(max_ticks), True, key=lambda k: k * dt >= start)


class _Episode:
    """run_episode's loop state: advanced tick by tick, and logged once it ends.

    Before the onset tick the loop leaves the environment to itself, so a
    disturbed episode up to its onset is bit for bit its clean twin's prefix,
    signed zeros of the geometry included, and a copy of it there continues
    as that twin (`copy`). Once apply_disturbances reports every event
    settled, the loop holds that result instead of applying the events
    again: each later call would return it and set no new state. No tick
    reads the board's ink: a tick only records its press, and each `advance`
    wipes its presses in one `update_ink` call before it returns, so `copy`
    and `log` see every wipe. The log is one buffer, `records`, of one
    `_RECORD` per tick run: its 15 floats and its phase, contact and
    disturbed flags. The tick count and the peak force are read off it.
    """

    def __init__(self, cfg: ScenarioConfig):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, TASKS.index(cfg.task)]))
        self.cfg = cfg
        self.env = build_environment(cfg.task, rng, cfg.env_overrides)
        self.demo = generate_demo(cfg.task, self.env, wipe_passes=cfg.wipe_passes)
        self.noise = replace(cfg.noise, seed=cfg.noise.seed ^ (cfg.seed * 2654435761 % 2 ** 31))
        self.max_ticks = int(round(cfg.duration * CONTROL_HZ))
        self.onset = _onset_tick(cfg.disturbances, self.max_ticks)
        self.held = (None, False, False)  # the last disturbance result, held once settled
        self.k = 0            # the next tick
        self.ended = False    # the plan and its settle tail ran out, or a safety stop
        self.state = ControllerState(self.demo.positions[0], (0.0, 0.0, 0.0))
        self.chunk = self.cmd = None
        self.phase_idx = 0
        self.over = 0
        self.safety_stopped = False
        # The log: one _RECORD per tick run, appended to per tick and viewed
        # as arrays once at the end, so no numpy call per tick. t is k * dt.
        self.records = bytearray()

    def copy(self, cfg: ScenarioConfig) -> "_Episode":
        """This episode so far, continued as its clean twin cfg: the same run up
        to this tick, which is at or before the onset, and no event after it."""
        dup = copy.copy(self)
        dup.cfg = cfg
        dup.onset = self.max_ticks
        dup.env = copy.deepcopy(self.env)
        dup.records = self.records[:]
        return dup

    def advance(self, k_end: int):
        """Run the ticks before k_end (at most max_ticks) unless the episode ended."""
        stop = min(k_end, self.max_ticks)
        if self.ended or self.k >= stop:
            return
        cfg, env, adm, noise = self.cfg, self.env, self.cfg.admittance, self.noise
        tuples, phases = self.demo.tuples, self.demo.phases
        events, limit = cfg.disturbances, cfg.safety_limit
        onset, held = self.onset, self.held
        dt = 1.0 / CONTROL_HZ
        debounce_ticks = int(round(cfg.safety_debounce * CONTROL_HZ))
        n_demo = len(tuples)
        is_board = isinstance(env, PlaneBoard)
        press = env.presses.append if is_board else None
        # The callees, looked up once per call: a wrapper installed on a
        # module name (or an environment class) before this call is called.
        tick, disturb, ink = controller_tick, apply_disturbances, update_ink
        wrench = env.external_wrench
        door_update = env.update
        sqrt = math.sqrt
        pack = _RECORD.pack
        state, chunk, cmd = self.state, self.chunk, self.cmd
        phase_idx, over = self.phase_idx, self.over
        records = self.records

        for k in range(self.k, stop):
            if k % TICKS_PER_STEP == 0:
                p = k // TICKS_PER_STEP
                if p >= n_demo + SETTLE_STEPS:
                    self.ended = True
                    break
                if p < n_demo:  # past the demo the last command holds through the settle tail
                    if p % DEFAULT_HORIZON == 0:
                        chunk = predict(p, tuples, noise)
                    cmd = chunk[p % DEFAULT_HORIZON]
                    phase_idx = phases[p].value
            if k < onset:
                e0 = e1 = e2 = 0.0
                dist_active = False
            else:
                if not held[2]:
                    held = disturb(env, events, k * dt)
                (e0, e1, e2), dist_active, _ = held
            x_r, v_r = state
            if door_update is not None:
                door_update(x_r, cmd.gripper)
            w0, w1, w2 = wrench(x_r, v_r)
            r0, r1, r2 = w0 + e0, w1 + e1, w2 + e2  # the raw force
            state, f_ext, f_cmd, eigs = tick(state, cmd, (r0, r1, r2), dt, adm)
            if is_board:
                n0, n1, n2 = env.surface_normal
                if r0 * n0 + r1 * n1 + r2 * n2 >= F_MIN_WIPE:
                    press(k)  # wiped with the others at the end of this call
            (x0, x1, x2), (v0, v1, v2) = state
            f0, f1, f2 = f_ext
            g0, g1, g2 = f_cmd
            s0, s1, s2 = eigs
            records += pack(x0, x1, x2, v0, v1, v2, f0, f1, f2, g0, g1, g2, s0, s1, s2,
                            phase_idx, cmd.c, dist_active)
            over = over + 1 if sqrt(f0 * f0 + f1 * f1 + f2 * f2) > limit else 0
            if over > debounce_ticks:
                self.safety_stopped = self.ended = True
                break

        if is_board:  # each press's x_r is its tick record's first three floats
            ink(env, np.frombuffer(records, np.float64).reshape(-1, 16)[:, :3])
        # The ticks run: a safety stop or the plan's end cuts the loop.
        self.k = len(records) // _RECORD.size
        self.held = held
        self.state, self.chunk, self.cmd = state, chunk, cmd
        self.phase_idx, self.over = phase_idx, over

    def log(self) -> RunLog:
        """The RunLog of an episode that cannot advance (it ended, or ran
        max_ticks): its nine series are views of the tick records, which
        nothing resizes from then on, and the final metrics. The peak force
        is the largest f_ext magnitude, summed column by column as the loop
        sums it, and 0.0 for an episode of no tick.
        """
        assert self.ended or self.k >= self.max_ticks, "the episode can still advance"
        task = self.cfg.task
        spec = task_spec(task)
        n = self.k
        t = np.arange(n) * (1.0 / CONTROL_HZ)  # k * dt, as the loop's event times
        rows = np.frombuffer(self.records, np.float64).reshape(n, 16)
        flags = np.frombuffer(self.records, np.int8).reshape(n, _RECORD.size)[:, 120:123]
        f0, f1, f2 = rows[:, 6], rows[:, 7], rows[:, 8]
        metrics = dict.fromkeys(FINAL_METRICS, math.nan)
        metrics[spec.metric] = self.env.measure(self.state.x_r)
        metrics["peak_force_n"] = float(np.sqrt(f0 * f0 + f1 * f1 + f2 * f2).max(initial=0.0))
        series = [rows[:, i:i + 3] for i in range(0, 15, 3)]
        log = RunLog(t, *series, *flags.T, metrics, False, self.safety_stopped)
        log.success = success_check(task, log)
        log.metrics["success"] = log.success
        return log


# One tick's log record, in RunLog's field order: x_r, v_r, f_ext, f_cmd and
# the stiffness eigenvalues as 15 float64 (bytes 0-119), then the phase,
# contact and disturbed flags as int8 (bytes 120-122), padded to 16 float64
# so that every float column is an aligned view.
_RECORD = struct.Struct("15d3b5x")


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
    return float("nan") if np.isnan(arr).all() else float(np.nanmean(arr))


def default_disturbance(task: str) -> tuple:
    """The scripted disturbance used in disturbed suite runs."""
    return task_spec(task).suite_disturbance
