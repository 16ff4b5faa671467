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
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .admittance import (
    AdmittanceConfig,
    ControllerCommand,
    ControllerState,
    controller_tick,
)
from .environments import (
    DisturbanceEvent,
    HingedDoor,
    PlaneBoard,
    apply_disturbances,
    update_ink,
)
from .errors import NonFiniteState
from .geometry import dot3, sq_norm
from .policy import DEFAULT_HORIZON, NoiseSpec, predict
from .tasks import (
    TASK_DISTURBANCES,
    TASK_FLAGS,
    TASK_TIME_LIMIT,
    TASKS,
    build_environment,
    generate_demo,
)

MODES = ("force_aware", "baseline_low", "baseline_mid", "baseline_high")
BASELINE_STIFFNESS = {"baseline_low": 50.0, "baseline_mid": 200.0, "baseline_high": 800.0}

CONTROL_HZ = 1000
POLICY_HZ = 10
TICKS_PER_STEP = CONTROL_HZ // POLICY_HZ
SETTLE_STEPS = POLICY_HZ  # policy steps (1 s) that hold the last command after the demo

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
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown controller mode {self.mode!r}")
        limit = TASK_TIME_LIMIT[self.task]
        if not 0.0 <= self.duration <= limit:  # false for NaN
            raise ValueError(
                f"duration must be within [0, {limit}] s for {self.task}, got {self.duration}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.wipe_passes < 1:
            raise ValueError(f"wipe_passes must be >= 1, got {self.wipe_passes}")
        kinds = TASK_DISTURBANCES[self.task]
        for ev in self.disturbances:
            if ev.kind not in kinds:  # it would run as a no-op, logged as disturbed
                raise ValueError(f"a {ev.kind} disturbance has no effect on {self.task} "
                                 f"(it takes {' | '.join(kinds)})")
        for key, value in self.env_overrides.items():  # k_e, latch_force
            if not 0.0 < value < math.inf:
                raise ValueError(f"environment {key} must be finite and > 0, got {value}")
        if not 0.0 < self.safety_limit < math.inf:
            raise ValueError(f"safety limit must be finite and > 0, got {self.safety_limit}")
        if not 0.0 <= self.safety_debounce < math.inf:
            raise ValueError(
                f"safety debounce must be finite and >= 0, got {self.safety_debounce}")
        self.build_admittance()  # the overrides fail here, not mid-run

    def build_admittance(self) -> AdmittanceConfig:
        tangent, normal, f_h = TASK_FLAGS[self.task]
        if self.mode == "force_aware":
            base = dict(stiffness=50.0, enable_tangent_stiffening=tangent,
                        enable_normal_regulation=normal, target_force=f_h)
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
    if log.safety_stopped:
        return False
    m = log.metrics
    if task == "MO":
        return m["opening_angle_deg"] >= 50.0
    if task == "DO":
        return m["opening_angle_deg"] >= 30.0
    if task == "PH":
        return m["insertion_depth_mm"] >= 10.0
    return m["remaining_ink_cm"] < 5.0


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

    Every event's profile is zero before its start, so no event acts before
    this tick; max_ticks when there is no event or none starts in time.
    """
    if not events:
        return max_ticks
    start = min(ev.start for ev in events)
    if start <= 0.0:
        return 0
    if not start * CONTROL_HZ < max_ticks:
        return max_ticks
    dt = 1.0 / CONTROL_HZ
    k = math.ceil(start * CONTROL_HZ)
    while (k - 1) * dt >= start:  # k * dt rounds either side of start
        k -= 1
    while k * dt < start:
        k += 1
    return min(k, max_ticks)


class _Episode:
    """run_episode's loop state: advanced tick by tick, and copyable at any tick.

    Before the onset tick the loop leaves the environment to itself, so a
    disturbed episode up to its onset is bit for bit its clean twin's prefix,
    signed zeros of the geometry included.
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
        self.k = 0            # the next tick
        self.ended = False    # the plan and its settle tail ran out, or a safety stop
        self.state = ControllerState.at_rest(self.demo.poses[0])
        self.chunk = self.cmd = None
        self.phase_idx = 0
        self.over = 0
        self.safety_stopped = False
        self.peak_force = 0.0
        # Compact per-tick logs, appended to with extend/append and wrapped as
        # arrays once at the end: no numpy call per tick. One per RunLog series,
        # in its field order.
        self.bufs = (array("d"), array("d"), array("d"), array("d"), array("d"),
                     array("d"), array("b"), array("b"), array("b"))

    def copy(self, cfg: ScenarioConfig) -> "_Episode":
        """This episode so far, continued under cfg (the same run up to this tick)."""
        dup = copy.copy(self)
        dup.cfg = cfg
        dup.onset = _onset_tick(cfg.disturbances, self.max_ticks)
        dup.env = copy.deepcopy(self.env)
        dup.bufs = tuple(buf[:] for buf in self.bufs)
        return dup

    def advance(self, k_end: int):
        """Run the ticks before k_end (at most max_ticks) unless the episode ended."""
        stop = min(k_end, self.max_ticks)
        if self.ended or self.k >= stop:
            return
        cfg, env, adm, noise = self.cfg, self.env, self.adm, self.noise
        tuples, phases = self.demo.tuples, self.demo.phases
        events, onset, limit = cfg.disturbances, self.onset, cfg.safety_limit
        dt = 1.0 / CONTROL_HZ
        debounce_ticks = int(round(cfg.safety_debounce * CONTROL_HZ))
        n_demo = len(tuples)
        is_board = isinstance(env, PlaneBoard)
        is_door = isinstance(env, HingedDoor)
        state, chunk, cmd = self.state, self.chunk, self.cmd
        phase_idx, over, peak_force = self.phase_idx, self.over, self.peak_force
        buf_t, buf_x, buf_v, buf_fe, buf_fc, buf_k, buf_phase, buf_c, buf_dist = self.bufs

        for k in range(self.k, stop):
            t = k * dt
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
            if k < onset:
                e0 = e1 = e2 = 0.0
                dist_active = False
            else:
                (e0, e1, e2), dist_active = apply_disturbances(env, events, t)
            x = state.x_r
            if is_door:
                env.update(x, cmd.gripper)
            w0, w1, w2 = env.external_wrench(x, state.v_r)
            raw_force = (w0 + e0, w1 + e1, w2 + e2)
            res = controller_tick(state, cmd, raw_force, dt, adm)
            state = res.state
            if is_board:
                fn = dot3(raw_force, env.spring.surface_normal)
                if fn > 0.0:
                    update_ink(env, state.x_r, fn)
            buf_t.append(t)
            buf_x.extend(state.x_r)
            buf_v.extend(state.v_r)
            buf_fe.extend(res.f_ext)
            buf_fc.extend(res.f_cmd)
            buf_k.extend(res.stiffness_eigs)
            buf_phase.append(phase_idx)
            buf_c.append(cmd.c)
            buf_dist.append(dist_active)
            f_mag = math.sqrt(sq_norm(res.f_ext))
            peak_force = max(peak_force, f_mag)
            over = over + 1 if f_mag > limit else 0
            if over > debounce_ticks:
                self.safety_stopped = self.ended = True
                break

        self.k = stop
        self.state, self.chunk, self.cmd = state, chunk, cmd
        self.phase_idx, self.over, self.peak_force = phase_idx, over, peak_force

    def log(self) -> RunLog:
        """The episode's RunLog: the series as they stand and the final metrics."""
        task = self.cfg.task
        metrics = _final_metrics(task, self.env, self.state, self.peak_force)
        buf_t, buf_x, buf_v, buf_fe, buf_fc, buf_k, buf_phase, buf_c, buf_dist = self.bufs
        log = RunLog(_series(buf_t), _series(buf_x, 3), _series(buf_v, 3), _series(buf_fe, 3),
                     _series(buf_fc, 3), _series(buf_k, 3), _series(buf_phase),
                     _series(buf_c), _series(buf_dist), metrics, False, self.safety_stopped)
        log.success = success_check(task, log)
        log.metrics["success"] = log.success
        if not np.isfinite(log.x_r).all():
            raise NonFiniteState("episode produced a non-finite trajectory")
        return log


def _series(buf: array, width: int = 0) -> np.ndarray:
    """A log buffer as a numpy array over its memory: (n,) or (n, width)."""
    arr = np.frombuffer(buf, dtype=np.float64 if buf.typecode == "d" else np.int8)
    return arr.reshape(-1, width) if width else arr


def _final_metrics(task: str, env, state: ControllerState, peak_force: float) -> dict:
    from .environments import insertion_depth, opening_angle, remaining_ink_length
    metrics = {
        "peak_force_n": peak_force,
        "remaining_ink_cm": float("nan"),
        "insertion_depth_mm": float("nan"),
        "opening_angle_deg": float("nan"),
    }
    if task == "WW":
        metrics["remaining_ink_cm"] = remaining_ink_length(env)
    elif task == "PH":
        metrics["insertion_depth_mm"] = insertion_depth(env, state.x_r)
    else:
        metrics["opening_angle_deg"] = opening_angle(env)
    return metrics


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
            mean_remaining_ink_cm=_nanmean([m["remaining_ink_cm"] for m in metrics]),
            mean_insertion_depth_mm=_nanmean([m["insertion_depth_mm"] for m in metrics]),
            mean_opening_angle_deg=_nanmean([m["opening_angle_deg"] for m in metrics]),
            mean_peak_force_n=_nanmean([m["peak_force_n"] for m in metrics]),
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
    if task == "WW":
        return (DisturbanceEvent("raise", start=5.0, duration=10.0, magnitude=0.07,
                                 direction=(0.0, 0.0, 1.0), ramp=0.5),)
    if task == "PH":
        return (DisturbanceEvent("shift", start=3.0, duration=5.0, magnitude=0.01,
                                 direction=(1.0, 0.0, 0.0), ramp=0.5),)
    return (DisturbanceEvent("force_pulse", start=6.0, duration=2.0, magnitude=10.0,
                             direction=(0.0, 1.0, 0.0), ramp=0.3),)
