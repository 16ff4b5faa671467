"""Closed-loop episode runner: oracle policy at 10 FPS, admittance controller
at 1 kHz, environment wrench and disturbances per tick.

An episode terminates at the configured duration, on a safety stop, or once
the expert plan is exhausted plus a short settle tail; success is judged on
the final task metrics. Identical configs (seed included) produce bit-identical
logs.
"""

from __future__ import annotations

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
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, TASKS.index(cfg.task)]))
    env = build_environment(cfg.task, rng, cfg.env_overrides)
    demo = generate_demo(cfg.task, env, wipe_passes=cfg.wipe_passes)
    adm = cfg.build_admittance()
    noise = replace(cfg.noise, seed=cfg.noise.seed ^ (cfg.seed * 2654435761 % 2 ** 31))
    dt = 1.0 / CONTROL_HZ
    debounce_ticks = int(round(cfg.safety_debounce * CONTROL_HZ))
    n_demo = len(demo.tuples)
    max_ticks = int(round(cfg.duration * CONTROL_HZ))

    state = ControllerState.at_rest(demo.poses[0])
    # Compact per-tick logs, appended to with extend/append and wrapped as
    # arrays once at the end: no numpy call per tick.
    buf_t = array("d")
    buf_x = array("d")
    buf_v = array("d")
    buf_fe = array("d")
    buf_fc = array("d")
    buf_k = array("d")
    buf_phase = array("b")
    buf_c = array("b")
    buf_dist = array("b")

    phase_idx = 0
    over = 0
    safety_stopped = False
    peak_force = 0.0
    is_board = isinstance(env, PlaneBoard)
    is_door = isinstance(env, HingedDoor)

    for k in range(max_ticks):
        t = k * dt
        if k % TICKS_PER_STEP == 0:
            p = k // TICKS_PER_STEP
            if p >= n_demo + SETTLE_STEPS:
                break
            if p < n_demo:
                if p % DEFAULT_HORIZON == 0:
                    chunk = predict(p, demo.tuples, noise, DEFAULT_HORIZON)
                # The controller is translational: a command takes the
                # position and the gripper of the predicted 10-d pose.
                pose10, normal, contact = chunk[p % DEFAULT_HORIZON]
                cmd = ControllerCommand(pose10[:3], float(pose10[9]), normal, contact)
                phase_idx = demo.phases[p].value
            # Past the demo: hold the last command through the settle tail.
        (e0, e1, e2), dist_active = apply_disturbances(env, cfg.disturbances, t)
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
        over = over + 1 if f_mag > cfg.safety_limit else 0
        if over > debounce_ticks:
            safety_stopped = True
            break

    metrics = _final_metrics(cfg.task, env, state, peak_force)
    log = RunLog(_series(buf_t), _series(buf_x, 3), _series(buf_v, 3), _series(buf_fe, 3),
                 _series(buf_fc, 3), _series(buf_k, 3), _series(buf_phase),
                 _series(buf_c), _series(buf_dist), metrics, False, safety_stopped)
    log.success = success_check(cfg.task, log)
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
    """Sequential episode batch aggregated by (mode, disturbed)."""
    groups: dict = {}
    order: list = []
    for cfg in cfgs:
        key = (cfg.mode, bool(cfg.disturbances))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(run_episode(cfg))
    rows = []
    for mode, disturbed in order:
        logs = groups[(mode, disturbed)]
        rows.append(SuiteRow(
            mode=mode,
            disturbed=disturbed,
            episodes=len(logs),
            success_rate=float(np.mean([1.0 if lg.success else 0.0 for lg in logs])),
            safety_stop_rate=float(np.mean([1.0 if lg.safety_stopped else 0.0 for lg in logs])),
            mean_remaining_ink_cm=_nanmean([lg.metrics["remaining_ink_cm"] for lg in logs]),
            mean_insertion_depth_mm=_nanmean([lg.metrics["insertion_depth_mm"] for lg in logs]),
            mean_opening_angle_deg=_nanmean([lg.metrics["opening_angle_deg"] for lg in logs]),
            mean_peak_force_n=_nanmean([lg.metrics["peak_force_n"] for lg in logs]),
        ))
    return rows


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
