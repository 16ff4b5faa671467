"""Numerical certification of the normal-direction stability claims.

The verifier integrates the bilateral closed-loop normal dynamics

    m x'' + 2 d x' = f_ext - f_H        with f_ext = k_e (x_e - x)   (in contact)
    m x'' + 2 d x' = -f_H                                           (contact lost)

and checks three properties: convergence to the force/position equilibrium,
velocity convergence after contact loss, and input-to-state stability under a
moving rest point, including the Lyapunov-rate inequality from the ISS proof.

A classical RK4 integrator is used here (errors far below the pass tolerances);
the equivalence check instead mirrors the controller's semi-implicit scheme
step for step, because its purpose is the algebraic identity between the full
vector pipeline and the reduced scalar law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .admittance import (
    AdmittanceConfig,
    ControllerCommand,
    ControllerState,
    WrenchSample,
    _radial_deadband,
    compute_damping,
    controller_tick,
)
from .environments import SpringContact
from .errors import NonFiniteState
from .geometry import _normalize, dot3, vec3

TOL_X = 1e-4          # m, equilibrium position tolerance
TOL_V = 1e-4          # m/s, steady-velocity tolerance
TOL_F_REL = 0.01      # fraction of f_H, force tolerance
LYAP_SLACK = 1e-6     # normalized Lyapunov slack
EQUIV_TOL = 1e-9      # m per step, pipeline vs reduced law


@dataclass(frozen=True)
class XeProfile:
    """Rest-point trajectory: constant, step, or sinusoid."""

    kind: str = "constant"
    base: float = 0.0
    amplitude: float = 0.0
    omega: float = 2.0 * math.pi
    step_time: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "step", "sinusoid"):
            raise ValueError(f"unknown x_e profile kind {self.kind!r}")

    def value(self, t):
        if self.kind == "constant":
            return self.base + 0.0 * t
        if self.kind == "step":
            return self.base + self.amplitude * (t >= self.step_time)
        return self.base + self.amplitude * np.sin(self.omega * t)

    def vel(self, t):
        if self.kind == "sinusoid":
            return self.amplitude * self.omega * np.cos(self.omega * t)
        return 0.0 * t

    def acc(self, t):
        if self.kind == "sinusoid":
            return -self.amplitude * self.omega ** 2 * np.sin(self.omega * t)
        return 0.0 * t


@dataclass(frozen=True)
class NormalDynamicsParams:
    m: float
    d: float
    k_e: float
    f_H: float
    x_e: XeProfile = field(default_factory=XeProfile)

    def __post_init__(self):
        # Written so that NaN fails each test: every comparison with NaN is false.
        for name in ("m", "d", "k_e"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 <= self.f_H < math.inf:
            raise ValueError(f"f_H must be finite and >= 0, got {self.f_H}")

    def equilibrium(self) -> float:
        return self.x_e.base - self.f_H / self.k_e

    def time_constant(self) -> float:
        """1 / |Re(slowest pole)| of m s^2 + 2 d s + k_e."""
        disc = self.d ** 2 - self.m * self.k_e
        if disc <= 0.0:
            return self.m / self.d
        slow = (self.d - math.sqrt(disc)) / self.m
        return 1.0 / slow


@dataclass
class VerificationReport:
    proposition: str
    params: dict
    measured: dict
    tolerances: dict
    passed: bool


def _rk4(accel, x0, v0, dt: float, n_steps: int):
    """Classical RK4 for x' = v, v' = accel(t, x, v) over a batch of lanes.

    x0 and v0 share one shape, the batch; accel returns the acceleration in
    that shape. Returns time of shape (n+1,) and position and velocity
    trajectories of shape (n+1,) + batch. Every lane is integrated exactly
    as it would be alone: the stages are elementwise.
    """
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    xs = np.empty((n_steps + 1,) + x.shape)
    vs = np.empty_like(xs)
    xs[0] = x
    vs[0] = v
    h = 0.5 * dt
    w = dt / 6.0
    t = 0.0
    for i in range(n_steps):
        a1 = accel(t, x, v)
        x2 = x + h * v
        v2 = v + h * a1
        a2 = accel(t + h, x2, v2)
        x3 = x + h * v2
        v3 = v + h * a2
        a3 = accel(t + h, x3, v3)
        x4 = x + dt * v3
        v4 = v + dt * a3
        a4 = accel(t + dt, x4, v4)
        x = x + w * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + w * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        t += dt
        xs[i + 1] = x
        vs[i + 1] = v
    if not (np.isfinite(xs).all() and np.isfinite(vs).all()):
        raise NonFiniteState("verifier integration diverged")
    return np.arange(n_steps + 1) * dt, xs, vs


def verify_prop2(grid: list[NormalDynamicsParams], v0: float, T: float | None = None,
                 dt: float = 1e-4) -> list[VerificationReport]:
    """Contact lost (f_ext = 0): velocity converges to -f_H/(2d); the whole
    trajectory matches the analytic first-order solution.

    Every point starts at velocity v0 and runs for T (default: 20 m/(2d),
    twenty of its own velocity time constants); the grid is integrated as one
    batch up to the longest horizon, and each point is judged on its own.
    """
    if not grid:
        return []
    m = np.array([p.m for p in grid])
    d2 = 2.0 * np.array([p.d for p in grid])
    f_H = np.array([p.f_H for p in grid])
    Ts = [20.0 * p.m / (2.0 * p.d) if T is None else T for p in grid]
    ns = [int(math.ceil(T_i / dt)) for T_i in Ts]

    def accel(t, x, v):
        return (-f_H - d2 * v) / m

    t_all, xs, vs = _rk4(accel, np.zeros(len(grid)), np.full(len(grid), float(v0)), dt, max(ns))
    reports = []
    for i, (p, T_i, n) in enumerate(zip(grid, Ts, ns)):
        t = t_all[: n + 1]
        v = vs[: n + 1, i]
        v_inf = -p.f_H / (2.0 * p.d)
        analytic = v_inf + (v0 - v_inf) * np.exp(-2.0 * p.d * t / p.m)
        max_err = float(np.max(np.abs(v - analytic)))
        # Late-time window: position slope equals the steady velocity (linear
        # drive toward the environment).
        tail = slice(int(0.9 * n), n)
        slope = float(np.polyfit(t[tail], xs[tail, i], 1)[0])
        v_err = abs(v[-1] - v_inf)
        passed = v_err < TOL_V and max_err < 1e-5 and abs(slope - v_inf) < 10 * TOL_V
        reports.append(VerificationReport(
            "prop2",
            {"m": p.m, "d": p.d, "f_H": p.f_H, "v0": v0, "T": T_i, "dt": dt},
            {"v_final": float(v[-1]), "v_err": float(v_err), "analytic_max_err": max_err,
             "late_slope": slope},
            {"tol_v": TOL_V, "analytic_tol": 1e-5},
            bool(passed),
        ))
    return reports


def equivalence_check(cfg: AdmittanceConfig, env: SpringContact, T: float = 2.0,
                      dt: float = 1e-3, n_axis=None,
                      cmd_offset: float = -0.002, x0_offset: float = 0.0,
                      v0: float = 0.0) -> VerificationReport:
    """Full vector pipeline vs the reduced scalar law, matched step for step.

    Both sides integrate with the controller's semi-implicit scheme at the same
    dt against the same bilateral spring, deadbanded identically; motion and
    forces are restricted to the normal axis. The per-step position gap along n
    certifies the algebraic reduction of the commanded-force law.
    """
    n = _normalize(vec3((0.0, 0.0, 1.0) if n_axis is None else n_axis))
    n0, n1, n2 = n
    cfg = replace(cfg, enable_normal_regulation=True)
    x_e = dot3(env.rest_point, n)
    x_n = x_e + x0_offset
    v_n = v0
    x_c = x_e + cmd_offset
    state = ControllerState((x_n * n0, x_n * n1, x_n * n2), (v_n * n0, v_n * n1, v_n * n2),
                            (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    cmd = ControllerCommand(x_cmd=(x_c * n0, x_c * n1, x_c * n2), q_cmd=(1.0, 0.0, 0.0, 0.0),
                            gripper=1.0, n=n, c=1)
    steps = int(math.ceil(T / dt))
    d = cfg.damping
    max_gap = 0.0
    for _ in range(steps):
        # Vector pipeline with the bilateral spring along n.
        f = env.k_e * (x_e - dot3(state.x_r, n))
        wrench = WrenchSample._make(((f * n0, f * n1, f * n2), (0.0, 0.0, 0.0)))
        state = controller_tick(state, cmd, wrench, dt, cfg).state
        # Reduced law: m x'' + 2 d x' = f_ext,n - f_H, same scheme and deadband.
        f = env.k_e * (x_e - x_n)
        f_dead = dot3(_radial_deadband((f * n0, f * n1, f * n2), cfg.force_deadband), n)
        a_n = (f_dead - cfg.target_force - 2.0 * d * v_n) / cfg.mass
        v_n = v_n + dt * a_n
        x_n = x_n + dt * v_n
        max_gap = max(max_gap, abs(dot3(state.x_r, n) - x_n))
    passed = max_gap < EQUIV_TOL
    return VerificationReport(
        "equivalence",
        {"m": cfg.mass, "k": cfg.stiffness, "f_H": cfg.target_force, "k_e": env.k_e,
         "T": T, "dt": dt},
        {"max_step_gap": float(max_gap)},
        {"tol": EQUIV_TOL},
        bool(passed),
    )


# --------------------------------------------------------------------------
# Default verification grid
# --------------------------------------------------------------------------

GRID_M = (0.5, 1.0, 2.0)
GRID_KE = (100.0, 1000.0, 5000.0)
GRID_FH = (2.0, 4.0, 8.0)
CONTROLLER_K = 50.0
DAMPING_RATIO = 2.0


def default_grid(ms=GRID_M, kes=GRID_KE, fhs=GRID_FH,
                 d: float | None = None) -> list[NormalDynamicsParams]:
    """The m x k_e x f_H grid; d defaults to the controller's over-damped rule."""
    grid = []
    for m in ms:
        d_m = compute_damping(m, CONTROLLER_K, DAMPING_RATIO) if d is None else d
        for k_e in kes:
            for f_H in fhs:
                grid.append(NormalDynamicsParams(m, d_m, k_e, f_H))
    return grid


def verify_prop1_grid(grid: list[NormalDynamicsParams] | None = None,
                      x0_offset: float = 0.02, v0: float = 0.0, T: float | None = None,
                      dt: float = 5e-4) -> list[VerificationReport]:
    """Disturbance-free convergence to x_e - f_H/k_e with f_ext -> f_H, plus
    monotone decrease of V = 0.5 m e'^2 + 0.5 k_e e^2 outside a slack band.

    Every point starts x0_offset from its equilibrium at velocity v0 and runs
    for T (default: 20 of its own time constants); the grid is integrated as
    one batch for speed.
    """
    if grid is None:
        grid = default_grid()
    if not grid:
        return []
    if any(p.x_e.kind != "constant" for p in grid):
        raise ValueError("proposition 1 requires a constant rest point")
    m = np.array([p.m for p in grid])
    d2 = 2.0 * np.array([p.d for p in grid])
    k_e = np.array([p.k_e for p in grid])
    f_H = np.array([p.f_H for p in grid])
    x_e = np.array([p.x_e.base for p in grid])
    eq = x_e - f_H / k_e
    if T is None:
        T = np.array([20.0 * p.time_constant() for p in grid])
    else:
        T = np.full(len(grid), float(T))
    n = int(math.ceil(float(T.max()) / dt))

    def accel(t, x, v):
        return (k_e * (x_e - x) - f_H - d2 * v) / m

    t, xs, vs = _rk4(accel, eq + x0_offset, np.full(len(grid), float(v0)), dt, n)
    reports = []
    for i, p in enumerate(grid):
        idx = min(n, int(math.ceil(T[i] / dt)))
        x = xs[: idx + 1, i]
        v = vs[: idx + 1, i]
        e = x - eq[i]
        V = 0.5 * p.m * v ** 2 + 0.5 * p.k_e * e ** 2
        v_ref = max(V[0], 1e-12)
        dV = np.diff(V)
        outside = V[:-1] > LYAP_SLACK * v_ref
        lyap_ok = bool(np.all(dV[outside] <= LYAP_SLACK * v_ref))
        f_final = p.k_e * (p.x_e.base - x[-1])
        x_err = abs(float(x[-1]) - eq[i])
        f_err = abs(f_final - p.f_H)
        tol_f = max(TOL_F_REL * p.f_H, 1e-6)  # absolute floor for the f_H = 0 case
        passed = x_err < TOL_X and f_err <= tol_f and lyap_ok
        reports.append(VerificationReport(
            "prop1",
            {"m": p.m, "d": p.d, "k_e": p.k_e, "f_H": p.f_H, "T": float(T[i]), "dt": dt},
            {"x_final": float(x[-1]), "x_err": float(x_err), "f_final": float(f_final),
             "f_err": float(f_err), "lyapunov_monotone": lyap_ok},
            {"tol_x": TOL_X, "tol_f": tol_f, "lyap_slack": LYAP_SLACK},
            bool(passed),
        ))
    return reports


def run_default_verification(prop3_T: float = 60.0,
                             grid: list[NormalDynamicsParams] | None = None
                             ) -> list[VerificationReport]:
    """All four checks over the parameter grid (one report per check per point)."""
    if grid is None:
        grid = default_grid()
    reports = verify_prop1_grid(grid)
    reports.extend(verify_prop2(grid, v0=0.05))
    reports.extend(verify_prop3_grid(grid, T=prop3_T))
    for p in grid:
        cfg = AdmittanceConfig(mass=p.m, stiffness=CONTROLLER_K,
                               damping_ratio=DAMPING_RATIO, target_force=p.f_H,
                               enable_normal_regulation=True)
        env = SpringContact(p.k_e, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        reports.append(equivalence_check(cfg, env))
    return reports


def verify_prop3_grid(grid: list[NormalDynamicsParams] | None = None,
                      amplitude: float = 0.005, omega: float = 2.0 * math.pi,
                      T: float = 60.0, dt: float = 1e-3) -> list[VerificationReport]:
    """ISS under the sinusoidal rest point amplitude*sin(omega t): bounded error
    states, the sampled Lyapunov rate satisfies V' <= -d e'^2 + u^2/(4d), and
    V' <= 0 whenever |e'| >= |u|/(2d).

    Every point starts at rest at the equilibrium of the t = 0 rest point and
    shares the sinusoid; the grid is integrated as one batch. The error states
    are relative to the moving rest point, so they do not depend on its base,
    and every point is integrated around base 0.
    """
    if grid is None:
        grid = default_grid()
    if not grid:
        return []
    m = np.array([p.m for p in grid])
    d2 = 2.0 * np.array([p.d for p in grid])
    k_e = np.array([p.k_e for p in grid])
    f_H = np.array([p.f_H for p in grid])
    prof = XeProfile("sinusoid", base=0.0, amplitude=amplitude, omega=omega)
    n = int(math.ceil(T / dt))

    def accel(t, x, v):
        return (k_e * (prof.value(t) - x) - f_H - d2 * v) / m

    t, xs, vs = _rk4(accel, -f_H / k_e, np.zeros(len(grid)), dt, n)
    # The rest-point profile is shared by every point.
    x_e, v_e, a_e = prof.value(t), prof.vel(t), prof.acc(t)
    reports = []
    for i, p in enumerate(grid):
        e = xs[:, i] - (x_e - p.f_H / p.k_e)
        edot = vs[:, i] - v_e
        u = -(p.m * a_e + 2.0 * p.d * v_e)
        sup_u = amplitude * math.sqrt((p.m * omega ** 2) ** 2 + (2.0 * p.d * omega) ** 2)
        # Operational bound: forced amplitude from the frequency response plus
        # the free response from the initial velocity mismatch, with headroom.
        H = 1.0 / math.sqrt((p.k_e - p.m * omega ** 2) ** 2 + (2.0 * p.d * omega) ** 2)
        bound = 2.0 * (H * sup_u + amplitude * omega * math.sqrt(p.m / p.k_e))
        # Sampled Lyapunov rate via 4th-order central differences.
        V = 0.5 * p.m * edot ** 2 + 0.5 * p.k_e * e ** 2
        Vdot = (V[:-4] - 8.0 * V[1:-3] + 8.0 * V[3:-1] - V[4:]) / (12.0 * dt)
        mid = slice(2, len(V) - 2)
        rhs = -p.d * edot[mid] ** 2 + u[mid] ** 2 / (4.0 * p.d)
        p_ref = float(np.max(np.abs(rhs))) + 1e-12
        ineq_resid = float(np.max(Vdot - rhs))
        # Negative rate whenever the velocity error dominates the disturbance.
        dominate = np.abs(edot[mid]) >= np.abs(u[mid]) / (2.0 * p.d)
        neg_ok = bool(np.all(Vdot[dominate] <= LYAP_SLACK * p_ref))
        sup_e = float(np.max(np.abs(e)))
        # Steady-state error: the second half, long after the transients.
        sup_e_ss = float(np.max(np.abs(e[n // 2:])))
        passed = sup_e <= bound and ineq_resid <= LYAP_SLACK * p_ref and neg_ok
        reports.append(VerificationReport(
            "prop3",
            {"m": p.m, "d": p.d, "k_e": p.k_e, "f_H": p.f_H, "A": amplitude,
             "omega": omega, "T": T, "dt": dt},
            {"sup_e": sup_e, "bound": bound, "sup_u": sup_u, "sup_e_steady": sup_e_ss,
             "ineq_residual": ineq_resid, "neg_rate_ok": neg_ok},
            {"lyap_slack": LYAP_SLACK * p_ref},
            bool(passed),
        ))
    return reports
