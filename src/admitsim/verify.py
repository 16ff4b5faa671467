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


def _rk4(deriv, y0: np.ndarray, dt: float, n_steps: int):
    """Classical RK4 over a batched state: y has shape (..., 2) = (x, v).

    Returns time and trajectory arrays of shapes (n+1,), (n+1, ..., 2).
    """
    y = np.array(y0, dtype=float)
    traj = np.empty((n_steps + 1,) + y.shape)
    traj[0] = y
    t = 0.0
    for i in range(n_steps):
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = deriv(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = deriv(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        traj[i + 1] = y
    if not np.isfinite(traj).all():
        raise NonFiniteState("verifier integration diverged")
    return np.arange(n_steps + 1) * dt, traj


def verify_prop2(p: NormalDynamicsParams, v0: float,
                 T: float | None = None, dt: float = 1e-4) -> VerificationReport:
    """Contact lost (f_ext = 0): velocity converges to -f_H/(2d); the whole
    trajectory matches the analytic first-order solution."""
    if T is None:
        T = 20.0 * p.m / (2.0 * p.d)
    n = int(math.ceil(T / dt))

    def deriv(t, y):
        x, v = y[..., 0], y[..., 1]
        a = (-p.f_H - 2.0 * p.d * v) / p.m
        return np.stack([v, a], axis=-1)

    t, traj = _rk4(deriv, np.array([0.0, v0]), dt, n)
    v = traj[:, 1]
    v_inf = -p.f_H / (2.0 * p.d)
    analytic = v_inf + (v0 - v_inf) * np.exp(-2.0 * p.d * t / p.m)
    max_err = float(np.max(np.abs(v - analytic)))
    # Late-time window: position slope equals the steady velocity (linear drive
    # toward the environment).
    tail = slice(int(0.9 * n), n)
    slope = float(np.polyfit(t[tail], traj[tail, 0], 1)[0])
    v_err = abs(v[-1] - v_inf)
    passed = v_err < TOL_V and max_err < 1e-5 and abs(slope - v_inf) < 10 * TOL_V
    return VerificationReport(
        "prop2",
        {"m": p.m, "d": p.d, "f_H": p.f_H, "v0": v0, "T": T, "dt": dt},
        {"v_final": float(v[-1]), "v_err": float(v_err), "analytic_max_err": max_err,
         "late_slope": slope},
        {"tol_v": TOL_V, "analytic_tol": 1e-5},
        bool(passed),
    )


def equivalence_check(cfg: AdmittanceConfig, env: SpringContact, T: float = 2.0,
                      dt: float = 1e-3, n_axis: np.ndarray | None = None,
                      cmd_offset: float = -0.002, x0_offset: float = 0.0,
                      v0: float = 0.0) -> VerificationReport:
    """Full vector pipeline vs the reduced scalar law, matched step for step.

    Both sides integrate with the controller's semi-implicit scheme at the same
    dt against the same bilateral spring, deadbanded identically; motion and
    forces are restricted to the normal axis. The per-step position gap along n
    certifies the algebraic reduction of the commanded-force law.
    """
    n = np.array([0.0, 0.0, 1.0]) if n_axis is None else np.asarray(n_axis, dtype=float)
    n = n / np.linalg.norm(n)
    cfg = replace(cfg, enable_normal_regulation=True)
    x_e = float(env.rest_point @ n)
    x_n = x_e + x0_offset
    v_n = v0
    state = ControllerState(x_n * n, v_n * n, np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
    cmd = ControllerCommand(
        x_cmd=(x_e + cmd_offset) * n,
        q_cmd=np.array([1.0, 0.0, 0.0, 0.0]),
        gripper=1.0, n=n, c=1,
    )
    steps = int(math.ceil(T / dt))
    d = cfg.damping
    max_gap = 0.0
    for _ in range(steps):
        # Vector pipeline with the bilateral spring along n.
        f_spring = env.k_e * (x_e - float(state.x_r @ n))
        res = controller_tick(state, cmd, WrenchSample(f_spring * n, np.zeros(3)), dt, cfg)
        state = res.state
        # Reduced law: m x'' + 2 d x' = f_ext,n - f_H, same scheme and deadband.
        f_scalar = env.k_e * (x_e - x_n)
        f_dead = float(_radial_deadband(f_scalar * n, cfg.force_deadband) @ n)
        a_n = (f_dead - cfg.target_force - 2.0 * d * v_n) / cfg.mass
        v_n = v_n + dt * a_n
        x_n = x_n + dt * v_n
        max_gap = max(max_gap, abs(float(state.x_r @ n) - x_n))
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
    grid = grid or default_grid()
    if any(p.x_e.kind != "constant" for p in grid):
        raise ValueError("proposition 1 requires a constant rest point")
    m = np.array([p.m for p in grid])
    d = np.array([p.d for p in grid])
    k_e = np.array([p.k_e for p in grid])
    f_H = np.array([p.f_H for p in grid])
    x_e = np.array([p.x_e.base for p in grid])
    eq = x_e - f_H / k_e
    if T is None:
        T = np.array([20.0 * p.time_constant() for p in grid])
    else:
        T = np.full(len(grid), float(T))
    n = int(math.ceil(float(T.max()) / dt))

    def deriv(t, y):
        x, v = y[..., 0], y[..., 1]
        a = (k_e * (x_e - x) - f_H - 2.0 * d * v) / m
        return np.stack([v, a], axis=-1)

    y0 = np.stack([eq + x0_offset, np.full(len(grid), float(v0))], axis=-1)
    t, traj = _rk4(deriv, y0, dt, n)
    reports = []
    for i, p in enumerate(grid):
        idx = min(n, int(math.ceil(T[i] / dt)))
        x = traj[: idx + 1, i, 0]
        v = traj[: idx + 1, i, 1]
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
    grid = grid or default_grid()
    reports = list(verify_prop1_grid(grid))
    for p in grid:
        reports.append(verify_prop2(p, v0=0.05))
    reports.extend(verify_prop3_grid(grid, T=prop3_T))
    for p in grid:
        cfg = AdmittanceConfig(mass=p.m, stiffness=CONTROLLER_K,
                               damping_ratio=DAMPING_RATIO, target_force=p.f_H,
                               enable_normal_regulation=True)
        env = SpringContact(p.k_e, np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
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
    grid = grid or default_grid()
    m = np.array([p.m for p in grid])
    d = np.array([p.d for p in grid])
    k_e = np.array([p.k_e for p in grid])
    f_H = np.array([p.f_H for p in grid])
    prof = XeProfile("sinusoid", base=0.0, amplitude=amplitude, omega=omega)
    n = int(math.ceil(T / dt))

    def deriv(t, y):
        x, v = y[..., 0], y[..., 1]
        a = (k_e * (prof.value(t) - x) - f_H - 2.0 * d * v) / m
        return np.stack([v, a], axis=-1)

    y0 = np.stack([-f_H / k_e, np.zeros(len(grid))], axis=-1)
    t, traj = _rk4(deriv, y0, dt, n)
    reports = []
    for i, p in enumerate(grid):
        e = traj[:, i, 0] - (prof.value(t) - p.f_H / p.k_e)
        edot = traj[:, i, 1] - prof.vel(t)
        u = -(p.m * prof.acc(t) + 2.0 * p.d * prof.vel(t))
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
