"""Numerical certification of the normal-direction stability claims.

The verifier integrates the bilateral closed-loop normal dynamics

    m x'' + 2 d x' = f_ext - f_H        with f_ext = k_e (x_e - x)   (in contact)
    m x'' + 2 d x' = -f_H                                           (contact lost)

and checks three properties: convergence to the force/position equilibrium,
velocity convergence after contact loss, and input-to-state stability under a
moving rest point, including the Lyapunov-rate inequality from the ISS proof.

One law covers every case: a = (k_e (x_e(t) - x) - f_H - 2d v) / m, with a
constant x_e for proposition 1, a sinusoidal x_e shared by the points of
proposition 3, and k_e = 0 for proposition 2 (contact lost, f_ext = 0). A
classical RK4 kernel (`_integrate`, errors far below the pass tolerances)
advances a table of lanes, one per grid point and proposition, each with its
own dt and step count, in one lockstep loop; each lane stops at its own
horizon, and a fixed order of operations makes every lane bit-identical to
integrating it alone. `run_default_verification` integrates all three
propositions as one table; `verify_prop1_grid`, `verify_prop2` and
`verify_prop3_grid` each integrate their own lanes through the same kernel.

The equivalence check instead mirrors the controller's semi-implicit scheme
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
    """Rest-point trajectory: constant or sinusoid."""

    kind: str = "constant"
    base: float = 0.0
    amplitude: float = 0.0
    omega: float = 2.0 * math.pi

    def __post_init__(self):
        if self.kind not in ("constant", "sinusoid"):
            raise ValueError(f"unknown x_e profile kind {self.kind!r}")

    def value(self, t):
        if self.kind == "constant":
            return self.base + 0.0 * t
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


@dataclass(frozen=True)
class _Lanes:
    """One proposition's rows of the lane table, one lane per grid point.

    Every lane has its own columns of the one law (see `_integrate`), its own
    start state and step count, and the table's dt. `x_e` holds each lane's
    constant rest point unless `moving` is set: then every lane of the table
    follows that profile, and they all share one step count.
    """

    dt: float
    n: list
    m: list
    d: list
    k_e: list
    f_H: list
    x_e: list
    x0: list
    v0: list
    moving: XeProfile | None = None


def _integrate(tables: list[_Lanes]) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Classical RK4 over every lane of every table, in one lockstep loop.

    Each lane integrates x' = v, v' = a with the one law

        a = (k_e (x_e(t) - x) - f_H - 2d v) / m,

    evaluated as ((k_e * (x_e - x) - f_H) - (2d) * v) / m, and its RK4 step is
    x_+ = x + (dt/6) (((v + 2 v2) + 2 v3) + v4), likewise for v, with 2 v2
    formed as v2 + v2 (exact). This fixed order of operations makes every lane
    bit-identical to integrating it alone. Proposition 2's contact-lost lanes
    are the k_e = 0 case: 0 * (x_e - x) - f_H equals -f_H.

    The lanes are sorted by step count, longest first, so the active lanes are
    always a prefix of the table; a lane leaves it after its own n steps and is
    never integrated past its horizon. The stages are in-place buffers: stage
    j holds the rows (x_j, v_j, a_j), so its state (x_j, v_j) and its slope
    (v_j, a_j) are overlapping (2, lanes) views, and each stage update
    Y_j = Y_1 + h F_{j-1} is one multiply and one add. A moving rest point is
    evaluated at t + dt/2 (shared by stages 2 and 3) and at t + dt (stage 4,
    and stage 1 of the next step). Each lane's (x, v) rows are written in
    place, n + 1 of them; the result holds, per table and lane, views of
    shape (n + 1,) of its positions and velocities.
    """
    lanes = sorted(((g, i) for g, tab in enumerate(tables) for i in range(len(tab.n))),
                   key=lambda gi: -tables[gi[0]].n[gi[1]])  # stable: equal counts stay grouped

    def column(name):
        return np.array([getattr(tables[g], name)[i] for g, i in lanes], dtype=float)

    ns = [tables[g].n[i] for g, i in lanes]
    dt = np.array([tables[g].dt for g, _ in lanes], dtype=float)
    h, w = 0.5 * dt, dt / 6.0
    m, k_e, f_H, x_e = column("m"), column("k_e"), column("f_H"), column("x_e")
    d2 = 2.0 * column("d")
    movers = [tab for tab in tables if tab.moving is not None]
    if len(movers) > 1:
        raise ValueError("at most one table may have a moving rest point")
    # Its lanes share one step count, so they are adjacent after the sort.
    moving = [j for j, (g, _) in enumerate(lanes) if tables[g].moving is not None]
    if moving:
        mover = movers[0]
        m0, m1 = moving[0], moving[-1] + 1
        x_e[m0:m1] = mover.moving.value(0.0)

    # Lane j's rows are hist[:, off_j : off_j + n_j + 1]; pos indexes the
    # next row of every lane in the flat buffer (row 0: x, row 1: v).
    rows = [n + 1 for n in ns]
    off = np.cumsum([0] + rows, dtype=np.intp)[:-1]
    total = sum(rows)
    hist = np.empty((2, total))
    flat = hist.reshape(-1)
    pos = np.stack([off, off + total])
    state = np.stack([column("x0"), column("v0")])
    flat[pos] = state
    # Per-lane step sizes, doubled to the (2, lanes) shape of a stage's slope.
    dt, h, w = (np.stack([c, c]) for c in (dt, h, w))

    sub, mul, add, div = np.subtract, np.multiply, np.add, np.divide
    t = 0.0
    done = 0
    # A diverging lane is reported once, by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(lanes), 0, -1):
            stop = ns[k - 1]  # the prefix of k lanes all run up to here
            if stop <= done:
                continue
            # Contiguous buffers for this prefix: numpy runs each call as one loop.
            S = np.empty((4, 3, k))
            S[0, 0:2] = state[:, :k]
            X1, X2, X3, X4 = S[:, 0]
            V1, V2, V3, V4 = S[:, 1]
            A1, A2, A3, A4 = S[:, 2]
            Y1, Y2, Y3, Y4 = S[:, 0:2]
            F1, F2, F3, F4 = S[:, 1:3]
            T1, T2 = np.empty((2, 2, k))
            q = np.empty(k)
            P = pos[:, :k].copy()
            I = np.ones_like(P)
            dtk, hk, wk = dt[:, :k].copy(), h[:, :k].copy(), w[:, :k].copy()
            mk, kk, fk, d2k, xk = m[:k], k_e[:k], f_H[:k], d2[:k], x_e[:k]
            xm = x_e[m0:m1] if moving and m0 < k else None
            if xm is not None:
                rest, hm, dtm = mover.moving.value, 0.5 * mover.dt, mover.dt
            # Unrolled: the law at stages 1-4, the stage updates, the RK4 sum.
            for _ in range(done, stop):
                sub(xk, X1, A1); mul(kk, A1, A1); sub(A1, fk, A1)
                mul(d2k, V1, q); sub(A1, q, A1); div(A1, mk, A1)
                mul(hk, F1, T1); add(Y1, T1, Y2)
                if xm is not None:
                    xm.fill(rest(t + hm))
                sub(xk, X2, A2); mul(kk, A2, A2); sub(A2, fk, A2)
                mul(d2k, V2, q); sub(A2, q, A2); div(A2, mk, A2)
                mul(hk, F2, T1); add(Y1, T1, Y3)
                sub(xk, X3, A3); mul(kk, A3, A3); sub(A3, fk, A3)
                mul(d2k, V3, q); sub(A3, q, A3); div(A3, mk, A3)
                mul(dtk, F3, T1); add(Y1, T1, Y4)
                if xm is not None:
                    t += dtm
                    xm.fill(rest(t))
                sub(xk, X4, A4); mul(kk, A4, A4); sub(A4, fk, A4)
                mul(d2k, V4, q); sub(A4, q, A4); div(A4, mk, A4)
                add(F2, F2, T1); add(F1, T1, T1)
                add(F3, F3, T2); add(T1, T2, T1)
                add(T1, F4, T1); mul(wk, T1, T1); add(Y1, T1, Y1)
                add(P, I, P)
                flat[P] = Y1
            state, pos = Y1, P
            done = stop
    # NaN propagates through min and max, so this sees every non-finite row.
    if not (math.isfinite(hist.min(initial=0.0)) and math.isfinite(hist.max(initial=0.0))):
        raise NonFiniteState("verifier integration diverged")
    out = [[None] * len(tab.n) for tab in tables]
    for j, (g, i) in enumerate(lanes):
        span = slice(off[j], off[j] + rows[j])
        out[g][i] = (hist[0, span], hist[1, span])
    return out


def _prop2(grid: list[NormalDynamicsParams], v0: float, T: float | None, dt: float):
    """Proposition 2's lanes (contact lost: k_e = 0) and the judge of their run."""
    Ts = [20.0 * p.m / (2.0 * p.d) if T is None else T for p in grid]
    for T_i in Ts:  # false for NaN; ceil(inf) would raise OverflowError
        if not (0.0 < T_i < math.inf and math.ceil(T_i / dt) >= 1):
            raise ValueError(f"proposition-2 horizon must be finite and at least one "
                             f"step of {dt} s, got {T_i}")
    ns = [int(math.ceil(T_i / dt)) for T_i in Ts]
    zeros = [0.0] * len(grid)
    lanes = _Lanes(dt, ns, [p.m for p in grid], [p.d for p in grid], zeros,
                   [p.f_H for p in grid], zeros, zeros, [float(v0)] * len(grid))

    @np.errstate(over="ignore", invalid="ignore")  # a run too large to judge fails
    def judge(run):
        reports = []
        for p, T_i, n, (x, v) in zip(grid, Ts, ns, run):
            t = np.arange(n + 1) * dt
            v_inf = -p.f_H / (2.0 * p.d)
            analytic = v_inf + (v0 - v_inf) * np.exp(-2.0 * p.d * t / p.m)
            max_err = float(np.max(np.abs(v - analytic)))
            # Late-time window, the last tenth and at least the last two
            # samples: position slope equals the steady velocity (linear drive
            # toward the environment).
            tail = slice(min(int(0.9 * n), n - 1), n + 1)
            slope = float(np.polyfit(t[tail], x[tail], 1)[0])
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

    return lanes, judge


def verify_prop2(grid: list[NormalDynamicsParams], v0: float, T: float | None = None,
                 dt: float = 1e-4) -> list[VerificationReport]:
    """Contact lost (f_ext = 0): velocity converges to -f_H/(2d); the whole
    trajectory matches the analytic first-order solution.

    Every point starts at velocity v0 and runs for T (default: 20 m/(2d),
    twenty of its own velocity time constants); the grid is integrated as one
    batch, each point up to its own horizon, and each point is judged on its
    own.
    """
    lanes, judge = _prop2(grid, v0, T, dt)
    return judge(_integrate([lanes])[0])


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
    state = ControllerState((x_n * n0, x_n * n1, x_n * n2), (v_n * n0, v_n * n1, v_n * n2))
    cmd = ControllerCommand(x_cmd=(x_c * n0, x_c * n1, x_c * n2), gripper=1.0, n=n, c=1)
    steps = int(math.ceil(T / dt))
    d = cfg.damping
    max_gap = 0.0
    for _ in range(steps):
        # Vector pipeline with the bilateral spring along n.
        f = env.k_e * (x_e - dot3(state.x_r, n))
        state = controller_tick(state, cmd, (f * n0, f * n1, f * n2), dt, cfg).state
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


def _prop1(grid: list[NormalDynamicsParams], x0_offset: float, v0: float,
           T: float | None, dt: float):
    """Proposition 1's lanes and the judge of their run."""
    if any(p.x_e.kind != "constant" for p in grid):
        raise ValueError("proposition 1 requires a constant rest point")
    eq = [p.x_e.base - p.f_H / p.k_e for p in grid]
    Ts = [20.0 * p.time_constant() if T is None else float(T) for p in grid]
    ns = [int(math.ceil(T_i / dt)) for T_i in Ts]
    lanes = _Lanes(dt, ns, [p.m for p in grid], [p.d for p in grid], [p.k_e for p in grid],
                   [p.f_H for p in grid], [p.x_e.base for p in grid],
                   [e + x0_offset for e in eq], [float(v0)] * len(grid))

    @np.errstate(over="ignore", invalid="ignore")  # a run too large to judge fails
    def judge(run):
        reports = []
        for p, T_i, eq_i, (x, v) in zip(grid, Ts, eq, run):
            e = x - eq_i
            V = 0.5 * p.m * v ** 2 + 0.5 * p.k_e * e ** 2
            v_ref = max(V[0], 1e-12)
            dV = np.diff(V)
            outside = V[:-1] > LYAP_SLACK * v_ref
            lyap_ok = bool(np.all(dV[outside] <= LYAP_SLACK * v_ref))
            f_final = p.k_e * (p.x_e.base - x[-1])
            x_err = abs(float(x[-1]) - eq_i)
            f_err = abs(f_final - p.f_H)
            tol_f = max(TOL_F_REL * p.f_H, 1e-6)  # absolute floor for the f_H = 0 case
            passed = x_err < TOL_X and f_err <= tol_f and lyap_ok
            reports.append(VerificationReport(
                "prop1",
                {"m": p.m, "d": p.d, "k_e": p.k_e, "f_H": p.f_H, "T": T_i, "dt": dt},
                {"x_final": float(x[-1]), "x_err": float(x_err), "f_final": float(f_final),
                 "f_err": float(f_err), "lyapunov_monotone": lyap_ok},
                {"tol_x": TOL_X, "tol_f": tol_f, "lyap_slack": LYAP_SLACK},
                bool(passed),
            ))
        return reports

    return lanes, judge


def verify_prop1_grid(grid: list[NormalDynamicsParams] | None = None,
                      x0_offset: float = 0.02, v0: float = 0.0, T: float | None = None,
                      dt: float = 5e-4) -> list[VerificationReport]:
    """Disturbance-free convergence to x_e - f_H/k_e with f_ext -> f_H, plus
    monotone decrease of V = 0.5 m e'^2 + 0.5 k_e e^2 outside a slack band.

    Every point starts x0_offset from its equilibrium at velocity v0 and runs
    for T (default: 20 of its own time constants); the grid is integrated as
    one batch, each point up to its own horizon.
    """
    lanes, judge = _prop1(default_grid() if grid is None else grid, x0_offset, v0, T, dt)
    return judge(_integrate([lanes])[0])


def _prop3(grid: list[NormalDynamicsParams], amplitude: float, omega: float, T: float,
           dt: float):
    """Proposition 3's lanes (one shared sinusoidal rest point) and their judge."""
    # The judge's Lyapunov-rate stencil spans five samples, i.e. four steps.
    n = int(math.ceil(T / dt)) if 0.0 < T < math.inf else 0  # false for NaN
    if n < 4:
        raise ValueError(f"proposition 3 duration T must be finite, > 0 and span at least "
                         f"4 steps of {dt} s, got {T}")
    prof = XeProfile("sinusoid", base=0.0, amplitude=amplitude, omega=omega)
    zeros = [0.0] * len(grid)
    lanes = _Lanes(dt, [n] * len(grid), [p.m for p in grid], [p.d for p in grid],
                   [p.k_e for p in grid], [p.f_H for p in grid], zeros,
                   [-p.f_H / p.k_e for p in grid], zeros, moving=prof)

    @np.errstate(over="ignore", invalid="ignore")  # a run too large to judge fails
    def judge(run):
        t = np.arange(n + 1) * dt
        # The rest-point profile is shared by every point.
        x_e, v_e, a_e = prof.value(t), prof.vel(t), prof.acc(t)
        reports = []
        for p, (x, v) in zip(grid, run):
            e = x - (x_e - p.f_H / p.k_e)
            edot = v - v_e
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

    return lanes, judge


def verify_prop3_grid(grid: list[NormalDynamicsParams] | None = None,
                      amplitude: float = 0.005, omega: float = 2.0 * math.pi,
                      T: float = 60.0, dt: float = 1e-3) -> list[VerificationReport]:
    """ISS under the sinusoidal rest point amplitude*sin(omega t): bounded error
    states, the sampled Lyapunov rate satisfies V' <= -d e'^2 + u^2/(4d), and
    V' <= 0 whenever |e'| >= |u|/(2d).

    Every point starts at rest at the equilibrium of the t = 0 rest point and
    shares the sinusoid; the grid is integrated as one batch. The error states
    are relative to the moving rest point, so they do not depend on its base,
    and every point is integrated around base 0. T must be finite and span at
    least four steps of dt (ValueError otherwise).
    """
    lanes, judge = _prop3(default_grid() if grid is None else grid, amplitude, omega, T, dt)
    return judge(_integrate([lanes])[0])


def run_default_verification(prop3_T: float = 60.0,
                             grid: list[NormalDynamicsParams] | None = None
                             ) -> list[VerificationReport]:
    """All four checks over the parameter grid (one report per check per point).

    Propositions 1, 2 and 3 integrate as one lane table: one RK4 loop runs
    every point of every proposition, each up to its own horizon.
    """
    if grid is None:
        grid = default_grid()
    # Each proposition with the defaults of its public function.
    props = [_prop1(grid, x0_offset=0.02, v0=0.0, T=None, dt=5e-4),
             _prop2(grid, v0=0.05, T=None, dt=1e-4),
             _prop3(grid, amplitude=0.005, omega=2.0 * math.pi, T=prop3_T, dt=1e-3)]
    runs = _integrate([lanes for lanes, _ in props])
    reports = [rep for (_, judge), run in zip(props, runs) for rep in judge(run)]
    for p in grid:
        cfg = AdmittanceConfig(mass=p.m, stiffness=CONTROLLER_K,
                               damping_ratio=DAMPING_RATIO, target_force=p.f_H,
                               enable_normal_regulation=True)
        env = SpringContact(p.k_e, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        reports.append(equivalence_check(cfg, env))
    return reports
