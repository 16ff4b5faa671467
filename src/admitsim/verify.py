"""Numerical certification of the normal-direction stability claims.

The verifier solves the bilateral closed-loop normal dynamics

    m x'' + 2 d x' = f_ext - f_H        with f_ext = k_e (x_e - x)   (in contact)
    m x'' + 2 d x' = -f_H                                           (contact lost)

and checks three properties: convergence to the force/position equilibrium,
velocity convergence after contact loss, and input-to-state stability under a
moving rest point: the ISS error bound and the Lyapunov-rate inequality from
the ISS proof, whose right side is computed so that it implies V' <= 0
wherever the velocity error dominates the disturbance.

One law covers every case: m x'' + 2d x' + k_e x = k_e x_e(t) - f_H, with the
rest point x_e at the origin for proposition 1 (the propositions are
translation-invariant), the sinusoid x_e = A sin(omega t) shared by the points
of proposition 3, and k_e = 0 for proposition 2 (contact lost, f_ext = 0).
Every lane of it, one grid point of one proposition (`_Prop1`, `_Prop2`,
`_Prop3`), is linear and time-invariant with a constant or sinusoidal forcing,
so `_Solution` samples its exact solution at the steps k dt of its own
horizon, every value a function of k alone. Each lane's judge takes its rows a
chunk of steps at a time and keeps only the maxima, `all`s and final values
its report needs, and proposition 2 a late window of at most JUDGE_CHUNK rows,
so the verifier's memory does not grow with the horizon; the reports equal,
bit for bit, those of one chunk per lane. A lane whose rows are not finite
ends the run with NonFiniteState("verifier integration diverged").

The equivalence check instead mirrors the controller's semi-implicit scheme
step for step, because its purpose is the algebraic identity between the full
vector pipeline and the reduced scalar law.

All four checks size their horizons by one rule, `_steps`: ceil(T / dt) steps,
where T and dt must be finite and > 0 and the count must lie between the
check's least step count and MAX_LANE_STEPS; anything else is ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .admittance import (
    AdmittanceConfig,
    ControllerCommand,
    ControllerState,
    _radial_deadband,
    controller_tick,
)
from .errors import NonFiniteState, check_distinct, check_finite, check_range
from .geometry import _normalize, dot3, vec3

TOL_X = 1e-4          # m, equilibrium position tolerance
TOL_V = 1e-4          # m/s, steady-velocity tolerance
TOL_F_REL = 0.01      # fraction of f_H, force tolerance
LYAP_SLACK = 1e-6     # normalized Lyapunov slack
EQUIV_TOL = 1e-9      # m per step, pipeline vs reduced law


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """The math function fn at each value of the array x.

    Every value comes from libm, as a Python float would, and not from the
    array loop numpy dispatches to on the host's CPU, which may round
    differently; so the verification outputs depend on libm alone.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class NormalDynamicsParams:
    """One point of the normal dynamics, its contact rest point at the origin
    (the propositions are translation-invariant)."""

    m: float
    d: float
    k_e: float
    f_H: float

    def __post_init__(self):
        for name in ("m", "d", "k_e"):
            check_range(name, getattr(self, name))
        check_range("f_H", self.f_H, closed=True)
        if not self.d * self.d < math.inf:  # time_constant's d ** 2 would overflow
            raise ValueError(f"d ** 2 must be finite, got d = {self.d}")

    def equilibrium(self) -> float:
        return 0.0 - self.f_H / self.k_e

    def time_constant(self) -> float:
        """1 / |Re(slowest pole)| of m s^2 + 2 d s + k_e."""
        disc = self.d ** 2 - self.m * self.k_e
        if disc <= 0.0:
            return self.m / self.d
        slow = (self.d - math.sqrt(disc)) / self.m
        # m k_e below the rounding of d^2: the slow pole rounds to 0, and no
        # horizon of its time constants is finite.
        return 1.0 / slow if slow else math.inf


@dataclass
class VerificationReport:
    proposition: str
    params: dict
    measured: dict
    tolerances: dict
    passed: bool


# A lane takes at most this many steps, the int32 range: a boundary of the
# interface, not of the host, since the judges take the rows in chunks and the
# verifier's memory does not grow with the horizon.
MAX_LANE_STEPS = 2 ** 31 - 1

def _steps(horizon: str, T: float, dt: float, least: int = 1) -> int:
    """ceil(T / dt), where horizon names T: ValueError unless T and dt are finite
    and > 0 and the count is in [least, MAX_LANE_STEPS]."""
    check_range("dt", dt)
    q = T / dt if 0.0 < T < math.inf else 0.0  # false for NaN
    n = math.ceil(q) if q < math.inf else q  # a tiny dt can overflow T / dt
    if n > MAX_LANE_STEPS:
        raise ValueError(f"{horizon} needs {float(n)} steps of {dt} s, more than the "
                         f"{MAX_LANE_STEPS} one check may take; shorten it")
    if n < least:
        raise ValueError(f"{horizon} must be finite, > 0 and span at least {least} "
                         f"step{'s' * (least > 1)} of {dt} s, got {T}")
    return n


# Rows of a lane fed to its judge at a time: 4096 rows of x and v take 64 kB.
JUDGE_CHUNK = 4096

# Steps per block of a lane's exponential tables: its e^{lambda k dt} is the
# head e^{lambda q EXP_BLOCK dt} of the block q = k // EXP_BLOCK times the table
# entry e^{lambda j dt}, j = k % EXP_BLOCK, each from _libm, so every row is a
# function of k alone, whatever the chunk it is judged in.
EXP_BLOCK = 1024


def _exp(rate: float, beta: float, t: np.ndarray) -> tuple:
    """e^{(rate + i beta) t} at the times t, through _libm, as its real and
    imaginary parts; the imaginary part is None when beta is 0."""
    e = _libm(math.exp, rate * t)
    if not beta:
        return e, None
    return e * _libm(math.cos, beta * t), e * _libm(math.sin, beta * t)


class _Solution:
    """The exact solution of one lane (`_Prop1`, `_Prop2` or `_Prop3`) at its
    steps k.

    The lane's law m x'' + 2d x' + k_e x = k_e x_e(t) - f_H has a particular
    solution p: the rest -f_H / k_e, or the ramp -f_H / (2d) t when k_e = 0,
    plus A Im(G e^{i omega t}) under a sinusoidal rest point, with
    G = k_e / (k_e - m omega^2 + 2i omega d). With alpha = -d/m, the start
    state's offsets y0 = x0 - p(0) and w0 = v0 - p'(0), and f and g the
    homogeneous solutions with (f, f')(0) = (1, alpha) and (g, g')(0) = (0, 1),

        x = p + y0 f + (w0 - alpha y0) g,   v = p' + w0 f + (alpha w0 - (k_e/m) y0) g.

    With beta = sqrt(|d^2 - m k_e|) / m, f = e^{alpha t} C and g = e^{alpha t} S:
    (C, S) is (cos beta t, sin beta t / beta) for complex roots, from
    Z = e^{(alpha + i beta) t}; (cosh, sinh / beta) for real roots, as
    ((E1 + E2) / 2, (E1 - E2) / (2 beta)) with E1,2 = e^{(alpha +- beta) t}, so
    nothing overflows; and (1, t) when d^2 == m k_e exactly. Where d^2 and
    m k_e both round to 0, that tie is not the law's, and the lane is refused
    (ValueError).

    Each root's e^{lambda k dt} is head[k // EXP_BLOCK] * table[k % EXP_BLOCK]
    (`_exp`), in float64 columns with one ufunc per operation: numpy's complex
    multiply may fuse its operations, and rounds differently on some hosts.
    """

    def __init__(self, lane):
        (m, d, k_e, f_H), (x0, v0), n = lane.law, lane.start, lane.n
        alpha, disc = -d / m, d * d - m * k_e
        if disc == 0.0 and d * d == 0.0:
            raise ValueError(f"d = {d} is too small to solve: d^2 and m k_e (m = {m}, "
                             f"k_e = {k_e}) both round to 0, so the roots cannot be told apart")
        self.beta = beta = math.sqrt(abs(disc)) / m
        self.dt, self.disc = lane.dt, disc
        if not math.isfinite(beta * (n * self.dt)):  # past what cos and sin take
            raise NonFiniteState("verifier integration diverged")
        self.rest = -f_H / k_e if k_e else 0.0
        self.ramp = 0.0 if k_e else -f_H / (2.0 * d)
        # p's wave: x gains ps sin + pc cos of omega t, and v gains vs sin + vc cos.
        ps = pc = vs = vc = 0.0
        if lane.sinusoid is not None:
            amp, omega = lane.sinusoid
            a, b = k_e - m * omega ** 2, 2.0 * omega * d
            den = a * a + b * b
            ps, pc = amp * (k_e * a / den), amp * (-k_e * b / den)
            vs, vc = -omega * pc, omega * ps
        self.wave = (ps, pc, vs, vc)
        y0 = x0 - (self.rest + pc)
        w0 = v0 - (self.ramp + vc)
        self.cx = (y0, w0 - alpha * y0)
        self.cv = (w0, alpha * w0 - k_e / m * y0)
        # The roots as (rate, beta) of e^{(rate + i beta) t}, beta 0 if real.
        self.roots = ([(alpha, beta)] if disc < 0.0 else [(alpha, 0.0)] if disc == 0.0
                      else [(alpha + beta, 0.0), (alpha - beta, 0.0)])
        j = np.arange(min(EXP_BLOCK, n + 1)) * self.dt
        self.tables = [_exp(rate, b, j) for rate, b in self.roots]

    def rows(self, k: np.ndarray, t: np.ndarray, wave: np.ndarray | None) -> tuple:
        """(x, v) at the consecutive steps k, at the times t = k dt; wave is
        (sin, cos) of omega t under a sinusoidal rest point."""
        q, j = np.divmod(k, EXP_BLOCK)
        q0 = q[0]
        tq = (np.arange(q0, q[-1] + 1) * EXP_BLOCK) * self.dt
        q = q - q0
        powers = []
        for (rate, b), (tr, ti) in zip(self.roots, self.tables):
            hr, hi = _exp(rate, b, tq)
            hr, tr = hr[q], tr[j]
            if b:
                hi, ti = hi[q], ti[j]
                powers += [hr * tr - hi * ti, hr * ti + hi * tr]
            else:
                powers.append(hr * tr)
        if self.disc < 0.0:
            f, g = powers[0], powers[1] / self.beta
        elif self.disc > 0.0:
            f, g = (powers[0] + powers[1]) * 0.5, (powers[0] - powers[1]) / (2.0 * self.beta)
        else:
            f, g = powers[0], t * powers[0]
        x = (self.rest + self.ramp * t) + (self.cx[0] * f + self.cx[1] * g)
        v = self.ramp + (self.cv[0] * f + self.cv[1] * g)
        if wave is not None:
            (sin_wt, cos_wt), (ps, pc, vs, vc) = wave, self.wave
            x = x + (ps * sin_wt + pc * cos_wt)
            v = v + (vs * sin_wt + vc * cos_wt)
        return x, v


def _integrate(lanes: list, chunk: int | None = None) -> list[VerificationReport]:
    """The exact rows of every lane (`_Solution`), each lane's judge taking its
    rows a chunk at a time; the lanes' reports, in order.

    The lanes of one call share dt and the rest point. A lane's rows (x, v) at
    its steps 0..n go to its `feed(lo, x, v, rest)` `chunk` rows (default
    JUDGE_CHUNK) at a time and in order: x and v are the 1-D rows from `lo`,
    and rest is the (3, rows) array of the rest point A sin(omega t), its
    velocity and its acceleration at those rows under a sinusoidal rest
    point, else None. Every lane's solution is built before any row, and
    every chunk is checked for finiteness before the judge sees it
    (NonFiniteState).
    """
    chunk = JUDGE_CHUNK if chunk is None else chunk
    solutions = [_Solution(lane) for lane in lanes]
    last = max((lane.n for lane in lanes), default=-1)
    # A diverging lane is reported once, by the finiteness check, and a run too
    # large to judge fails.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, last + 1, chunk):
            k = np.arange(lo, min(lo + chunk, last + 1))
            t = k * lanes[0].dt
            wave = rest = None
            if lanes[0].sinusoid is not None:
                amp, omega = lanes[0].sinusoid
                wt = omega * t
                sin_wt, cos_wt = wave = np.array([_libm(math.sin, wt), _libm(math.cos, wt)])
                # The shared rest point, its velocity and its acceleration.
                rest = np.array([0.0 + amp * sin_wt, amp * omega * cos_wt,
                                 -amp * omega ** 2 * sin_wt])
            for lane, solution in zip(lanes, solutions):
                rows = lane.n + 1 - lo
                if rows <= 0:
                    continue
                x, v = solution.rows(k[:rows], t[:rows], None if wave is None else wave[:, :rows])
                if not (np.isfinite(x).all() and np.isfinite(v).all()):
                    raise NonFiniteState("verifier integration diverged")
                lane.feed(lo, x, v, None if rest is None else rest[:, :rows])
        return [lane.report() for lane in lanes]


class _Prop2:
    """Proposition 2 at one grid point (contact lost: k_e = 0) and its judge.

    The judge keeps the largest gap to the analytic solution, the last
    velocity and the late window of the slope fit, at most JUDGE_CHUNK rows.
    """

    def __init__(self, p: NormalDynamicsParams, v0: float, T: float | None = None,
                 dt: float = 1e-4):
        check_finite("v0", v0)
        self.T = 20.0 * p.m / (2.0 * p.d) if T is None else T
        self.n = _steps("proposition 2 horizon T", self.T, dt)
        self.p, self.v0, self.dt, self.sinusoid = p, v0, dt, None
        self.law, self.start = (p.m, p.d, 0.0, p.f_H), (0.0, float(v0))
        self.v_inf = -p.f_H / (2.0 * p.d)
        # Late window: the last tenth of the rows, 2 to JUDGE_CHUNK of them.
        self.tail_start = max(min(int(0.9 * self.n), self.n - 1), self.n + 1 - JUDGE_CHUNK)
        self.tail = np.full(self.n + 1 - self.tail_start, np.nan)  # NaN until fed
        self.max_err, self.v_last = -np.inf, 0.0

    def feed(self, lo, x, v, rest):
        m, d, _, _ = self.law
        t = np.arange(lo, lo + len(x)) * self.dt
        analytic = self.v_inf + (self.v0 - self.v_inf) * _libm(math.exp, -2.0 * d * t / m)
        self.max_err = np.maximum(self.max_err, np.abs(v - analytic).max())
        self.v_last = v[-1]
        i = lo - self.tail_start  # the chunk's first row in the window
        if i + len(x) > 0:
            self.tail[max(i, 0):i + len(x)] = x[max(-i, 0):]

    def report(self) -> VerificationReport:
        p, v_inf, v_final = self.p, self.v_inf, self.v_last
        max_err = float(self.max_err)
        # The position slope over the late window equals the steady velocity
        # (linear drive toward the environment). It is the least-squares slope
        # of x on the step k, both centred, per dt: elementwise ufuncs and
        # sums, no LAPACK call, so its bits do not depend on the host's BLAS.
        k = np.arange(len(self.tail)) - (len(self.tail) - 1) / 2  # centred exactly
        x = self.tail - self.tail.mean()
        slope = float((k * x).sum()) / float((k * k).sum()) / self.dt
        v_err = abs(v_final - v_inf)
        passed = v_err < TOL_V and max_err < 1e-5 and abs(slope - v_inf) < 10 * TOL_V
        return VerificationReport(
            "prop2",
            {"m": p.m, "d": p.d, "f_H": p.f_H, "v0": self.v0, "T": self.T, "dt": self.dt},
            {"v_final": float(v_final), "v_err": float(v_err), "analytic_max_err": max_err,
             "late_slope": slope},
            {"tol_v": TOL_V, "analytic_tol": 1e-5},
            bool(passed),
        )


def verify_prop2(grid: list[NormalDynamicsParams], v0: float,
                 **options) -> list[VerificationReport]:
    """Contact lost (f_ext = 0): velocity converges to -f_H/(2d); the whole
    trajectory matches the analytic first-order solution.

    Every point starts at velocity v0 and runs for T (default: 20 m/(2d),
    twenty of its own velocity time constants) in steps of dt; `options` (T,
    dt) default to `_Prop2`'s. Each point is solved up to its own horizon and
    judged on its own.
    """
    return _integrate([_Prop2(p, v0, **options) for p in grid])


def equivalence_check(cfg: AdmittanceConfig, k_e: float, n=(0.0, 0.0, 1.0), T: float = 2.0,
                      dt: float = 1e-3) -> VerificationReport:
    """Full vector pipeline vs the reduced scalar law, matched step for step.

    Both sides integrate with the controller's semi-implicit scheme at the same
    dt against the same bilateral spring of stiffness k_e, its rest point at the
    origin and its outward normal n, deadbanded identically; motion and forces
    are restricted to the normal axis. Both start at rest on the surface and are
    commanded 2 mm into it. The per-step position gap along n certifies the
    algebraic reduction of the commanded-force law.
    """
    check_range("k_e", k_e)
    n = _normalize(vec3("n", n))
    n0, n1, n2 = n
    cfg = replace(cfg, enable_normal_regulation=True)
    x_n = v_n = 0.0
    x_c = -0.002
    state = ControllerState((x_n * n0, x_n * n1, x_n * n2), (v_n * n0, v_n * n1, v_n * n2))
    cmd = ControllerCommand(x_cmd=(x_c * n0, x_c * n1, x_c * n2), gripper=1.0, n=n, c=1)
    steps = _steps("equivalence horizon T", T, dt)
    band, f_H, m, two_d = cfg.force_deadband, cfg.target_force, cfg.mass, 2.0 * cfg.damping
    x_p = dot3(state.x_r, n)  # the pipeline's position along n
    max_gap = 0.0
    for _ in range(steps):
        # Vector pipeline with the bilateral spring along n.
        f = k_e * (0.0 - x_p)
        state = controller_tick(state, cmd, (f * n0, f * n1, f * n2), dt, cfg).state
        x0, x1, x2 = state.x_r
        x_p = x0 * n0 + x1 * n1 + x2 * n2
        # Reduced law: m x'' + 2 d x' = f_ext,n - f_H, same scheme and deadband.
        f = k_e * (0.0 - x_n)
        g0, g1, g2 = _radial_deadband((f * n0, f * n1, f * n2), band)
        a_n = (g0 * n0 + g1 * n1 + g2 * n2 - f_H - two_d * v_n) / m
        v_n = v_n + dt * a_n
        x_n = x_n + dt * v_n
        gap = abs(x_p - x_n)
        if gap > max_gap:  # max(max_gap, gap), NaN included
            max_gap = gap
    passed = max_gap < EQUIV_TOL
    return VerificationReport(
        "equivalence",
        {"m": cfg.mass, "d": cfg.damping, "k": cfg.stiffness, "f_H": cfg.target_force,
         "k_e": k_e, "T": T, "dt": dt},
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


def default_grid(m=GRID_M, k_e=GRID_KE, f_h=GRID_FH,
                 d: float | None = None) -> list[NormalDynamicsParams]:
    """The m x k_e x f_H grid, one axis per argument; d defaults to the
    controller's over-damped rule. An axis that is empty, or repeats a value,
    is a ValueError naming the axis: an empty grid would pass with no check,
    and each check of a repeated point would run, and be reported, twice."""
    for name, axis in (("m", m), ("k_e", k_e), ("f_h", f_h)):
        check_distinct(name, axis)
    grid = []
    for m_i in m:
        check_range("m", m_i)  # before the damping rule's AdmittanceConfig calls it mass
        d_m = AdmittanceConfig(mass=m_i).damping if d is None else d
        for k_e_j in k_e:
            for f_H in f_h:
                grid.append(NormalDynamicsParams(m_i, d_m, k_e_j, f_H))
    return grid


class _Prop1:
    """Proposition 1 at one grid point and its judge.

    The judge keeps the Lyapunov reference V[0], the last V (for the
    difference across a chunk edge), whether V has decreased so far and the
    last position.
    """

    def __init__(self, p: NormalDynamicsParams, x0_offset: float = 0.02, v0: float = 0.0,
                 T: float | None = None, dt: float = 5e-4):
        check_finite("x0_offset", x0_offset)
        check_finite("v0", v0)
        self.eq = p.equilibrium()
        self.T = 20.0 * p.time_constant() if T is None else float(T)
        self.n = _steps("proposition 1 horizon T", self.T, dt)
        self.p, self.dt, self.sinusoid = p, dt, None
        self.law, self.start = (p.m, p.d, p.k_e, p.f_H), (self.eq + x0_offset, float(v0))
        self.v_ref = self.V_last = self.x_last = 0.0
        self.lyap_ok = True

    def feed(self, lo, x, v, rest):
        m, _, k_e, _ = self.law
        e = x - self.eq
        V = 0.5 * m * v ** 2 + 0.5 * k_e * e ** 2
        if lo == 0:
            self.v_ref = np.maximum(V[0], 1e-12)
        else:
            V = np.concatenate([[self.V_last], V])
        # V may not rise from a sample outside the slack band.
        slack = LYAP_SLACK * self.v_ref
        rises = (V[:-1] > slack) & ~(np.diff(V) <= slack)
        self.lyap_ok = self.lyap_ok and not rises.any()
        self.V_last, self.x_last = V[-1], x[-1]

    def report(self) -> VerificationReport:
        p, x_final, lyap_ok = self.p, self.x_last, self.lyap_ok
        f_final = p.k_e * (0.0 - x_final)
        x_err = abs(float(x_final) - self.eq)
        f_err = abs(f_final - p.f_H)
        tol_f = max(TOL_F_REL * p.f_H, 1e-6)  # absolute floor for the f_H = 0 case
        passed = x_err < TOL_X and f_err <= tol_f and lyap_ok
        return VerificationReport(
            "prop1",
            {"m": p.m, "d": p.d, "k_e": p.k_e, "f_H": p.f_H, "T": self.T, "dt": self.dt},
            {"x_final": float(x_final), "x_err": float(x_err), "f_final": float(f_final),
             "f_err": float(f_err), "lyapunov_monotone": lyap_ok},
            {"tol_x": TOL_X, "tol_f": tol_f, "lyap_slack": LYAP_SLACK},
            bool(passed),
        )


def verify_prop1_grid(grid: list[NormalDynamicsParams] | None = None,
                      **options) -> list[VerificationReport]:
    """Disturbance-free convergence to -f_H/k_e with f_ext -> f_H, plus
    monotone decrease of V = 0.5 m e'^2 + 0.5 k_e e^2 outside a slack band.

    Every point starts x0_offset from its equilibrium at velocity v0 and runs
    for T (default: 20 of its own time constants) in steps of dt; `options`
    (x0_offset, v0, T, dt) default to `_Prop1`'s. Each point is solved up to
    its own horizon.
    """
    return _integrate([_Prop1(p, **options) for p in
                       (default_grid() if grid is None else grid)])


# Proposition 3's default duration and step, s.
PROP3_T, PROP3_DT = 60.0, 1e-3


def _iss_bound(p: NormalDynamicsParams, amplitude: float, omega: float) -> tuple:
    """(sup |u|, error bound) of p under amplitude * sin(omega t); OverflowError
    or ZeroDivisionError past the float range."""
    sup_u = amplitude * math.sqrt((p.m * omega ** 2) ** 2 + (2.0 * p.d * omega) ** 2)
    # Operational bound: forced amplitude from the frequency response plus
    # the free response from the initial velocity mismatch, with headroom.
    H = 1.0 / math.sqrt((p.k_e - p.m * omega ** 2) ** 2 + (2.0 * p.d * omega) ** 2)
    return sup_u, 2.0 * (H * sup_u + amplitude * omega * math.sqrt(p.m / p.k_e))


class _Prop3:
    """Proposition 3 at one grid point (under the sinusoidal rest point) and
    its judge.

    The judge keeps the maxima of the error, of the steady-state error, of
    |rhs| and of V' - rhs, and the last four samples of V, e' and u, over
    which the Lyapunov-rate stencil continues into the next chunk.
    """

    def __init__(self, p: NormalDynamicsParams, amplitude: float = 0.005,
                 omega: float = 2.0 * math.pi, T: float = PROP3_T, dt: float = PROP3_DT):
        check_finite("amplitude", amplitude)
        check_finite("omega", omega)
        try:
            self.sup_u, self.bound = _iss_bound(p, amplitude, omega)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"proposition 3's bound leaves the float range: omega ** 2 or a "
                             f"term of the bound overflows or rounds to 0 at m = {p.m}, "
                             f"d = {p.d}, k_e = {p.k_e}, got amplitude {amplitude}, "
                             f"omega {omega}") from None
        # The judge's Lyapunov-rate stencil spans five samples, i.e. four steps.
        self.n = _steps("proposition 3 duration T", T, dt, least=4)
        self.p, self.T, self.dt, self.sinusoid = p, T, dt, (amplitude, omega)
        self.law, self.start = (p.m, p.d, p.k_e, p.f_H), (-p.f_H / p.k_e, 0.0)
        self.sup_e = self.sup_e_ss = self.rhs_max = self.resid_max = -np.inf
        self.tail = np.empty((3, 0))  # the last (up to) four samples of V, e' and u

    def feed(self, lo, x, v, rest):
        n, dt = self.n, self.dt
        m, d, k_e, f_H = self.law
        hi = lo + len(x)
        x_e, v_e, a_e = rest
        e = x - (x_e - f_H / k_e)
        edot = v - v_e
        u = -(m * a_e + 2.0 * d * v_e)
        abs_e = np.abs(e)
        self.sup_e = np.maximum(self.sup_e, abs_e.max())
        # Steady-state error: the second half, long after the transients.
        if n // 2 < hi:
            self.sup_e_ss = np.maximum(self.sup_e_ss, abs_e[max(n // 2 - lo, 0):].max())
        V = 0.5 * m * edot ** 2 + 0.5 * k_e * e ** 2
        # The window of the stencil: the samples of the chunk after the (up
        # to) four before it.
        window = np.concatenate([self.tail, [V, edot, u]], axis=1)
        self.tail = window[:, -4:].copy()
        if window.shape[1] < 5:
            return
        V, edot, u = window
        # Sampled Lyapunov rate via 4th-order central differences.
        Vdot = (V[:-4] - 8.0 * V[1:-3] + 8.0 * V[3:-1] - V[4:]) / (12.0 * dt)
        edot, u = edot[2:-2], u[2:-2]
        # -d e'^2 + u^2 / (4d) as -d (a - b)(a + b): its sign cannot round wrong.
        a, b = np.abs(edot), np.abs(u) / (2.0 * d)
        rhs = -d * ((a - b) * (a + b))
        self.rhs_max = np.maximum(self.rhs_max, np.abs(rhs).max())
        self.resid_max = np.maximum(self.resid_max, (Vdot - rhs).max())

    def report(self) -> VerificationReport:
        p, (amplitude, omega) = self.p, self.sinusoid
        p_ref = float(self.rhs_max) + 1e-12
        ineq_resid = float(self.resid_max)
        sup_e, sup_e_ss = float(self.sup_e), float(self.sup_e_ss)
        # The residual implies V' <= 0 where |e'| >= |u|/(2d): there a - b
        # rounds to at least +0, so rhs <= 0 exactly, fl(V' - rhs) >= V', and
        # a residual within the slack holds V' within the same slack.
        passed = sup_e <= self.bound and ineq_resid <= LYAP_SLACK * p_ref
        return VerificationReport(
            "prop3",
            {"m": p.m, "d": p.d, "k_e": p.k_e, "f_H": p.f_H, "A": amplitude,
             "omega": omega, "T": self.T, "dt": self.dt},
            {"sup_e": sup_e, "bound": self.bound, "sup_u": self.sup_u,
             "sup_e_steady": sup_e_ss, "ineq_residual": ineq_resid},
            {"lyap_slack": LYAP_SLACK * p_ref},
            bool(passed),
        )


def verify_prop3_grid(grid: list[NormalDynamicsParams] | None = None,
                      **options) -> list[VerificationReport]:
    """ISS under the sinusoidal rest point amplitude*sin(omega t): bounded error
    states, and the sampled Lyapunov rate satisfies V' <= -d e'^2 + u^2/(4d)
    within the slack, and so V' <= 0 (within it) whenever |e'| >= |u|/(2d).

    Every point starts at rest at the equilibrium of the t = 0 rest point and
    shares the sinusoid. The error states are relative to the moving rest
    point, so they do not depend on its base, and every point is solved around
    base 0. `options` (amplitude, omega,
    T, dt) default to `_Prop3`'s. amplitude and omega must be finite, and
    omega ** 2 and the bound must stay in the float range; T must span between
    four and MAX_LANE_STEPS steps of dt (ValueError otherwise).
    """
    return _integrate([_Prop3(p, **options) for p in
                       (default_grid() if grid is None else grid)])


def run_default_verification(prop3_T: float = PROP3_T,
                             grid: list[NormalDynamicsParams] | None = None
                             ) -> list[VerificationReport]:
    """All four checks over the parameter grid (one report per check per
    point): the three proposition functions, each with its defaults but
    proposition 2's v0 = 0.05 m/s and proposition 3's duration prop3_T, then
    the equivalence check at every point, with the point's mass and f_H and
    the damping ratio d / (2 sqrt(m k)) at the default stiffness k. Its
    controller's damping 2 ratio sqrt(m k) can differ from d in the last bit
    (m = 0.5 with d = 0.9 gives 0.8999999999999999); a point of the default
    damping rule gives a ratio of exactly 2, and runs its own d.
    """
    _steps("proposition 3 duration T", prop3_T, PROP3_DT, least=4)  # before any work
    grid = default_grid() if grid is None else grid
    reports = (verify_prop1_grid(grid) + verify_prop2(grid, v0=0.05)
               + verify_prop3_grid(grid, T=prop3_T))
    for p in grid:
        ratio = p.d / (2.0 * math.sqrt(p.m * AdmittanceConfig.stiffness))
        cfg = AdmittanceConfig(mass=p.m, damping_ratio=ratio, target_force=p.f_H)
        reports.append(equivalence_check(cfg, p.k_e))
    return reports
