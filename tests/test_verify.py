import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from admitsim.admittance import AdmittanceConfig, compute_damping
from admitsim import verify
from admitsim.errors import NonFiniteState
from admitsim.verify import (
    NormalDynamicsParams,
    default_grid,
    equivalence_check,
    run_default_verification,
    verify_prop1_grid,
    verify_prop2,
    verify_prop3_grid,
)

D_NOMINAL = compute_damping(1.0, 50.0, 2.0)


def params(m=1.0, k_e=1000.0, f_H=4.0):
    d = compute_damping(m, 50.0, 2.0)
    return NormalDynamicsParams(m, d, k_e, f_H)


def prop1(p, x0, v0=0.0, T=None):
    """Proposition 1 on a grid of one, started at the absolute position x0."""
    return verify_prop1_grid([p], x0_offset=x0 - p.equilibrium(), v0=v0, T=T)[0]


def prop3(p, amplitude, omega, T):
    return verify_prop3_grid([p], amplitude=amplitude, omega=omega, T=T)[0]


class TestProp1:
    def test_equilibrium_position(self):
        rep = prop1(params(k_e=100.0, f_H=4.0), x0=0.02, v0=0.0)
        assert rep.passed
        assert rep.measured["x_final"] == pytest.approx(-0.04, abs=1e-6)
        assert rep.measured["f_final"] == pytest.approx(4.0, abs=0.01)

    def test_zero_target_force_rests_at_surface(self):
        rep = prop1(params(k_e=100.0, f_H=0.0), x0=0.02, v0=0.0)
        assert rep.passed
        assert rep.measured["x_final"] == pytest.approx(0.0, abs=1e-6)

    def test_lyapunov_decreases(self):
        rep = prop1(params(), x0=0.05, v0=0.1)
        assert rep.measured["lyapunov_monotone"]

    def test_libm_at_each_value_of_an_array(self):
        # The solver and the judges take _libm at arrays of float times: the
        # values must be libm's, whatever numpy's loops do.
        wt = 2.0 * math.pi * (np.arange(2001) * 1e-3)
        for fn in (math.sin, math.cos):
            at_array = verify._libm(fn, wt)
            assert at_array.dtype == np.float64 and at_array.shape == wt.shape
            assert at_array.tolist() == [fn(v) for v in wt.tolist()]
        block = wt[:2000].reshape(4, 500)
        assert verify._libm(math.sin, block).tolist() == [[math.sin(v) for v in row]
                                                         for row in block.tolist()]
        x = np.linspace(-30.0, 0.0, 5001)
        assert verify._libm(math.exp, x).tolist() == [math.exp(v) for v in x.tolist()]

    def test_residual_shrinks_with_horizon(self):
        p = params(k_e=100.0)
        short = prop1(p, 0.02, 0.0, T=5.0 * p.time_constant())
        long = prop1(p, 0.02, 0.0, T=20.0 * p.time_constant())
        assert long.measured["x_err"] < short.measured["x_err"]

    def test_grid_points_independent(self):
        # A batched point reports what it reports alone (own 20-time-constant horizon).
        grid = [params(k_e=100.0), params(m=2.0, k_e=5000.0, f_H=8.0)]
        batch = verify_prop1_grid(grid, x0_offset=0.03, v0=-0.1)
        for p, rep in zip(grid, batch):
            alone = verify_prop1_grid([p], x0_offset=0.03, v0=-0.1)[0]
            assert rep.params == alone.params
            assert rep.measured == alone.measured


def prop2(p, v0, dt=1e-4):
    """Proposition 2 on a grid of one."""
    return verify_prop2([p], v0=v0, dt=dt)[0]


class TestProp2:
    def test_velocity_limit_value(self):
        rep = prop2(params(), v0=0.05)
        assert rep.passed
        assert rep.measured["v_final"] == pytest.approx(-4.0 / (2.0 * D_NOMINAL), abs=1e-6)
        assert -4.0 / (2.0 * D_NOMINAL) == pytest.approx(-0.07071067811865475)

    def test_zero_force_stays_at_rest(self):
        rep = prop2(params(f_H=0.0), v0=0.0)
        assert rep.measured["v_final"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_analytic_solution(self):
        rep = prop2(params(), v0=0.05)
        assert rep.measured["analytic_max_err"] < 1e-5

    def test_grid_points_independent(self):
        # Each point keeps its own horizon 20 m/(2d) inside a batch that runs to
        # the longest one, and reports what it reports alone.
        grid = [params(m=0.5, f_H=2.0), params(m=1.0, k_e=100.0), params(m=2.0, f_H=8.0)]
        assert len({rep.params["T"] for rep in verify_prop2(grid, v0=0.05)}) == 3
        for p, rep in zip(grid, verify_prop2(grid, v0=0.05)):
            alone = prop2(p, v0=0.05)
            assert rep.params == alone.params
            assert rep.measured == alone.measured
            assert rep.passed and alone.passed

    def test_shared_horizon_override(self):
        reps = verify_prop2([params(m=0.5), params(m=2.0)], v0=0.05, T=0.5, dt=1e-3)
        assert [rep.params["T"] for rep in reps] == [0.5, 0.5]

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 11, 40])
    def test_short_run_late_slope(self, n):
        """A run of n <= 10 steps still fits the late slope on two samples,
        the last one included: it lies between the final and the start velocity."""
        p = params()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a one-sample fit warns (RankWarning)
            (rep,) = verify_prop2([p], v0=0.05, T=n * 1e-4, dt=1e-4)
        slope, v_final = rep.measured["late_slope"], rep.measured["v_final"]
        assert v_final < slope < 0.05

    @pytest.mark.parametrize("T,dt", [(0.0, 1e-4), (-1.0, 1e-4), (math.nan, 1e-4),
                                      (math.inf, 1e-4), (5e-324, 10.0)])
    def test_horizon_under_one_step_rejected(self, T, dt):
        """ceil(T / dt) == 0 (the last case underflows) leaves no step to judge."""
        with pytest.raises(ValueError, match="horizon"):
            verify_prop2([params()], v0=0.05, T=T, dt=dt)

    def test_tiny_mass_is_a_verdict(self):
        """m = 1e-12 runs one proposition-2 step of 1e-4 s (20 time constants
        are ~4e-7 s): the late-slope fit spans that one step, past the whole
        transient, and the point fails, with no error from the fit. Solved
        exactly, propositions 1 and 3 pass."""
        tiny = params(m=1e-12, k_e=100.0, f_H=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (rep,) = verify_prop2([tiny], v0=0.05)
            reports = verify_prop1_grid([tiny]) + verify_prop3_grid([tiny], T=0.01)
        assert math.ceil(rep.params["T"] / rep.params["dt"]) == 1
        assert math.isfinite(rep.measured["late_slope"])
        assert not rep.passed
        assert [r.passed for r in reports] == [True, True]


class TestProp3:
    def test_bounded_and_inequality(self):
        rep = prop3(params(), amplitude=0.005, omega=2 * math.pi, T=20.0)
        assert rep.passed
        assert rep.measured["sup_e"] <= rep.measured["bound"]
        assert rep.measured["neg_rate_ok"]

    def test_sup_u_closed_form(self):
        p = params()
        rep = prop3(p, amplitude=0.005, omega=2 * math.pi, T=5.0)
        expected = 0.005 * math.sqrt((p.m * (2 * math.pi) ** 2) ** 2
                                     + (2 * p.d * 2 * math.pi) ** 2)
        assert rep.measured["sup_u"] == pytest.approx(expected)

    def test_zero_amplitude_reduces_to_equilibrium(self):
        rep = prop3(params(), amplitude=0.0, omega=2 * math.pi, T=5.0)
        assert rep.measured["sup_e"] < 1e-9

    def test_grid_points_independent(self):
        grid = [params(m=0.5, f_H=2.0), params(m=1.0, k_e=100.0), params(m=2.0, f_H=8.0)]
        batch = verify_prop3_grid(grid, amplitude=0.005, omega=2 * math.pi, T=5.0)
        for p, rep in zip(grid, batch):
            alone = prop3(p, amplitude=0.005, omega=2 * math.pi, T=5.0)
            assert rep.params == alone.params
            assert rep.measured == alone.measured

    def test_gain_linearity(self):
        full = prop3(params(), amplitude=0.005, omega=2 * math.pi, T=30.0)
        half = prop3(params(), amplitude=0.0025, omega=2 * math.pi, T=30.0)
        ratio = half.measured["sup_e_steady"] / full.measured["sup_e_steady"]
        assert ratio == pytest.approx(0.5, rel=0.05)

    # SHA-256 over repr() of every report of a run with a negative amplitude
    # and a non-default omega on the default grid.
    NON_DEFAULT_SHA256 = "fd175e2b76f0e15c6d62fb19b366d41240fe63ed1a6b85abfd297d70124b0086"

    def test_non_default_run_is_pinned(self):
        reports = verify_prop3_grid(T=7.0, amplitude=-0.003, omega=3.0)
        assert len(reports) == 27
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == self.NON_DEFAULT_SHA256

    @pytest.mark.parametrize("omega,T", [(1e80, 0.5), (1e154, 0.5), (1.5e154, 0.5),
                                         (1e200, 0.5), (-1e200, 0.5), (1.7e308, 60.0)])
    def test_omega_too_large_for_the_bound_is_refused(self, omega, T):
        # omega ** 2, or the square in the bound, overflows a float: refused
        # before any run, with a ValueError naming omega.
        message = (f"^proposition 3's bound leaves the float range: .*, "
                   f"omega {re.escape(str(omega))}$")
        with pytest.raises(ValueError, match=message) as exc:
            verify_prop3_grid(omega=omega, T=T)
        assert type(exc.value) is ValueError

    def test_a_bound_that_rounds_to_0_is_refused(self):
        # Every term under the bound's square root underflows, so its
        # reciprocal divides by 0: refused before any run.
        p = NormalDynamicsParams(1e-320, 1e-300, 1e-300, 2.0)
        with pytest.raises(ValueError, match="^proposition 3's bound leaves the float range"):
            verify_prop3_grid([p])

    def test_omega_below_the_overflow_runs(self):
        (rep,) = verify_prop3_grid([params()], omega=1e70, T=0.01)
        assert math.isfinite(rep.measured["bound"])


class TestEquivalence:
    def test_default_point(self):
        cfg = AdmittanceConfig(target_force=4.0, enable_normal_regulation=True)
        rep = equivalence_check(cfg, 1000.0)
        assert rep.passed
        assert rep.measured["max_step_gap"] < 1e-9

    def test_skewed_normal_axis(self):
        cfg = AdmittanceConfig(target_force=2.0, enable_normal_regulation=True)
        n = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        rep = equivalence_check(cfg, 500.0, n)
        assert rep.measured["max_step_gap"] < 1e-9

    @pytest.mark.parametrize("k_e", [math.nan, math.inf, 0.0, -5.0])
    def test_spring_stiffness_finite_and_positive(self, k_e):
        cfg = AdmittanceConfig(target_force=4.0)
        with pytest.raises(ValueError, match=f"^k_e must be finite and > 0, got {k_e}$"):
            equivalence_check(cfg, k_e)

    def test_with_tangent_stiffening_enabled(self):
        # Motion parallel to n is degenerate for the tangent projection, so the
        # stiffened pipeline falls back to isotropic gains and still reduces.
        cfg = AdmittanceConfig(target_force=4.0, enable_normal_regulation=True,
                               enable_tangent_stiffening=True)
        rep = equivalence_check(cfg, 1000.0)
        assert rep.measured["max_step_gap"] < 1e-9

    def test_deterministic(self):
        cfg = AdmittanceConfig(target_force=4.0, enable_normal_regulation=True)
        a = equivalence_check(cfg, 1000.0)
        b = equivalence_check(cfg, 1000.0)
        assert a.measured == b.measured


def test_default_grid_is_27_points():
    grid = default_grid()
    assert len(grid) == 27
    ms = {p.m for p in grid}
    assert ms == {0.5, 1.0, 2.0}
    for p in grid:
        assert p.d == pytest.approx(compute_damping(p.m, 50.0, 2.0))


def test_empty_grid_gives_no_reports():
    """An empty grid is not the default grid: it has no points to report on,
    and no lane to check an option."""
    assert verify_prop1_grid([]) == []
    assert verify_prop2([], v0=0.05) == []
    assert verify_prop3_grid([]) == []
    assert verify_prop2([], v0=math.nan) == []


@pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0, 0.002, 0.003])
def test_prop3_horizon_must_be_finite_and_positive(T):
    with pytest.raises(ValueError):
        verify_prop3_grid([params()], T=T)
    with pytest.raises(ValueError):
        run_default_verification(prop3_T=T, grid=[params()])


@pytest.mark.parametrize("T,dt,message", [
    (T, 1e-3, "equivalence horizon T must be finite, > 0 and span at least 1 step")
    for T in (0.0, -1.0, math.inf, math.nan)
] + [(2.0, dt, "dt must be finite and > 0") for dt in (math.nan, 0.0)])
def test_equivalence_horizon_must_be_finite_and_positive(T, dt, message):
    with pytest.raises(ValueError, match=f"^{message}") as exc:
        equivalence_check(AdmittanceConfig(target_force=4.0), 1000.0, T=T, dt=dt)
    assert type(exc.value) is ValueError


class TestOneBatch:
    """run_default_verification is the three proposition functions and the
    equivalence check."""

    # SHA-256 over repr() of every report of run_default_verification on a
    # one-point grid with a 5 s proposition 3: every measured field of the
    # four checks with their defaults, not only the CSV's columns.
    ONE_POINT_SHA256 = "df8e58b9a5734a318bc78cde9bf2122ee7e3c34086c2afb131c96f6d097ccf21"

    def test_one_point_run_is_pinned(self):
        reports = run_default_verification(prop3_T=5.0, grid=[params()])
        assert [r.proposition for r in reports] == ["prop1", "prop2", "prop3", "equivalence"]
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == self.ONE_POINT_SHA256

    @pytest.mark.parametrize("name,kwargs", [
        ("verify_prop1_grid", {}),
        ("verify_prop2", {"v0": 0.05}),
        ("verify_prop3_grid", {"T": 5.0}),
    ])
    def test_runs_each_proposition_function_once(self, monkeypatch, name, kwargs):
        # Called through its module-level name, on the whole grid, with its
        # defaults but proposition 2's v0 and proposition 3's duration.
        grid = [params()]
        calls = []
        real = getattr(verify, name)

        def traced(g, **kw):
            calls.append((g, kw))
            return real(g, **kw)

        monkeypatch.setattr(verify, name, traced)
        run_default_verification(prop3_T=5.0, grid=grid)
        assert calls == [(grid, kwargs)]

    def test_equivalence_runs_the_points_damping(self, monkeypatch):
        # Off the default rule's 28.28 at m = 1: each controller has the point's d.
        damping, real = [], verify.equivalence_check

        def traced(cfg, k_e):
            damping.append(cfg.damping)
            return real(cfg, k_e)

        monkeypatch.setattr(verify, "equivalence_check", traced)
        run_default_verification(prop3_T=5.0, grid=default_grid(d=30.0))
        assert len(damping) == 27 and all(abs(d - 30.0) <= math.ulp(30.0) for d in damping)


def test_default_grid_axes_and_damping():
    grid = default_grid(m=(1.0,), k_e=(100.0, 500.0), f_h=(4.0,))
    assert [(p.m, p.k_e, p.f_H) for p in grid] == [(1.0, 100.0, 4.0), (1.0, 500.0, 4.0)]
    assert all(p.d == compute_damping(1.0, 50.0, 2.0) for p in grid)
    assert {p.d for p in default_grid(m=(0.5, 2.0), d=3.0)} == {3.0}


@pytest.mark.parametrize("m,d,k_e,f_H", [
    (1.0, 0.0, 100.0, 1.0), (1.0, 1.0, 100.0, -1.0),
    (math.nan, 1.0, 100.0, 1.0), (math.inf, 1.0, 100.0, 1.0),
    (1.0, math.nan, 100.0, 1.0), (1.0, math.inf, 100.0, 1.0),
    (1.0, 1.0, math.nan, 1.0), (1.0, 1.0, math.inf, 1.0),
    (1.0, 1.0, 100.0, math.nan), (1.0, 1.0, 100.0, math.inf),
])
def test_params_validation(m, d, k_e, f_H):
    with pytest.raises(ValueError):
        NormalDynamicsParams(m, d, k_e, f_H)


def test_time_constant_of_complex_poles_is_m_over_d():
    # d^2 < m k_e: both poles have real part -d/m.
    assert NormalDynamicsParams(1.0, 2.0, 100.0, 0.0).time_constant() == 0.5


def test_time_constant_of_real_poles_is_the_slow_poles():
    # s^2 + 20 s + 36 has poles -2 and -18: the slow one sets the horizon.
    assert NormalDynamicsParams(1.0, 10.0, 36.0, 0.0).time_constant() == 0.5


class TestChunkedJudges:
    """The judges take each lane's rows a chunk at a time; the reports do not
    depend on the chunk size."""

    GRID = [params(m=0.5, k_e=1000.0, f_H=4.0), params(m=1.0, k_e=300.0, f_H=0.0),
            params(m=2.0, k_e=5000.0, f_H=8.0)]

    def props(self):
        # Short, ragged horizons: proposition 1 runs 100, 676 and 200 steps,
        # proposition 2 250, 354 and 500, and proposition 3 200 each.
        grid = self.GRID
        return [[verify._Prop1(p, x0_offset=0.02, v0=0.0, T=None, dt=5e-3) for p in grid],
                [verify._Prop2(p, v0=0.05, T=None, dt=1e-3) for p in grid],
                [verify._Prop3(p, amplitude=0.005, omega=2.0 * math.pi, T=0.2, dt=1e-3)
                 for p in grid]]

    @staticmethod
    def as_data(reports):
        return [(r.proposition, r.params, r.measured, r.tolerances, r.passed) for r in reports]

    def integrate(self, chunk=None):
        return self.as_data([rep for lanes in self.props()
                             for rep in verify._integrate(lanes, chunk)])

    def test_reports_equal_at_every_chunk_size(self):
        longest = max(lane.n for lanes in self.props() for lane in lanes)
        assert longest == 676
        whole = self.integrate(chunk=longest + 1)
        assert len(whole) == 9
        for chunk in (1, 2, 3, 4, 5, 6, 7, 101):
            assert self.integrate(chunk=chunk) == whole, chunk
        assert self.integrate() == whole

    def test_chunks_that_span_exponential_blocks(self):
        # 5000 steps at 1 ms cross EXP_BLOCK four times: a 4096-row chunk
        # spans four blocks, and 1000-row chunks end inside them.
        def integrate(chunk):
            lanes = [verify._Prop3(p, amplitude=0.005, omega=2.0 * math.pi, T=5.0, dt=1e-3)
                     for p in self.GRID]
            assert [lane.n for lane in lanes] == [5000] * 3
            return self.as_data(verify._integrate(lanes, chunk))

        assert verify.EXP_BLOCK == 1024
        whole = integrate(5001)
        for chunk in (1000, 1024, 4096):
            assert integrate(chunk) == whole, chunk

    @pytest.mark.parametrize("chunk", [1, 5, 1024])
    def test_divergence_is_found_at_every_chunk_size(self, chunk):
        # The start state's offsets overflow the coefficients of the solution.
        lanes = [verify._Prop1(p, x0_offset=1e308, v0=-1e308)
                 for p in (params(), params(k_e=100.0))]
        with pytest.raises(NonFiniteState, match="verifier integration diverged"):
            verify._integrate(lanes, chunk=chunk)

    def test_a_slow_pole_that_rounds_to_0_is_refused(self):
        p = NormalDynamicsParams(1e-12, 1.0, 1e-300, 0.0)
        assert p.time_constant() == math.inf
        with pytest.raises(ValueError, match="^proposition 1 horizon T must be finite"):
            verify_prop1_grid([p])

    def test_roots_that_round_together_are_refused(self):
        # d^2 underflows, and so does m k_e (or k_e is 0, without contact):
        # the law's distinct roots would be taken for a repeated one.
        with pytest.raises(ValueError, match="^d = 1e-300 is too small to solve"):
            verify_prop1_grid([NormalDynamicsParams(1e-320, 1e-300, 1e-300, 2.0)])
        with pytest.raises(ValueError, match="^d = 1e-200 is too small to solve"):
            verify_prop2([NormalDynamicsParams(1.0, 1e-200, 100.0, 2.0)], v0=0.05, T=1.0)

    def test_a_root_past_the_float_range_is_divergence(self):
        # beta = sqrt(|d^2 - m k_e|) / m overflows, and math.cos would refuse
        # its angles with a ValueError.
        p = NormalDynamicsParams(1e-320, 1e-300, 1e300, 0.0)
        with pytest.raises(NonFiniteState, match="verifier integration diverged"):
            verify_prop1_grid([p])

    def test_memory_does_not_grow_with_the_horizon(self):
        # Holding every row, 20 s took 3.6 times the memory of 5 s.
        def peak(prop3_T):
            tracemalloc.start()
            try:
                run_default_verification(prop3_T=prop3_T, grid=[params()])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20.0) <= 1.2 * peak(5.0)

    def test_a_lane_longer_than_the_cap_is_refused_before_it_runs(self):
        over = (verify.MAX_LANE_STEPS + 1) * 1e-3
        assert math.ceil(over / 1e-3) > verify.MAX_LANE_STEPS
        with pytest.raises(ValueError, match="^proposition 3 duration T needs .* steps of "):
            verify_prop3_grid([params()], T=over)
        with pytest.raises(ValueError, match="^proposition 1 horizon T needs "):
            verify_prop1_grid([params()], T=over, dt=1e-3)
        cfg = AdmittanceConfig(target_force=4.0, enable_normal_regulation=True)
        with pytest.raises(ValueError, match="^equivalence horizon T needs inf steps of 5e-324 s"):
            equivalence_check(cfg, 1000.0, T=1.0, dt=5e-324)


class Recorder:
    """A lane whose judge also keeps every row it is fed."""

    def __init__(self, lane):
        self.lane = lane
        self.x, self.v = np.full(lane.n + 1, np.nan), np.full(lane.n + 1, np.nan)

    def __getattr__(self, name):
        return getattr(self.lane, name)

    def feed(self, lo, x, v, wave):
        self.x[lo:lo + len(x)], self.v[lo:lo + len(x)] = x, v
        self.lane.feed(lo, x, v, wave)


def rk4_rows(lane):
    """The rows (x, v) of a lane by classical RK4, one scalar step at a time:
    the reference for the exact solution."""
    (m, d, k_e, f_H), dt = lane.law, lane.dt
    amp, omega = lane.sinusoid or (0.0, 0.0)

    def acc(t, x, v):
        return (k_e * (amp * math.sin(omega * t) - x) - f_H - 2.0 * d * v) / m

    x, v = lane.start
    rows = [(x, v)]
    for k in range(lane.n):
        t, h = k * dt, 0.5 * dt
        a1 = acc(t, x, v)
        x2, v2 = x + h * v, v + h * a1
        a2 = acc(t + h, x2, v2)
        x3, v3 = x + h * v2, v + h * a2
        a3 = acc(t + h, x3, v3)
        x4, v4 = x + dt * v3, v + dt * a3
        a4 = acc(t + dt, x4, v4)
        x, v = (x + dt / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4),
                v + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4))
        rows.append((x, v))
    return np.array(rows).T


class TestExactSolution:
    """The verifier samples each lane's exact solution (`verify._Solution`)."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: verify._Prop1(params(k_e=100.0), 0.02, 0.1, 1.0, 1e-4),
                     id="overdamped"),
        pytest.param(lambda: verify._Prop1(params(k_e=5000.0), 0.02, 0.1, 1.0, 1e-4),
                     id="underdamped"),
        pytest.param(lambda: verify._Prop2(params(), 0.05, 1.0, 1e-4), id="free_flight"),
        pytest.param(lambda: verify._Prop3(params(), 0.005, 2.0 * math.pi, 1.0, 1e-4),
                     id="sinusoidal_rest_point"),
    ])
    def test_agrees_with_a_scalar_rk4(self, make):
        rec = Recorder(make())
        verify._integrate([rec])
        x, v = rk4_rows(rec.lane)
        assert np.abs(rec.x - x).max() < 1e-9  # m
        assert np.abs(rec.v - v).max() < 1e-9  # m/s

    @staticmethod
    def error_rows(k_e):
        """The reports and the error states (rows less the rest -f_H / k_e) of
        propositions 1 and 3 at m = 1, d = 2, f_H = 4."""
        p = NormalDynamicsParams(1.0, 2.0, k_e, 4.0)
        recs = [Recorder(verify._Prop1(p, T=10.0)), Recorder(verify._Prop3(p, T=5.0))]
        reports = [rep for rec in recs for rep in verify._integrate([rec])]
        return reports, [rec.x - p.equilibrium() for rec in recs]

    def test_repeated_root(self):
        # d^2 == m k_e exactly: the t e^(alpha t) form, finite and passing, and
        # within 1e-9 m of its neighbours with a real and a complex root pair.
        assert 2.0 * 2.0 == 1.0 * 4.0
        reports, rows = self.error_rows(4.0)
        assert [r.proposition for r in reports] == ["prop1", "prop3"]
        assert all(r.passed for r in reports)
        assert all(np.isfinite(x).all() for x in rows)
        for k_e in (4.0 * (1.0 - 1e-9), 4.0 * (1.0 + 1e-9)):
            for x, near in zip(rows, self.error_rows(k_e)[1]):
                assert np.abs(x - near).max() < 1e-9, k_e
