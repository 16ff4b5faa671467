import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from admitsim.admittance import AdmittanceConfig, compute_damping
from admitsim import verify
from admitsim.errors import NonFiniteState
from admitsim.verify import (
    CONTROLLER_K,
    DAMPING_RATIO,
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
        # The integrator takes math.sin at float times, the judges _libm at
        # arrays of them: both must be libm's values, whatever numpy's loops do.
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

    def test_integrator_order_sanity(self):
        # Fourth-order scheme: halving dt cuts the analytic gap ~16x.
        p = params()
        coarse = prop2(p, v0=0.2, dt=2e-3)
        fine = prop2(p, v0=0.2, dt=1e-3)
        ratio = coarse.measured["analytic_max_err"] / fine.measured["analytic_max_err"]
        assert 8.0 < ratio < 40.0

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
        """m = 1e-12 runs one step of 1e-4 s (20 time constants are ~4e-7 s):
        RK4 is far outside its stability region and the point fails, with no
        error from the late-slope fit."""
        tiny = params(m=1e-12, k_e=100.0, f_H=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (rep,) = verify_prop2([tiny], v0=0.05)
            reports = verify_prop1_grid([tiny]) + verify_prop3_grid([tiny], T=0.01)
        assert math.ceil(rep.params["T"] / rep.params["dt"]) == 1
        assert math.isfinite(rep.measured["late_slope"])
        assert not rep.passed
        assert not any(r.passed for r in reports)


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
    NON_DEFAULT_SHA256 = "6b122a036b062c8a82ec0699f72451b56c47139d6b9ee778043775be5beb9fd2"

    def test_non_default_run_is_pinned(self):
        reports = verify_prop3_grid(T=7.0, amplitude=-0.003, omega=3.0)
        assert len(reports) == 27
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == self.NON_DEFAULT_SHA256


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
    """An empty grid is not the default grid: it has no points to report on."""
    assert verify_prop1_grid([]) == []
    assert verify_prop2([], v0=0.05) == []
    assert verify_prop3_grid([]) == []


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
    """run_default_verification integrates the three propositions as one batch."""

    # Ragged horizons: proposition 1 runs 1000, 6753 and 2000 steps, proposition
    # 2 runs 2500, 3536 and 5000, and proposition 3 (T = 5 s) 5000 each, so the
    # longest lane is a proposition 1 lane, not a proposition 3 one.
    GRID = [params(m=0.5, k_e=1000.0, f_H=4.0), params(m=1.0, k_e=300.0, f_H=0.0),
            params(m=2.0, k_e=5000.0, f_H=8.0)]

    def test_equals_each_proposition_alone(self):
        grid = self.GRID
        batch = run_default_verification(prop3_T=5.0, grid=grid)
        alone = (verify_prop1_grid(grid) + verify_prop2(grid, v0=0.05)
                 + verify_prop3_grid(grid, T=5.0))
        for p in grid:
            cfg = AdmittanceConfig(mass=p.m, stiffness=CONTROLLER_K,
                                   damping_ratio=DAMPING_RATIO, target_force=p.f_H,
                                   enable_normal_regulation=True)
            alone.append(equivalence_check(cfg, p.k_e))
        steps = {rep.proposition: [] for rep in alone}
        for rep in alone:
            if rep.proposition != "equivalence":
                steps[rep.proposition].append(math.ceil(rep.params["T"] / rep.params["dt"]))
        assert max(steps["prop1"]) > max(steps["prop3"]) == 5000
        assert len(set(steps["prop1"])) == len(set(steps["prop2"])) == 3
        assert [r.proposition for r in batch] == [r.proposition for r in alone]
        for got, want in zip(batch, alone):
            assert got.params == want.params
            assert got.measured == want.measured
            assert got.passed == want.passed

    def test_divergence_is_nonfinite_state(self):
        # omega dt = sqrt(k_e / m) dt is far outside RK4's stability region.
        stiff = NormalDynamicsParams(0.001, compute_damping(0.001, 50.0, 2.0), 1e9, 4.0)
        with pytest.raises(NonFiniteState, match="verifier integration diverged"):
            run_default_verification(prop3_T=0.5, grid=[params(), stiff])


def test_default_grid_axes_and_damping():
    grid = default_grid(ms=(1.0,), kes=(100.0, 500.0), fhs=(4.0,))
    assert [(p.m, p.k_e, p.f_H) for p in grid] == [(1.0, 100.0, 4.0), (1.0, 500.0, 4.0)]
    assert all(p.d == compute_damping(1.0, 50.0, 2.0) for p in grid)
    assert {p.d for p in default_grid(ms=(0.5, 2.0), d=3.0)} == {3.0}


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


class TestChunkedJudges:
    """The judges take each lane's rows a chunk at a time; the reports do not
    depend on the chunk size."""

    GRID = TestOneBatch.GRID

    def props(self):
        # Short, ragged horizons: proposition 1 runs 100, 676 and 200 steps,
        # proposition 2 250, 354 and 500, and proposition 3 200 each.
        grid = self.GRID
        return [verify._Prop1(grid, x0_offset=0.02, v0=0.0, T=None, dt=5e-3),
                verify._Prop2(grid, v0=0.05, T=None, dt=1e-3),
                verify._Prop3(grid, amplitude=0.005, omega=2.0 * math.pi, T=0.2, dt=1e-3)]

    @staticmethod
    def as_data(reports):
        return [(r.proposition, r.params, r.measured, r.tolerances, r.passed) for r in reports]

    def test_reports_equal_at_every_chunk_size(self):
        props = self.props()
        longest = max(n for prop in props for n in prop.lanes.n)
        assert longest == 676
        whole = self.as_data(verify._integrate(self.props(), chunk=longest + 1))
        assert len(whole) == 9
        for chunk in (1, 2, 3, 4, 5, 6, 7, 101):
            assert self.as_data(verify._integrate(self.props(), chunk=chunk)) == whole, chunk
        assert self.as_data(verify._integrate(self.props())) == whole

    @pytest.mark.parametrize("chunk", [1, 5, 1024])
    def test_divergence_is_found_at_every_chunk_size(self, chunk):
        stiff = NormalDynamicsParams(0.001, compute_damping(0.001, 50.0, 2.0), 1e9, 4.0)
        prop3 = verify._Prop3([params(), stiff], 0.005, 2.0 * math.pi, 0.5, 1e-3)
        with pytest.raises(NonFiniteState, match="verifier integration diverged"):
            verify._integrate([prop3], chunk=chunk)

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
