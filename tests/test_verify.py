import math

import numpy as np
import pytest

from admitsim.admittance import AdmittanceConfig, compute_damping
from admitsim.environments import SpringContact
from admitsim.verify import (
    NormalDynamicsParams,
    XeProfile,
    default_grid,
    equivalence_check,
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

    def test_requires_constant_rest_point(self):
        p = NormalDynamicsParams(1.0, D_NOMINAL, 1000.0, 4.0,
                                 XeProfile("sinusoid", amplitude=0.01))
        with pytest.raises(ValueError):
            verify_prop1_grid([params(), p])

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


class TestProp2:
    def test_velocity_limit_value(self):
        rep = verify_prop2(params(), v0=0.05)
        assert rep.passed
        assert rep.measured["v_final"] == pytest.approx(-4.0 / (2.0 * D_NOMINAL), abs=1e-6)
        assert -4.0 / (2.0 * D_NOMINAL) == pytest.approx(-0.07071067811865475)

    def test_zero_force_stays_at_rest(self):
        rep = verify_prop2(params(f_H=0.0), v0=0.0)
        assert rep.measured["v_final"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_analytic_solution(self):
        rep = verify_prop2(params(), v0=0.05)
        assert rep.measured["analytic_max_err"] < 1e-5

    def test_integrator_order_sanity(self):
        # Fourth-order scheme: halving dt cuts the analytic gap ~16x.
        p = params()
        coarse = verify_prop2(p, v0=0.2, dt=2e-3)
        fine = verify_prop2(p, v0=0.2, dt=1e-3)
        ratio = coarse.measured["analytic_max_err"] / fine.measured["analytic_max_err"]
        assert 8.0 < ratio < 40.0


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

    def test_gain_linearity(self):
        full = prop3(params(), amplitude=0.005, omega=2 * math.pi, T=30.0)
        half = prop3(params(), amplitude=0.0025, omega=2 * math.pi, T=30.0)
        ratio = half.measured["sup_e_steady"] / full.measured["sup_e_steady"]
        assert ratio == pytest.approx(0.5, rel=0.05)


class TestEquivalence:
    def make_env(self, k_e=1000.0):
        return SpringContact(k_e, np.zeros(3), np.array([0.0, 0.0, 1.0]))

    def test_default_point(self):
        cfg = AdmittanceConfig(target_force=4.0, enable_normal_regulation=True)
        rep = equivalence_check(cfg, self.make_env())
        assert rep.passed
        assert rep.measured["max_step_gap"] < 1e-9

    def test_skewed_normal_axis(self):
        cfg = AdmittanceConfig(target_force=2.0, enable_normal_regulation=True)
        n = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        rep = equivalence_check(cfg, SpringContact(500.0, np.zeros(3), n), n_axis=n)
        assert rep.measured["max_step_gap"] < 1e-9

    def test_with_tangent_stiffening_enabled(self):
        # Motion parallel to n is degenerate for the tangent projection, so the
        # stiffened pipeline falls back to isotropic gains and still reduces.
        cfg = AdmittanceConfig(target_force=4.0, enable_normal_regulation=True,
                               enable_tangent_stiffening=True)
        rep = equivalence_check(cfg, self.make_env())
        assert rep.measured["max_step_gap"] < 1e-9

    def test_deterministic(self):
        cfg = AdmittanceConfig(target_force=4.0, enable_normal_regulation=True)
        a = equivalence_check(cfg, self.make_env())
        b = equivalence_check(cfg, self.make_env())
        assert a.measured == b.measured


def test_default_grid_is_27_points():
    grid = default_grid()
    assert len(grid) == 27
    ms = {p.m for p in grid}
    assert ms == {0.5, 1.0, 2.0}
    for p in grid:
        assert p.d == pytest.approx(compute_damping(p.m, 50.0, 2.0))


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
