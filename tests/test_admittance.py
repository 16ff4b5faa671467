import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from admitsim.admittance import (
    AdmittanceConfig,
    ControllerCommand,
    ControllerState,
    _radial_deadband,
    commanded_force,
    compute_damping,
    controller_tick,
)
from admitsim.errors import NonPositiveParameter
from admitsim.geometry import tangent_or_none, vec3

Z = np.array([0.0, 0.0, 1.0])


def rest_state(pos=(0.0, 0.0, 0.0)):
    return ControllerState(np.array(pos, dtype=float), np.zeros(3))


def hold_cmd(pos=(0.0, 0.0, 0.0), n=None, c=0):
    return ControllerCommand(np.array(pos, dtype=float), 1.0,
                             np.array(n) if n is not None else None, c)


class TestComputeDamping:
    def test_nominal(self):
        assert compute_damping(1.0, 50.0, 2.0) == pytest.approx(28.284271247461902, abs=1e-12)

    def test_unit_case(self):
        assert compute_damping(1.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_high_stiffness(self):
        assert compute_damping(1.0, 800.0, 2.0) == pytest.approx(113.13708498984761, abs=1e-12)

    @pytest.mark.parametrize("m,k,xi", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_non_positive(self, m, k, xi):
        with pytest.raises(NonPositiveParameter):
            compute_damping(m, k, xi)


class TestAdmittanceConfigValidation:
    @pytest.mark.parametrize("field", ["mass", "stiffness", "damping_ratio"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_gains_must_be_finite_and_positive(self, field, value):
        with pytest.raises(NonPositiveParameter):
            AdmittanceConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("tangent_scale", math.nan), ("tangent_scale", math.inf), ("tangent_scale", 0.5),
        ("target_force", math.nan), ("target_force", math.inf), ("target_force", -1.0),
        ("force_deadband", math.nan), ("force_deadband", math.inf),
    ])
    def test_scale_force_and_deadband_must_be_finite(self, field, value):
        with pytest.raises(ValueError):
            AdmittanceConfig(**{field: value})


def tick(st_, cmd, force=(0.0, 0.0, 0.0), cfg=None, dt=1e-3):
    """controller_tick on a raw force, with the default gains unless cfg is given."""
    return controller_tick(st_, cmd, vec3(force), dt, cfg or AdmittanceConfig())


class TestDeadband:
    cfg = AdmittanceConfig()

    def test_below_band_zeroed(self):
        res = tick(rest_state(), hold_cmd(), force=[0.0, 0, 1.5], cfg=self.cfg)
        assert_allclose(res.f_ext, np.zeros(3))

    def test_radial_shrink(self):
        res = tick(rest_state(), hold_cmd(), force=[0.0, 0, 5.0], cfg=self.cfg)
        assert_allclose(res.f_ext, [0, 0, 3.0], atol=1e-12)

    def test_zero_passthrough(self):
        res = tick(rest_state(), hold_cmd(), cfg=self.cfg)
        assert_allclose(res.f_ext, 0)

    @given(st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        band = self.cfg.force_deadband
        once = _radial_deadband(rng.normal(scale=5, size=3), band)
        twice = _radial_deadband(once, band)
        # Applying twice subtracts the band twice unless already inside it;
        # idempotence refers to a fixed point at and below the band edge.
        if np.linalg.norm(once) == 0.0:
            assert_allclose(twice, once)


class TestCommandedForce:
    def test_zero_when_out_of_contact(self):
        cfg = AdmittanceConfig(enable_normal_regulation=True, target_force=4.0)
        f = commanded_force(hold_cmd(c=0), rest_state(), cfg)
        assert_allclose(f, np.zeros(3))

    def test_zero_when_regulation_disabled(self):
        cfg = AdmittanceConfig(enable_normal_regulation=False, target_force=4.0)
        f = commanded_force(hold_cmd(n=-Z, c=1), rest_state(), cfg)
        assert_allclose(f, np.zeros(3))

    def test_error_terms_vanish(self):
        cfg = AdmittanceConfig(enable_normal_regulation=True, target_force=4.0)
        f = commanded_force(hold_cmd(n=-Z, c=1), rest_state(), cfg)
        assert_allclose(f, [0, 0, -4.0], atol=1e-12)

    def test_hand_evaluated_magnitude(self):
        # f = 4 + 50*0.01 + d*0.02 with d = 4*sqrt(50).
        cfg = AdmittanceConfig(enable_normal_regulation=True, target_force=4.0)
        st_ = ControllerState(np.zeros(3), np.array([0.0, 0, -0.02]))
        cmd = hold_cmd(pos=(0, 0, -0.01), n=-Z, c=1)
        f = commanded_force(cmd, st_, cfg)
        expected = 4.0 + 50.0 * 0.01 + compute_damping(1, 50, 2) * 0.02
        assert f[2] == pytest.approx(-expected, abs=1e-9)
        assert expected == pytest.approx(5.0657, abs=1e-4)

    def test_continuity_in_state(self):
        cfg = AdmittanceConfig(enable_normal_regulation=True, target_force=4.0)
        cmd = hold_cmd(pos=(0, 0, -0.01), n=-Z, c=1)
        base = commanded_force(cmd, rest_state(), cfg)
        eps = 1e-9
        nudged = commanded_force(cmd, rest_state((eps, eps, eps)), cfg)
        assert np.linalg.norm(np.subtract(nudged, base)) < 1e-6


def spring_response(cmd, cfg):
    """K_eff (x_r - x_cmd) read off one tick from rest: v_new = -(dt/m) K_eff (x_r - x_cmd)."""
    res = tick(rest_state(), cmd, cfg=cfg)
    return res, -(cfg.mass / 1e-3) * np.array(res.state.v_r)


def rank_one_response(e, n, k, k_t):
    """k e + (k_t - k)(t.e) t for the unit tangent t of e in the plane normal to n."""
    e_t = e - (e @ n) * n
    t = e_t / np.linalg.norm(e_t)
    return k * e + (k_t - k) * (t @ e) * t


class TestEffectiveStiffness:
    def test_disabled_is_isotropic(self):
        cfg = AdmittanceConfig(enable_tangent_stiffening=False)
        cmd = hold_cmd(pos=(0.1, 0.05, -0.02), n=Z, c=1)
        res, Ke = spring_response(cmd, cfg)
        assert_allclose(res.stiffness_eigs, [50.0, 50.0, 50.0])
        assert_allclose(Ke, 50.0 * (0.0 - np.array(cmd.x_cmd)), rtol=1e-9)

    def test_rank_one_update(self):
        cfg = AdmittanceConfig(enable_tangent_stiffening=True, tangent_scale=4.0)
        cmd = hold_cmd(pos=(0.1, 0, 0), n=Z, c=1)
        res, Ke = spring_response(cmd, cfg)
        assert_allclose(res.stiffness_eigs, [50.0, 50.0, 200.0])
        # K = diag(200, 50, 50) acting on e = -x_cmd.
        assert_allclose(Ke, [-20.0, 0.0, 0.0], atol=1e-9)
        assert_allclose(Ke, rank_one_response(-np.array(cmd.x_cmd), Z, 50.0, 200.0), atol=1e-9)

    def test_parallel_motion_falls_back(self):
        cfg = AdmittanceConfig(enable_tangent_stiffening=True)
        cmd = hold_cmd(pos=(0, 0, 0.1), n=Z, c=1)
        res, Ke = spring_response(cmd, cfg)
        assert_allclose(res.stiffness_eigs, [50.0, 50.0, 50.0])
        assert_allclose(Ke, 50.0 * (0.0 - np.array(cmd.x_cmd)), rtol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_spd_with_known_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        cfg = AdmittanceConfig(enable_tangent_stiffening=True, tangent_scale=4.0)
        cmd = hold_cmd(pos=tuple(rng.normal(size=3)), n=n, c=1)
        res, Ke = spring_response(cmd, cfg)
        eigs = np.sort(res.stiffness_eigs)
        isotropic = np.array_equal(eigs, [50.0, 50.0, 50.0])
        if not isotropic:
            assert_allclose(eigs, [50.0, 50.0, 200.0])
        e = 0.0 - np.array(cmd.x_cmd)
        expected = 50.0 * e if isotropic else rank_one_response(e, n, 50.0, 200.0)
        assert_allclose(Ke, expected, rtol=1e-9, atol=1e-12)
        assert float(Ke @ e) > 0.0  # positive definite along the spring error


class TestStepTranslation:
    def test_equilibrium_unchanged(self):
        st_ = rest_state()
        out = tick(st_, hold_cmd()).state
        assert_allclose(out.x_r, st_.x_r)
        assert_allclose(out.v_r, st_.v_r)

    @pytest.mark.parametrize("k", [50.0, 200.0, 800.0])
    def test_no_overshoot_over_stiffness_grid(self, k):
        cfg = AdmittanceConfig(stiffness=k)
        st_ = rest_state((0, 0, 0.05))
        for _ in range(8000):
            st_ = tick(st_, hold_cmd(), cfg=cfg).state
            assert st_.x_r[2] > -1e-12  # never crosses the target
        assert abs(st_.x_r[2]) < 1e-6

    def test_static_equilibrium_offset(self):
        cfg = AdmittanceConfig(force_deadband=0.0)
        st_ = rest_state()
        for _ in range(6000):
            st_ = tick(st_, hold_cmd(), force=[0.0, 0, -4.0], cfg=cfg).state
        assert_allclose(st_.x_r, [0, 0, -0.08], atol=1e-6)

    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            tick(rest_state(), hold_cmd(), dt=0.02)


class TestEq4Reduction:
    """n-projection of the full law matches direct damping-control integration."""

    @pytest.mark.parametrize("n", [Z, np.array([1.0, 1.0, 1.0]) / math.sqrt(3)])
    def test_matches_direct_integration(self, n):
        cfg = AdmittanceConfig(enable_normal_regulation=True, target_force=4.0,
                               force_deadband=0.0)
        d = cfg.damping
        rng = np.random.default_rng(0)
        x_cmd = 0.01 * n
        cmd = ControllerCommand(x_cmd, 1.0, n, 1)
        st_ = rest_state()
        x_n = 0.0
        v_n = 0.0
        dt = 1e-3
        for k in range(2000):
            f_n = 3.0 * math.sin(0.01 * k)  # arbitrary force profile along n
            st_ = tick(st_, cmd, force=f_n * n, cfg=cfg, dt=dt).state
            a = (f_n - cfg.target_force - 2.0 * d * v_n) / cfg.mass
            v_n = v_n + dt * a
            x_n = x_n + dt * v_n
            assert abs(float(np.array(st_.x_r) @ n) - x_n) < 1e-9

    def test_tangential_command_offset_does_not_touch_normal_axis(self):
        cfg = AdmittanceConfig(enable_normal_regulation=True, target_force=4.0,
                               enable_tangent_stiffening=False, force_deadband=0.0)
        st_a = rest_state()
        st_b = rest_state()
        cmd_a = ControllerCommand(np.array([0.0, 0, -0.01]), 1.0, Z, 1)
        cmd_b = ControllerCommand(np.array([0.05, 0, -0.01]), 1.0, Z, 1)
        for k in range(1000):
            f = math.sin(0.02 * k) * Z
            st_a = tick(st_a, cmd_a, force=f, cfg=cfg).state
            st_b = tick(st_b, cmd_b, force=f, cfg=cfg).state
            assert abs(st_a.x_r[2] - st_b.x_r[2]) < 1e-12


def reference_tick(st_, cmd, f_ext, dt, cfg):
    """The control law with materialized gain matrices, on a deadbanded force.

    K_eff and D_eff carry the rank-1 tangent update built with np.outer; the
    state takes one semi-implicit Euler step.
    """
    x_r, v_r = np.array(st_.x_r), np.array(st_.v_r)
    x_cmd = np.array(cmd.x_cmd)
    k, d = cfg.stiffness, cfg.damping
    K, D = k * np.eye(3), d * np.eye(3)
    t = None
    if cfg.enable_tangent_stiffening and cmd.c == 1:
        t = tangent_or_none(cmd.n, (x_cmd - x_r).tolist())
    if t is not None:
        outer = np.outer(t, t)
        K = K + (cfg.tangent_scale * k - k) * outer
        D = D + (cfg.tangent_damping - d) * outer
    f_cmd = np.array(commanded_force(cmd, st_, cfg))
    acc = (np.array(f_ext) - f_cmd - D @ v_r - K @ (x_r - x_cmd)) / cfg.mass
    v_new = v_r + dt * acc
    x_new = x_r + dt * v_new
    return ControllerState(x_new, v_new)


class TestControllerTick:
    def test_matches_component_steps(self):
        cfg = AdmittanceConfig(enable_normal_regulation=True,
                               enable_tangent_stiffening=True, target_force=4.0)
        rng = np.random.default_rng(5)
        st_ = ControllerState(rng.normal(size=3) * 0.01, rng.normal(size=3) * 0.01)
        n = np.array([0.0, 1.0, 0.0])
        cmd = ControllerCommand(rng.normal(size=3) * 0.02, 1.0, n, 1)
        force = vec3(rng.normal(size=3) * 5)
        res = controller_tick(st_, cmd, force, 1e-3, cfg)
        f_ext = _radial_deadband(force, cfg.force_deadband)
        ref = reference_tick(st_, cmd, f_ext, 1e-3, cfg)
        assert_allclose(res.state.x_r, ref.x_r, atol=1e-15)
        assert_allclose(res.state.v_r, ref.v_r, atol=1e-15)
        assert_allclose(res.f_ext, f_ext)

    def test_records_stiffness_eigenvalues(self):
        cfg = AdmittanceConfig(enable_tangent_stiffening=True, tangent_scale=4.0)
        cmd = ControllerCommand(np.array([0.1, 0, 0]), 1.0, Z, 1)
        res = controller_tick(rest_state(), cmd, (0.0, 0.0, 0.0), 1e-3, cfg)
        assert_allclose(sorted(res.stiffness_eigs), [50.0, 50.0, 200.0])

    def test_command_validates_unit_normal(self):
        with pytest.raises(ValueError):
            ControllerCommand(np.zeros(3), 1.0, np.array([0.0, 0, 0.5]), 1)

    def test_non_finite_force_raises(self):
        from admitsim.errors import NonFiniteState
        cfg = AdmittanceConfig(force_deadband=0.0)
        with pytest.raises(NonFiniteState):
            controller_tick(rest_state(), hold_cmd(), (math.inf, 0.0, 0.0), 1e-3, cfg)
