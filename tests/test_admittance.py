import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import reference_laws as ref
from scenarios import bits

from admitsim.admittance import (
    AdmittanceConfig,
    ControllerCommand,
    ControllerState,
    TickResult,
    _radial_deadband,
    compute_damping,
    controller_tick,
)
from admitsim.errors import NonFiniteState
from admitsim.geometry import vec3

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


class TestAdmittanceConfigValidation:
    def test_damping_is_derived_from_the_gains(self):
        cfg = AdmittanceConfig(mass=2.0, stiffness=80.0, damping_ratio=1.5, tangent_scale=3.0)
        assert cfg.damping == compute_damping(2.0, 80.0, 1.5)
        assert cfg.tangent_damping == compute_damping(2.0, 3.0 * 80.0, 1.5)
        stiffer = replace(cfg, stiffness=500.0)
        assert stiffer.damping == compute_damping(2.0, 500.0, 1.5)
        assert stiffer.tangent_damping == compute_damping(2.0, 3.0 * 500.0, 1.5)
        assert {"damping", "tangent_damping"}.isdisjoint(f.name for f in fields(cfg))
        with pytest.raises(FrozenInstanceError):
            cfg.damping = 1.0


def tick(st_, cmd, force=(0.0, 0.0, 0.0), cfg=None, dt=1e-3):
    """controller_tick on a raw force, with the default gains unless cfg is given."""
    return controller_tick(st_, cmd, vec3("force", force), dt, cfg or AdmittanceConfig())


class TestDeadband:
    @pytest.mark.parametrize("force,band,out", [
        ((-2.0, 0.0, 0.0), 2.0, (0.0, 0.0, 0.0)),
        ((-0.0, 0.0, 0.0), 0.0, (-0.0, 0.0, 0.0)),
    ], ids=["at-the-band", "band-0"])
    def test_the_ties(self, force, band, out):
        """A force as long as the band is zeroed, every sign positive; a band
        of 0 passes the force through, a signed zero too."""
        assert bits(_radial_deadband(force, band)) == bits(out)


def commanded_force(cmd, st_, cfg):
    """The commanded force F_cmd of one tick, as controller_tick reports it."""
    return controller_tick(st_, cmd, (0.0, 0.0, 0.0), 1e-3, cfg).f_cmd


class TestCommandedForce:
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


def tangent_axis(n, d):
    """The tangent axis of a tick from rest at the origin commanded to d with
    the normal n, read off the spring response; None for the isotropic
    fallback, whose response is k e. The rank-1 term is (k_t - k)(t.e) t with
    e = -d and t.d > 0."""
    cfg = AdmittanceConfig(enable_tangent_stiffening=True, tangent_scale=4.0)
    res, Ke = spring_response(ControllerCommand(d, 1.0, n, 1), cfg)
    if res.stiffness_eigs == (50.0, 50.0, 50.0):
        assert_allclose(Ke, 50.0 * (0.0 - np.array(d)), rtol=1e-9)
        return None
    assert res.stiffness_eigs == (50.0, 50.0, 200.0)
    rank_one = Ke - 50.0 * (0.0 - np.array(d))
    return -rank_one / np.linalg.norm(rank_one)


class TestTangentAxis:
    """The tick's tangent axis for the commanded motion d = x_cmd - x_r."""

    def test_orthogonal_projection(self):
        assert_allclose(tangent_axis((0.0, 0.0, 1.0), (0.1, 0.0, 0.1)), [1, 0, 0], atol=1e-9)

    def test_parallel_falls_back(self):
        assert tangent_axis((0.0, 0.0, 1.0), (0.0, 0.0, 0.1)) is None

    def test_too_short_falls_back(self):
        # Literals, not EPS_POS: the motion falls back up to 1e-6 m long.
        assert tangent_axis((0.0, 0.0, 1.0), (1e-8, 0.0, 0.0)) is None
        assert tangent_axis((0.0, 0.0, 1.0), (1e-6, 0.0, 0.0)) is None
        assert_allclose(tangent_axis((0.0, 0.0, 1.0), (5e-6, 0.0, 0.0)), [1, 0, 0], atol=1e-9)

    def test_a_projection_as_long_as_eps_proj_falls_back(self):
        # The unit motion's projection off n is exactly EPS_PROJ = 1e-6 long
        # here, and longer one ulp of x further.
        x = 1.0000000000005e-06
        assert tangent_axis((0.0, 0.0, 1.0), (x, 0.0, 1.0)) is None
        assert_allclose(tangent_axis((0.0, 0.0, 1.0), (math.nextafter(x, 1.0), 0.0, 1.0)),
                        [1, 0, 0], atol=1e-9)

    def test_hand_projection(self):
        assert_allclose(tangent_axis((0.0, 1.0, 0.0), (0.03, 0.04, 0.0)), [1, 0, 0], atol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_output_orthogonal_to_normal(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        t = tangent_axis(n, rng.normal(size=3) * 0.05)
        if t is None:
            return
        assert abs(float(t @ n)) < 1e-6
        assert abs(np.linalg.norm(t) - 1.0) < 1e-9


class TestStepTranslation:
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

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, 0.011, 0.02])
    def test_dt_bounds(self, dt):
        with pytest.raises(ValueError, match="dt must be in"):
            tick(rest_state(), hold_cmd(), dt=dt)

    def test_largest_dt_accepted(self):
        assert tick(rest_state(), hold_cmd(), dt=0.01).state == rest_state()


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
        t = ref.tangent_or_none(cmd.n, (x_cmd - x_r).tolist())
    if t is not None:
        outer = np.outer(t, t)
        K = K + (cfg.tangent_scale * k - k) * outer
        D = D + (cfg.tangent_damping - d) * outer
    f_cmd = np.array(ref.commanded_force(cmd, st_, cfg))
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
        force = vec3("force", rng.normal(size=3) * 5)
        res = controller_tick(st_, cmd, force, 1e-3, cfg)
        f_ext = _radial_deadband(force, cfg.force_deadband)
        ref = reference_tick(st_, cmd, f_ext, 1e-3, cfg)
        assert_allclose(res.state.x_r, ref.x_r, atol=1e-15)
        assert_allclose(res.state.v_r, ref.v_r, atol=1e-15)
        assert_allclose(res.f_ext, f_ext)

    def test_command_validates_unit_normal(self):
        with pytest.raises(ValueError):
            ControllerCommand(np.zeros(3), 1.0, np.array([0.0, 0, 0.5]), 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_command_rejects_a_non_finite_gripper(self, value):
        with pytest.raises(ValueError, match="gripper must be finite"):
            ControllerCommand((0.0, 0.0, 0.0), value, (0.0, 0.0, 1.0), 1)

    @pytest.mark.parametrize("flag", [2, -1, 0.7, np.nan])
    def test_command_rejects_a_contact_flag_other_than_zero_or_one(self, flag):
        with pytest.raises(ValueError, match="contact flag"):
            ControllerCommand(np.zeros(3), 1.0, np.zeros(3), flag)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_force_raises(self, axis, value):
        # The velocity and the position along the axis both leave the finite range.
        cfg = AdmittanceConfig(force_deadband=0.0)
        force = [0.0, 0.0, 0.0]
        force[axis] = value
        with pytest.raises(NonFiniteState):
            controller_tick(rest_state(), hold_cmd(), tuple(force), 1e-3, cfg)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_position_overflow_alone_raises(self, axis):
        # At the top of the float range a finite velocity still overflows the
        # position, while the velocity stays finite.
        x, v = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        x[axis], v[axis] = math.nextafter(math.inf, 0.0), 1e306  # the largest float
        st_ = ControllerState(x, v)
        cmd = ControllerCommand(x, 1.0)  # no spring force
        with pytest.raises(NonFiniteState):
            controller_tick(st_, cmd, (0.0, 0.0, 0.0), 0.01, AdmittanceConfig())
        v_next = 1e306 - 0.01 * AdmittanceConfig().damping * 1e306
        assert math.isfinite(v_next) and not math.isfinite(x[axis] + 0.01 * v_next)

    def test_result_is_a_tick_result_of_float_tuples(self):
        cfg = AdmittanceConfig(enable_normal_regulation=True,
                               enable_tangent_stiffening=True, target_force=4.0)
        cmd = ControllerCommand((0.1, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), 1)
        res = controller_tick(rest_state(), cmd, (0.0, 0.0, 3.0), 1e-3, cfg)
        assert type(res) is TickResult and type(res.state) is ControllerState
        assert TickResult._fields == ("state", "f_ext", "f_cmd", "stiffness_eigs")
        assert ControllerState._fields == ("x_r", "v_r")
        for vec in (*res.state, res.f_ext, res.f_cmd, res.stiffness_eigs):
            assert type(vec) is tuple and len(vec) == 3
            assert all(type(c) is float for c in vec)
        assert res.stiffness_eigs == (50.0, 50.0, 200.0)
        assert res == (res.state, res.f_ext, res.f_cmd, res.stiffness_eigs)
        isotropic = controller_tick(rest_state(), hold_cmd(), (0.0, 0.0, 0.0), 1e-3, cfg)
        assert isotropic.stiffness_eigs == (50.0, 50.0, 50.0)


vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3)
unit_vectors = vectors.filter(lambda v: math.fsum(c * c for c in v) > 1e-4).map(
    lambda v: vec3("n", np.divide(v, np.linalg.norm(v))))


class TestControllerProperties:
    """Properties of the law for any gains, normal, state and command in range."""

    @given(mass=st.floats(0.5, 10.0), stiffness=st.floats(1.0, 1000.0),
           ratio=st.floats(0.3, 3.0), scale=st.floats(1.0, 8.0), contact=st.booleans(),
           n=unit_vectors, x=vectors, v=vectors, x_cmd=vectors)
    @settings(max_examples=300, deadline=None)
    def test_energy_does_not_increase_without_external_force(
            self, mass, stiffness, ratio, scale, contact, n, x, v, x_cmd):
        """With f_ext = 0 and a fixed command (no commanded force), one tick does
        not raise E = m |v|^2 / 2 + e^T K e / 2, e = x_r - x_cmd, in the
        tick's stiffness: k I, or k n n^T + k_t (I - n n^T) with tangent
        stiffening, whose gradient is K_eff e and whose eigenbasis also
        diagonalizes D_eff. Each axis of that basis is a semi-implicit Euler
        step of m x'' + d x' + k x = 0, which does not raise its energy when
        (1 - dt d / m)^2 <= 1 - dt^2 k / m, as it holds for every (k, d) pair
        of the drawn gains."""
        cfg = AdmittanceConfig(mass=mass, stiffness=stiffness, damping_ratio=ratio,
                               tangent_scale=scale, enable_tangent_stiffening=True)
        dt = 1e-3
        k, k_t, d, d_t = stiffness, scale * stiffness, cfg.damping, cfg.tangent_damping
        for kk, dd in ((k, d), (k_t, d_t), (k_t, d)):
            assert (1.0 - dt * dd / mass) ** 2 <= 1.0 - dt * dt * kk / mass
        cmd = ControllerCommand(x_cmd, 0.0, n, int(contact))
        st_ = ControllerState(x, v)
        res = controller_tick(st_, cmd, (0.0, 0.0, 0.0), dt, cfg)
        assert res.f_cmd == (0.0, 0.0, 0.0)
        if res.stiffness_eigs[2] == k:
            K = k * np.eye(3)
        else:
            nn = np.outer(n, n)
            K = k * nn + k_t * (np.eye(3) - nn)

        def energy(s):
            e = np.subtract(s.x_r, x_cmd)
            return 0.5 * mass * float(np.dot(s.v_r, s.v_r)) + 0.5 * float(e @ K @ e)

        before = energy(st_)
        assert energy(res.state) <= before + 1e-12 * (1.0 + before)

    @given(band=st.floats(0.0, 10.0), u=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
           w=st.tuples(*[st.floats(-20.0, 20.0)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_deadband_is_continuous(self, band, u, w):
        """The radial deadband is 1-Lipschitz (the proximal map of band * |f|),
        so continuous, at the band's edge too."""
        du = np.array(_radial_deadband(u, band))
        dw = np.array(_radial_deadband(w, band))
        gap = np.linalg.norm(np.subtract(u, w))
        assert np.linalg.norm(du - dw) <= gap * (1 + 1e-12) + 1e-12

    @given(band=st.floats(0.1, 10.0), n=unit_vectors, s=st.floats(0.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_deadband_vanishes_at_the_edge(self, band, n, s):
        out = _radial_deadband(tuple(s * band * c for c in n), band)
        assert np.linalg.norm(out) == pytest.approx(max(0.0, s - 1.0) * band, abs=1e-12 * band)

    @given(n=unit_vectors, f_h=st.floats(0.0, 20.0), tangent=st.booleans(),
           x=vectors, v=vectors, x_cmd=vectors, force=st.tuples(*[st.floats(-50.0, 50.0)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_normal_dynamics_follow_the_equivalence_law(self, n, f_h, tangent, x, v, x_cmd,
                                                        force):
        """Along any unit normal n in contact, one tick of the full law is one
        step of m x_n'' + 2 d x_n' = f_ext.n - f_H: no normal stiffness, twice
        the damping, whatever the command, the tangent stiffening and the
        tangential force."""
        cfg = AdmittanceConfig(enable_normal_regulation=True, target_force=f_h,
                               enable_tangent_stiffening=tangent)
        dt = 1e-3
        st_ = ControllerState(x, v)
        res = controller_tick(st_, ControllerCommand(x_cmd, 1.0, n, 1), vec3("force", force),
                              dt, cfg)
        v_n = float(np.dot(v, n))
        a_n = (float(np.dot(res.f_ext, n)) - f_h - 2.0 * cfg.damping * v_n) / cfg.mass
        scale = (np.linalg.norm(force) + f_h + cfg.tangent_damping * np.linalg.norm(v)
                 + cfg.tangent_scale * cfg.stiffness * np.linalg.norm(np.subtract(x, x_cmd)))
        assert float(np.dot(res.state.v_r, n)) == pytest.approx(v_n + dt * a_n,
                                                                 abs=1e-13 * (1.0 + scale))
