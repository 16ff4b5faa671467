"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. On a shared 2-core host it took about 5 s in one sitting and 10 to
13 s in a slower one; its slowest item is criterion 6's setup, a 125-episode
WW suite (2.5 s and 5.5 to 7.1 s).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from scenarios import SUITE_NOISE

from admitsim.admittance import AdmittanceConfig, compute_damping
from admitsim.cli import main as cli_main
from admitsim.environments import DisturbanceEvent, update_ink
from admitsim.harness import ScenarioConfig, default_disturbance, run_episode, run_suite
from admitsim.tasks import TASKS, build_environment, generate_demo
from admitsim.verify import (
    default_grid,
    equivalence_check,
    verify_prop1_grid,
    verify_prop2,
    verify_prop3_grid,
)

N_SEEDS = 25


def report(criterion, detail):
    print(f"[acceptance {criterion}] PASS  {detail}")


def test_criterion_1_prop1_grid_convergence():
    """3x3x3 grid: force within 1%, position within 1e-4 m by 20 time
    constants, Lyapunov monotone, total runtime under 10 s."""
    t0 = time.perf_counter()
    reports = verify_prop1_grid()
    elapsed = time.perf_counter() - t0
    assert len(reports) == 27
    worst_x = max(r.measured["x_err"] for r in reports)
    worst_f = max(r.measured["f_err"] / r.params["f_H"] for r in reports)
    assert all(r.passed for r in reports)
    assert all(r.measured["lyapunov_monotone"] for r in reports)
    assert elapsed < 10.0
    report(1, f"27 cases, worst x_err {worst_x:.2e} m, worst f_err {100 * worst_f:.2e}%, "
              f"{elapsed:.1f}s")


def test_criterion_2_prop2_analytic_match():
    """Free-flight velocity matches the closed form within 1e-5 m/s at dt=0.1 ms."""
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        for f_H in (2.0, 4.0, 8.0):
            d = compute_damping(m, 50.0, 2.0)
            from admitsim.verify import NormalDynamicsParams
            rep = verify_prop2([NormalDynamicsParams(m, d, 1000.0, f_H)], v0=0.05, dt=1e-4)[0]
            assert rep.passed
            worst = max(worst, rep.measured["analytic_max_err"])
    assert worst < 1e-5
    report(2, f"max |v - analytic| {worst:.2e} m/s at dt = 0.1 ms")


def test_criterion_3_prop3_iss():
    """Sinusoidal rest point: bounded errors over 60 s, the Lyapunov-rate
    inequality holds within 1e-6 normalized slack, halving A halves sup|e|."""
    from admitsim.verify import NormalDynamicsParams
    p = NormalDynamicsParams(1.0, compute_damping(1.0, 50.0, 2.0), 1000.0, 4.0)
    full = verify_prop3_grid([p], amplitude=0.005, omega=2 * math.pi, T=60.0)[0]
    assert full.passed
    assert full.measured["sup_e"] <= full.measured["bound"]
    assert full.measured["ineq_residual"] <= full.tolerances["lyap_slack"]
    half = verify_prop3_grid([p], amplitude=0.0025, omega=2 * math.pi, T=60.0)[0]
    ratio = half.measured["sup_e_steady"] / full.measured["sup_e_steady"]
    assert ratio <= 0.5 * 1.05
    report(3, f"sup|e| {full.measured['sup_e']:.2e} <= bound {full.measured['bound']:.2e}, "
              f"ineq residual {full.measured['ineq_residual']:.1e}, A/2 ratio {ratio:.3f}")


def test_criterion_4_equivalence_over_grid():
    """Controller pipeline vs direct normal-law integration: <= 1e-9 m per step."""
    worst = 0.0
    for p in default_grid():
        cfg = AdmittanceConfig(mass=p.m, stiffness=50.0, damping_ratio=2.0,
                               target_force=p.f_H, enable_normal_regulation=True)
        rep = equivalence_check(cfg, p.k_e)
        assert rep.passed
        worst = max(worst, rep.measured["max_step_gap"])
    assert worst < 1e-9
    report(4, f"27 cases, worst per-step gap {worst:.2e} m")


def _board_normal(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, TASKS.index("WW")]))
    return build_environment("WW", rng).surface_normal


def test_criterion_5_force_trace_reproduction():
    """Nominal wiping: contact force settles to 4 +/- 0.2 N within 1 s of
    contact and holds; after a 3 cm board lowering it re-converges within 2 s
    of the board settling."""
    seed = 1
    nu = _board_normal(seed)
    cfg = ScenarioConfig(task="WW", mode="force_aware", duration=30.0, seed=seed,
                         wipe_passes=2)
    log = run_episode(cfg)
    fn = log.f_ext @ nu
    t_contact = int(np.flatnonzero(fn > 0.0)[0])
    contact_phase = np.flatnonzero(log.phase == 2)
    hold = fn[t_contact + 1000: contact_phase[-1]]
    assert hold.size > 5000
    assert np.all(np.abs(hold - 4.0) <= 0.2)

    lower = DisturbanceEvent("lower", start=6.0, duration=10.0, magnitude=0.03, ramp=0.5)
    log2 = run_episode(ScenarioConfig(task="WW", mode="force_aware", duration=30.0,
                                      seed=seed, wipe_passes=2, disturbances=(lower,)))
    fn2 = log2.f_ext @ nu
    settle_tick = int((6.0 + 0.5 + 2.0) * 1000)  # 2 s after the board stops
    end = np.flatnonzero(log2.phase == 2)[-1]
    recon = fn2[settle_tick:end]
    assert np.all(np.abs(recon - 4.0) <= 0.2)
    # The board drop visibly unloads the contact before recovery.
    assert fn2[6000:6600].min() < 3.0
    report(5, f"hold window |f-4| max {np.max(np.abs(hold - 4.0)):.3f} N, "
              f"post-disturbance max {np.max(np.abs(recon - 4.0)):.3f} N")


@pytest.fixture(scope="module")
def ww_suite_rows():
    cfgs = []
    for mode in ("force_aware", "baseline_low", "baseline_high"):
        for s in range(N_SEEDS):
            cfgs.append(ScenarioConfig(task="WW", mode=mode, duration=25.0, seed=s,
                                       noise=SUITE_NOISE))
    for mode in ("force_aware", "baseline_high"):
        for s in range(N_SEEDS):
            cfgs.append(ScenarioConfig(task="WW", mode=mode, duration=25.0, seed=s,
                                       noise=SUITE_NOISE,
                                       disturbances=default_disturbance("WW")))
    rows = run_suite(cfgs)
    return {(r.mode, r.disturbed): r for r in rows}


def test_criterion_6_baseline_ordering(ww_suite_rows):
    """25-seed wiping suite: ink ordering force_aware <= high <= low, >= 90%
    undisturbed success for force_aware, board-raise safety stops >= 60% for
    baseline_high and 0 for force_aware."""
    ours = ww_suite_rows[("force_aware", False)]
    low = ww_suite_rows[("baseline_low", False)]
    high = ww_suite_rows[("baseline_high", False)]
    assert ours.mean_remaining_ink_cm <= high.mean_remaining_ink_cm <= low.mean_remaining_ink_cm
    assert ours.success_rate >= 0.90
    ours_d = ww_suite_rows[("force_aware", True)]
    high_d = ww_suite_rows[("baseline_high", True)]
    assert high_d.safety_stop_rate >= 0.60
    assert ours_d.safety_stop_rate == 0.0
    report(6, f"ink mean ours {ours.mean_remaining_ink_cm:.2f} <= high "
              f"{high.mean_remaining_ink_cm:.2f} <= low {low.mean_remaining_ink_cm:.2f} cm; "
              f"ours ND success {ours.success_rate:.2f}; raise trips: high "
              f"{high_d.safety_stop_rate:.2f}, ours {ours_d.safety_stop_rate:.2f}")


def test_criterion_7_insertion_depth():
    """25-seed peg-in-hole at f_H = 2 N: mean depth >= 20 mm, every run >= 10 mm."""
    depths = []
    for s in range(N_SEEDS):
        cfg = ScenarioConfig(task="PH", mode="force_aware", duration=15.0, seed=s,
                             noise=SUITE_NOISE)
        depths.append(run_episode(cfg).metrics["insertion_depth_mm"])
    depths = np.array(depths)
    assert depths.mean() >= 20.0
    assert depths.min() >= 10.0
    report(7, f"depth mean {depths.mean():.1f} mm, min {depths.min():.1f} mm over {N_SEEDS} seeds")


def test_criterion_8_byte_identical_outputs(tmp_path):
    """Any command re-run with the same config and seed is byte-identical."""
    scenario = tmp_path / "s.ini"
    scenario.write_text(
        "[scenario]\ntask = WW\nmode = force_aware\nduration = 8.0\nseed = 5\n"
        "[noise]\npos_std = 0.002\ncontact_flip_prob = 0.01\n"
    )
    t1, t2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli_main(["run", "--config", str(scenario), "--out", t1]) == 0
    assert cli_main(["run", "--config", str(scenario), "--out", t2]) == 0
    assert Path(t1).read_bytes() == Path(t2).read_bytes()

    d1, d2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    for out in (d1, d2):
        assert cli_main(["gen-demos", "--task", "WW", "--count", "5", "--seed", "3",
                         "--out", out]) == 0
    assert Path(d1).read_bytes() == Path(d2).read_bytes()
    report(8, "trace and dataset reruns byte-identical")


def test_criterion_9_demo_generation_scale():
    """2000 wiping demonstrations in under 5 minutes, each plan erasing all ink
    under ideal tracking."""
    t0 = time.perf_counter()
    count = 2000
    covered = 0
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([0, i]))
        env = build_environment("WW", rng)
        demo = generate_demo("WW", env)
        pressed = [pose.position for pose, phase in zip(demo.poses, demo.phases)
                   if phase.contact_flag]
        env.presses.extend(range(len(pressed)))  # one tick per contact pose
        update_ink(env, np.array(pressed))
        if env.ink.inked_count() == 0:
            covered += 1
    elapsed = time.perf_counter() - t0
    assert covered == count
    assert elapsed < 300.0
    report(9, f"{count} demos in {elapsed:.1f}s, coverage pass {covered}/{count}")
