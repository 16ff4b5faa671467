import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from scenarios import GOLDEN_NOISE, SERIES, SUITE_NOISE, log_digest, scenario_config

from admitsim import harness
from admitsim.datasets import write_suite_csv
from admitsim.environments import DisturbanceEvent
from admitsim.harness import (
    RunLog,
    ScenarioConfig,
    SuiteRow,
    default_disturbance,
    run_episode,
    run_suite,
    success_check,
)
from admitsim.policy import DEFAULT_HORIZON, NoiseSpec, predict
from admitsim.tasks import TASK_SPECS, TASKS

# Each task and mode's controller, written out: the AdmittanceConfig fields in
# order (mass, stiffness, damping_ratio, tangent_scale, enable_normal_regulation,
# enable_tangent_stiffening, target_force, force_deadband), then damping,
# tangent_damping and the two eigenvalue triples.
_LOW = (1.0, 50.0, 2.0, 4.0, False, False, 0.0, 2.0, 28.284271247461902, 56.568542494923804,
        (50.0, 50.0, 50.0), (50.0, 50.0, 200.0))
_MID = (1.0, 200.0, 2.0, 4.0, False, False, 0.0, 2.0, 56.568542494923804, 113.13708498984761,
        (200.0, 200.0, 200.0), (200.0, 200.0, 800.0))
_HIGH = (1.0, 800.0, 2.0, 4.0, False, False, 0.0, 2.0, 113.13708498984761, 226.27416997969522,
         (800.0, 800.0, 800.0), (800.0, 800.0, 3200.0))
_DOOR = (1.0, 50.0, 2.0, 4.0, False, True, 0.0, 2.0, 28.284271247461902, 56.568542494923804,
         (50.0, 50.0, 50.0), (50.0, 50.0, 200.0))
CONTROLLERS = {
    ("MO", "force_aware"): _DOOR,
    ("PH", "force_aware"): (1.0, 50.0, 2.0, 4.0, True, False, 2.0, 2.0, 28.284271247461902,
                            56.568542494923804, (50.0, 50.0, 50.0), (50.0, 50.0, 200.0)),
    ("WW", "force_aware"): (1.0, 50.0, 2.0, 4.0, True, True, 4.0, 2.0, 28.284271247461902,
                            56.568542494923804, (50.0, 50.0, 50.0), (50.0, 50.0, 200.0)),
    ("DO", "force_aware"): _DOOR,
    **{(task, mode): row for task in ("MO", "PH", "WW", "DO")
       for mode, row in (("baseline_low", _LOW), ("baseline_mid", _MID),
                         ("baseline_high", _HIGH))},
}

FLAG_SERIES = ("phase", "contact", "disturbed")


def make_log(metrics, safety_stopped=False, n=0):
    z = np.zeros((n, 3))
    return RunLog(np.zeros(n), z, z, z, z, z, np.zeros(n, dtype=np.int8),
                  np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int8),
                  metrics, False, safety_stopped)


class TestScenarioConfig:
    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            ScenarioConfig(task="XX")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ScenarioConfig(task="WW", mode="floppy")

    def test_duration_capped_by_task_limit(self):
        with pytest.raises(ValueError):
            ScenarioConfig(task="PH", duration=90.0)
        ScenarioConfig(task="WW", duration=90.0)  # within the 120 s limit

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_duration(self, duration):
        with pytest.raises(ValueError, match=r"\[0, 120"):
            ScenarioConfig(task="WW", duration=duration)

    def test_invalid_admittance_override_fails_at_construction(self):
        from admitsim.errors import NonPositiveParameter
        with pytest.raises(NonPositiveParameter):
            ScenarioConfig(task="WW", admittance_overrides={"mass": -1.0})

    @pytest.mark.parametrize("kwargs", [
        {"env_overrides": {"k_e": -5.0}},
        {"env_overrides": {"k_e": float("nan")}},
        {"env_overrides": {"latch_force": -1.0}},
        {"env_overrides": {"latch_force": float("inf")}},
        {"safety_limit": -1.0},
        {"safety_limit": float("nan")},
        {"safety_debounce": float("nan")},
        {"safety_debounce": -0.01},
    ])
    def test_rejects_invalid_environment_and_safety_values(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(task="DO", **kwargs)

    @pytest.mark.parametrize("build", [lambda: ScenarioConfig(task="WW", seed=-1),
                                       lambda: NoiseSpec(seed=-1)], ids=["scenario", "noise"])
    def test_rejects_negative_seed(self, build):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            build()

    def test_rejects_unknown_environment_override(self, tmp_path):
        from admitsim.config import parse_scenario
        from admitsim.errors import ConfigParse
        with pytest.raises(ValueError, match="unknown environment override 'bogus' for WW"):
            ScenarioConfig(task="WW", env_overrides={"bogus": 3.0})
        # The INI parser leaves the [environment] keys to ScenarioConfig.
        path = tmp_path / "s.ini"
        path.write_text("[scenario]\ntask = WW\n[environment]\nbogus = 3.0\n")
        with pytest.raises(ConfigParse, match="unknown environment override 'bogus' for WW"):
            parse_scenario(str(path))

    @pytest.mark.parametrize("axes", [((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                                      ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
                                      ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.1, 1.0))])
    def test_rejects_tilts_about_different_axes(self, axes):
        # The tilt angles add up about one axis: two axes would tilt the board
        # about the last one by the sum of the angles.
        events = tuple(DisturbanceEvent("tilt", 1.0, 2.0, 0.1, direction=a) for a in axes)
        with pytest.raises(ValueError, match="tilt events must share one direction"):
            ScenarioConfig(task="WW", disturbances=events)

    def test_tilts_about_one_axis_accepted(self):
        events = (DisturbanceEvent("tilt", 1.0, 2.0, 0.1, direction=(0.0, 0.0, 2.0)),
                  DisturbanceEvent("raise", 1.0, 2.0, 0.01, direction=(1.0, 0.0, 0.0)),
                  DisturbanceEvent("tilt", 1.5, 2.0, -0.1, direction=(0.0, 0.0, 1.0)))
        assert ScenarioConfig(task="WW", disturbances=events).disturbances == events

    def test_zero_debounce_accepted(self):
        assert ScenarioConfig(task="WW", safety_debounce=0.0).safety_debounce == 0.0

    def test_mode_gain_mapping(self):
        fa = ScenarioConfig(task="WW", mode="force_aware").admittance
        assert fa.stiffness == 50.0
        assert fa.enable_normal_regulation and fa.enable_tangent_stiffening
        assert fa.target_force == 4.0
        hi = ScenarioConfig(task="WW", mode="baseline_high").admittance
        assert hi.stiffness == 800.0
        assert not hi.enable_normal_regulation and not hi.enable_tangent_stiffening
        ph = ScenarioConfig(task="PH", mode="force_aware").admittance
        assert ph.target_force == 2.0 and not ph.enable_tangent_stiffening

    @pytest.mark.parametrize("task,mode", sorted(CONTROLLERS))
    def test_each_mode_runs_its_written_out_controller(self, task, mode):
        adm = ScenarioConfig(task, mode).admittance
        assert astuple(adm) + (adm.damping, adm.tangent_damping, adm._eigs,
                               adm._tangent_eigs) == CONTROLLERS[task, mode]
        built = TASK_SPECS[task].admittance if mode == "force_aware" else harness.BASELINES[mode]
        assert adm == built

    def test_the_controller_is_not_a_field(self):
        assert [f.name for f in fields(ScenarioConfig)] == [
            "task", "mode", "duration", "seed", "noise", "disturbances",
            "admittance_overrides", "env_overrides", "safety_limit", "safety_debounce",
            "wipe_passes"]
        a, b = ScenarioConfig("WW"), ScenarioConfig("WW")
        object.__setattr__(b, "admittance", harness.BASELINES["baseline_high"])
        assert a == b and repr(a) == repr(b) and "AdmittanceConfig" not in repr(a)
        hi = replace(a, mode="baseline_high", admittance_overrides={"mass": 2.0})
        assert hi.admittance == replace(harness.BASELINES["baseline_high"], mass=2.0)
        assert replace(hi, mode="force_aware", admittance_overrides={}).admittance == a.admittance


def longest_run_over(log, limit):
    """Longest run of consecutive ticks with |f_ext| above the limit, and the final run."""
    best = run = 0
    for over in np.linalg.norm(log.f_ext, axis=1) > limit:
        run = run + 1 if over else 0
        best = max(best, run)
    return best, run


class TestSafetyMonitor:
    """The debounced stop inside run_episode, mostly on the golden WW
    baseline_high episode whose board raise pushes the force past the 25 N
    limit (debounce 0.02 s = 20 ticks)."""

    def test_sustained_violation_stops(self):
        cfg = scenario_config("ww_baseline_high_raise_stop")
        assert (cfg.safety_limit, cfg.safety_debounce) == (25.0, 0.02)
        log = run_episode(cfg)
        assert log.safety_stopped and not log.success
        assert log.n_ticks == 5321
        # It stops on the first tick that makes debounce + 1 consecutive ticks over the limit.
        assert longest_run_over(log, 25.0) == (21, 21)

    def test_short_spike_survives_debounce(self):
        log = run_episode(scenario_config("ww_baseline_high_raise_stop", safety_debounce=1.0))
        assert not log.safety_stopped
        assert log.n_ticks == 6000
        assert longest_run_over(log, 25.0)[0] == 700  # 700 ticks < 1000-tick debounce

    def test_all_below_limit(self):
        long_debounce = scenario_config("ww_baseline_high_raise_stop", safety_debounce=1.0)
        peak = run_episode(long_debounce).metrics["peak_force_n"]
        log = run_episode(scenario_config("ww_baseline_high_raise_stop", safety_limit=peak + 1.0))
        assert not log.safety_stopped
        assert log.n_ticks == 6000
        assert log.metrics["peak_force_n"] == peak

    def test_a_force_at_the_limit_is_not_over_it(self):
        """A tick counts when its force is above the limit, not at it: with no
        debounce, a limit equal to the episode's own peak force never stops it."""
        cfg = scenario_config("ww_force_aware_clean", safety_debounce=0.0)
        peak = run_episode(cfg).metrics["peak_force_n"]
        log = run_episode(replace(cfg, safety_limit=peak))
        assert not log.safety_stopped and log.n_ticks == 4000
        assert log.metrics["peak_force_n"] == peak


class TestSuccessCheck:
    def test_microwave_threshold(self):
        log = make_log({"opening_angle_deg": 55.0})
        assert success_check("MO", log)
        assert not success_check("MO", make_log({"opening_angle_deg": 45.0}))

    def test_wiping_threshold(self):
        assert not success_check("WW", make_log({"remaining_ink_cm": 6.0}))
        assert success_check("WW", make_log({"remaining_ink_cm": 3.0}))

    def test_safety_stop_overrides_metrics(self):
        log = make_log({"opening_angle_deg": 80.0}, safety_stopped=True)
        assert not success_check("MO", log)

    def test_insertion_threshold(self):
        assert success_check("PH", make_log({"insertion_depth_mm": 10.0}))
        assert not success_check("PH", make_log({"insertion_depth_mm": 9.0}))

    @pytest.mark.parametrize("task", TASKS)
    def test_final_metrics_measure_the_task_metric(self, task):
        # Each task measures its own success metric; the others stay NaN.
        log = run_episode(ScenarioConfig(task=task, duration=0.3, seed=1))
        metrics = dict(log.metrics)
        assert metrics.pop("success") == success_check(task, log)
        assert tuple(metrics) == harness.FINAL_METRICS
        measured = {name for name, value in metrics.items() if not math.isnan(value)}
        assert measured == {TASK_SPECS[task].metric, "peak_force_n"}


class TestRunEpisode:
    def test_the_settle_tail_holds_the_last_command_for_one_second(self):
        # A literal, not SETTLE_STEPS: the PH seed-1 plan is 51 policy steps,
        # and the tail holds its last command for 10 more.
        assert run_episode(ScenarioConfig("PH", duration=60.0, seed=1)).n_ticks == 6100

    def test_rate_coupling_tick_count(self):
        # Duration shorter than the demo: exactly duration * 1000 ticks.
        cfg = ScenarioConfig(task="WW", duration=3.0, seed=0)
        log = run_episode(cfg)
        assert log.n_ticks == 3000
        assert np.all(np.diff(log.t) > 0)

    def test_zero_duration_gives_empty_valid_log(self):
        cfg = ScenarioConfig(task="WW", duration=0.0, seed=0)
        log = run_episode(cfg)
        assert log.n_ticks == 0
        assert not log.success
        assert np.isfinite(log.metrics["remaining_ink_cm"])

    def test_ph_reaches_success_depth(self):
        cfg = ScenarioConfig(task="PH", mode="force_aware", duration=15.0, seed=1,
                             noise=SUITE_NOISE)
        log = run_episode(cfg)
        assert log.metrics["insertion_depth_mm"] >= 10.0
        assert log.success

    def test_logs_of_successive_episodes_are_independent(self):
        # A log buffer shared between episodes would rewrite the first log.
        first = run_episode(ScenarioConfig(task="WW", duration=3.0, seed=5, noise=SUITE_NOISE))
        before = log_digest(first)
        second = run_episode(ScenarioConfig(task="WW", duration=3.0, seed=6, noise=SUITE_NOISE))
        assert log_digest(first) == before
        assert log_digest(second) != before
        for log in (first, second):
            for name in SERIES:
                arr = getattr(log, name)
                if name in FLAG_SERIES:
                    assert (arr.dtype, arr.shape) == (np.int8, (3000,)), name
                elif name == "t":
                    assert (arr.dtype, arr.shape) == (np.float64, (3000,)), name
                else:
                    assert (arr.dtype, arr.shape) == (np.float64, (3000, 3)), name

    def test_an_episode_that_cannot_advance_logs_the_same_run(self):
        cfg = ScenarioConfig(task="WW", duration=3.0, seed=5, noise=SUITE_NOISE)
        ep = harness._Episode(cfg)
        ep.advance(ep.max_ticks)
        log = ep.log()
        size = len(ep.records)
        assert size == log.n_ticks * harness._RECORD.size  # the log views them
        ep.advance(ep.max_ticks)
        assert len(ep.records) == size
        assert log_digest(ep.log()) == log_digest(log) == log_digest(run_episode(cfg))

    @pytest.mark.parametrize("task", TASKS)
    def test_float_series_are_views_of_the_tick_records(self, task):
        cfg = ScenarioConfig(task=task, duration=1.0, seed=2, noise=SUITE_NOISE)
        ep = harness._Episode(cfg)
        ep.advance(ep.max_ticks)
        log = ep.log()
        n = log.n_ticks
        block = np.frombuffer(ep.records, np.float64).reshape(n, 15)
        rows = np.array(list(harness._RECORD.iter_unpack(ep.records))).reshape(n, 15)
        names = ("x_r", "v_r", "f_ext", "f_cmd", "k_eigs")  # RunLog's order
        for i, name in enumerate(names):
            arr = getattr(log, name)
            assert (arr.dtype, arr.shape) == (np.float64, (n, 3)), name
            for j in range(len(names)):  # the columns of its field, and no others
                assert np.shares_memory(arr, block[:, 3 * j:3 * j + 3]) == (i == j), name
            assert arr.tobytes() == rows[:, 3 * i:3 * i + 3].tobytes(), name
        assert np.shares_memory(log.disturbed, np.frombuffer(ep.flags[2], np.int8))
        assert log_digest(log) == log_digest(run_episode(cfg))

    def test_disturbance_flag_logged(self):
        cfg = ScenarioConfig(task="WW", duration=8.0, seed=3,
                             disturbances=default_disturbance("WW"))
        log = run_episode(cfg)
        assert log.disturbed[:4000].max() == 0  # raise starts at 5 s
        assert log.disturbed[5500:].max() == 1


def suite_episodes(monkeypatch, cfgs):
    """run_suite(cfgs) under monkeypatch's patches, which it then undoes: the
    (config, log) of every episode the suite ran, in order, each log checked
    equal to its config's standalone run."""
    seen = []
    original = harness.run_episode

    def tap(cfg):
        log = original(cfg)
        seen.append((cfg, log))
        return log

    monkeypatch.setattr(harness, "run_episode", tap)
    run_suite(cfgs)
    monkeypatch.undo()
    for cfg, log in seen:
        assert log_digest(log) == log_digest(run_episode(cfg)), cfg
    return seen


def reference_flags(cfg, n):
    """Each tick's phase and contact flag by the loop's rule: the command of
    the tick's policy step, and past the demo the last one, held."""
    ep = harness._Episode(cfg)
    tuples, phases = ep.demo.tuples, ep.demo.phases
    chunks = {}
    phase, contact = [], []
    for k in range(n):
        p = min(k // harness.TICKS_PER_STEP, len(tuples) - 1)
        p0 = p - p % DEFAULT_HORIZON
        if p0 not in chunks:
            chunks[p0] = predict(p0, tuples, ep.noise)
        phase.append(phases[p].value)
        contact.append(chunks[p0][p - p0].c)
    return phase, contact


class TestDerivedSeries:
    """t is k * dt, and phase and contact are recorded once per policy step and
    spread over its ticks; every episode end must still give one value per tick."""

    def check(self, log, cfg):
        n = log.n_ticks
        dt = 1.0 / harness.CONTROL_HZ
        assert log.t.dtype == np.float64
        assert log.t.tobytes() == np.array([k * dt for k in range(n)]).tobytes()
        phase, contact = reference_flags(cfg, n)
        for name, expected in (("phase", phase), ("contact", contact)):
            arr = getattr(log, name)
            assert (arr.dtype, arr.shape) == (np.int8, (n,)), name
            assert arr.tolist() == expected, name

    def test_safety_stop_inside_a_policy_step(self):
        cfg = scenario_config("ww_baseline_high_raise_stop")
        log = run_episode(cfg)
        assert log.safety_stopped and log.n_ticks % harness.TICKS_PER_STEP == 21
        self.check(log, cfg)

    def test_end_on_the_settle_tail(self):
        cfg = ScenarioConfig("PH", "force_aware", 30.0, 1, noise=GOLDEN_NOISE)
        log = run_episode(cfg)
        steps = len(harness._Episode(cfg).demo.tuples) + harness.SETTLE_STEPS
        assert not log.safety_stopped
        assert log.n_ticks == steps * harness.TICKS_PER_STEP < 30_000
        assert log.contact.max() == 1 and len(set(log.phase.tolist())) > 1
        self.check(log, cfg)

    def test_end_inside_a_policy_step_at_the_duration(self):
        cfg = ScenarioConfig("WW", "force_aware", 2.345, 1, noise=GOLDEN_NOISE)
        log = run_episode(cfg)
        assert log.n_ticks == 2345
        self.check(log, cfg)

    def test_suite_twin_resumed_inside_a_policy_step(self, monkeypatch):
        raise_ = (DisturbanceEvent("raise", start=5.0505, duration=10.0, magnitude=0.07,
                                   ramp=0.5),)
        clean = ScenarioConfig("WW", "force_aware", 7.0, 1, noise=GOLDEN_NOISE)
        disturbed = replace(clean, disturbances=raise_)
        assert harness._onset_tick(raise_, 7000) == 5051
        built = []
        episode = harness._Episode

        def counting_episode(cfg):
            built.append(cfg)
            return episode(cfg)

        monkeypatch.setattr(harness, "_Episode", counting_episode)
        seen = suite_episodes(monkeypatch, [clean, disturbed])
        assert [cfg for cfg, _ in seen] == [disturbed, clean]
        assert built == [disturbed]  # the twin continued the disturbed episode
        for cfg, log in seen:
            self.check(log, cfg)


class TestRunSuite:
    def test_empty(self):
        assert run_suite([]) == []

    def test_identical_configs_identical_rows(self):
        cfg = ScenarioConfig(task="WW", duration=6.0, seed=4, noise=SUITE_NOISE)
        r1 = run_suite([cfg])
        r2 = run_suite([cfg])
        assert repr(r1) == repr(r2)

    def test_suite_csv_columns_are_the_row_fields(self, tmp_path):
        rows = run_suite([ScenarioConfig(task="PH", duration=0.5, seed=s) for s in range(2)])
        path = tmp_path / "suite.csv"
        write_suite_csv(str(path), rows)
        header, row = path.read_text().splitlines()
        names = [f.name for f in fields(SuiteRow)]
        assert header.split(",") == names
        assert names[-4:] == ["mean_" + name for name in harness.FINAL_METRICS]
        assert row.split(",")[:3] == ["force_aware", "0", "2"]
        assert row.split(",")[3:] == [repr(float(v)) for v in astuple(rows[0])[3:]]

    def test_grouping_by_mode_and_condition(self):
        cfgs = []
        for mode in ("force_aware", "baseline_low"):
            for seed in range(2):
                cfgs.append(ScenarioConfig(task="WW", mode=mode, duration=6.0,
                                           seed=seed, noise=SUITE_NOISE))
        rows = run_suite(cfgs)
        assert [r.mode for r in rows] == ["force_aware", "baseline_low"]
        assert all(r.episodes == 2 for r in rows)
        assert all(0.0 <= r.success_rate <= 1.0 for r in rows)


class TestSuiteTwins:
    """run_suite runs each disturbed config right before its clean twin and
    continues the twin from the disturbed episode at the onset; every episode
    must still equal its own standalone run_episode bit for bit."""

    def cases(self):
        """A suite's configs: clean configs next to disturbed twins, and the cases
        that share nothing."""
        def cfg(task, mode, duration, seed, events=()):
            return ScenarioConfig(task, mode, duration, seed, noise=GOLDEN_NOISE,
                                  disturbances=events)

        two_starts = (DisturbanceEvent("force_pulse", start=2.0, duration=0.5, magnitude=5.0,
                                       direction=(1.0, 0.0, 0.0), ramp=0.1),
                      default_disturbance("PH")[0])  # a shift at 3.0 s
        at_zero = (DisturbanceEvent("force_pulse", start=0.0, duration=2.0, magnitude=10.0,
                                    direction=(0.0, 1.0, 0.0), ramp=0.3),)
        too_late = (DisturbanceEvent("force_pulse", start=9.0, duration=1.0, magnitude=10.0,
                                     direction=(0.0, 1.0, 0.0)),)
        step = (DisturbanceEvent("raise", start=2.0, duration=1.0, magnitude=0.01),)
        ww_fa = cfg("WW", "force_aware", 6.0, 1)
        return [
            # A twin that safety-stops after the onset (5321 ticks, onset at 5000).
            cfg("WW", "baseline_high", 6.0, 1),
            cfg("WW", "baseline_high", 6.0, 1, default_disturbance("WW")),
            # A ramp-0 raise from exactly tick 2000, and its pair twice.
            ww_fa,
            cfg("WW", "force_aware", 6.0, 1, step),
            ww_fa,
            cfg("WW", "force_aware", 6.0, 1, step),
            # Two events with different starts: the onset is the earlier one.
            cfg("PH", "force_aware", 4.0, 1),
            cfg("PH", "force_aware", 4.0, 1, two_starts),
            # An event from t = 0: nothing to share.
            cfg("MO", "force_aware", 3.0, 1, at_zero),
            cfg("MO", "force_aware", 3.0, 1),
            # A disturbance after the episode's end: nothing to share.
            cfg("DO", "baseline_mid", 4.0, 1),
            cfg("DO", "baseline_mid", 4.0, 1, too_late),
            # The DO pulse at 6 s, and a disturbed config with no clean twin.
            cfg("DO", "force_aware", 7.0, 1, default_disturbance("DO")),
            cfg("DO", "force_aware", 7.0, 1),
            cfg("PH", "baseline_mid", 4.0, 2, default_disturbance("PH")),
        ]

    @pytest.mark.parametrize("start,max_ticks", [
        *((start, 4000) for start in (2.0, 2.007, 0.3, 0.0015, math.nextafter(0.3, 1.0),
                                      math.nextafter(2.007, 0.0), 0.0, -1.0, -1e308, 3.9995,
                                      4.0, 9.0, 1e308)),
        *((start, max_ticks) for max_ticks in (0, 1) for start in (-1.0, 0.0, 0.0005, 2.0))])
    def test_onset_tick_is_the_first_tick_at_or_past_the_start(self, start, max_ticks):
        events = (DisturbanceEvent("force_pulse", start, 1.0, 1.0),
                  DisturbanceEvent("force_pulse", start + 0.5, 1.0, 1.0))
        dt = 1.0 / harness.CONTROL_HZ
        first = next((k for k in range(max_ticks) if k * dt >= start), max_ticks)
        assert harness._onset_tick(events, max_ticks) == first
        assert harness._onset_tick((), max_ticks) == max_ticks

    def test_every_suite_episode_equals_its_standalone_run(self, monkeypatch):
        cfgs = self.cases()
        builds = []
        build = harness.build_environment

        def counting_build(*args):
            builds.append(args[0])
            return build(*args)

        monkeypatch.setattr(harness, "build_environment", counting_build)
        seen = suite_episodes(monkeypatch, cfgs)
        assert sorted(map(repr, (cfg for cfg, _ in seen))) == sorted(map(repr, cfgs))
        # Five twins continue a disturbed episode (three WW, PH, DO) and build
        # no environment of their own.
        assert len(builds) == len(cfgs) - 5
        assert [(cfg.mode, bool(cfg.disturbances)) for cfg, log in seen
                if log.safety_stopped] == [("baseline_high", True)]


def first_settled_tick(events, onset, max_ticks):
    """The settle tick by its definition: the first tick from the onset on at
    which every event is settled, or max_ticks."""
    dt = 1.0 / harness.CONTROL_HZ
    return next((k for k in range(onset, max_ticks)
                 if all(ev.envelope(k * dt)[1] for ev in events)), max_ticks)


class TestSettledDisturbances:
    """From the tick at which apply_disturbances reports every event settled
    on, the loop holds that result instead of calling it again; the logs must
    not change."""

    RAISE = DisturbanceEvent("raise", 2.0, 10.0, 0.03, ramp=0.5)
    PULSE = DisturbanceEvent("force_pulse", 3.0, 1.0, 5.0, direction=(1.0, 0.0, 0.0),
                             ramp=0.2)

    def cfg(self, events, duration=6.0, mode="force_aware"):
        return ScenarioConfig("WW", mode, duration, 1, noise=GOLDEN_NOISE,
                              disturbances=events)

    @staticmethod
    def counted_run(monkeypatch, cfg, never_settled=False):
        """The log of cfg and the times of its apply_disturbances calls. With
        never_settled, each call reports an event still unsettled, so the loop
        calls on every tick from the onset on."""
        calls = []
        original = harness.apply_disturbances

        def counting(env, evs, t):
            calls.append(t)
            force, active, settled = original(env, evs, t)
            return force, active, settled and not never_settled

        monkeypatch.setattr(harness, "apply_disturbances", counting)
        log = run_episode(cfg)
        monkeypatch.undo()
        return log, calls

    @pytest.mark.parametrize("events,settle", [
        ((RAISE,), 2500),
        ((PULSE,), 4001),
        ((DisturbanceEvent("sinusoid", 2.0, 50.0, 0.003, ramp=0.5, omega=3.0),), 6000),
        ((PULSE, RAISE), 4001),
        ((RAISE, DisturbanceEvent("tilt", 1.0, 5.0, 0.05, direction=(1.0, 0.0, 0.0),
                                  ramp=2.0)), 3000),
        ((DisturbanceEvent("lower", 2.0, 1.0, 0.01),), 2000),
    ], ids=["raise", "pulse", "sinusoid", "two", "tilt", "step"])
    def test_calls_run_from_the_onset_to_the_settle_tick(self, monkeypatch, events, settle):
        cfg = self.cfg(events)
        max_ticks = 6000
        onset = harness._onset_tick(events, max_ticks)
        assert first_settled_tick(events, onset, max_ticks) == settle
        log, calls = self.counted_run(monkeypatch, cfg)
        every_tick, every_call = self.counted_run(monkeypatch, cfg, never_settled=True)

        dt = 1.0 / harness.CONTROL_HZ
        n = log.n_ticks
        assert n > settle or settle == max_ticks
        assert calls == [k * dt for k in range(onset, min(settle + 1, n))]
        assert every_call == [k * dt for k in range(onset, n)]
        assert log_digest(log) == log_digest(every_tick)

    @pytest.mark.parametrize("events", [
        (DisturbanceEvent("force_pulse", -1e308, 1.0, 1.0),),
        (DisturbanceEvent("raise", 0.0, 1.0, 0.01, ramp=0.0),),
        (DisturbanceEvent("raise", 0.0015, 1.0, 0.01, ramp=0.5),
         DisturbanceEvent("sinusoid", 0.3, 1.7, 0.01, ramp=0.1)),
        (DisturbanceEvent("force_pulse", 1.0, 2.999, 1.0, ramp=0.1),),
        (DisturbanceEvent("force_pulse", 1.0, 3.0, 1.0),),
        (DisturbanceEvent("raise", 3.5, 1.0, 0.01, ramp=0.5),),
        (DisturbanceEvent("raise", 9.0, 1.0, 0.01),),
        (DisturbanceEvent("force_pulse", 1e308, 1.0, 1.0),),
        (),
    ])
    def test_calls_end_at_the_first_settled_tick(self, monkeypatch, events):
        dt = 1.0 / harness.CONTROL_HZ
        for max_ticks in (4000, 3999, 4001):
            log, calls = self.counted_run(monkeypatch, self.cfg(events, max_ticks * dt))
            onset = harness._onset_tick(events, max_ticks)
            settle = first_settled_tick(events, onset, max_ticks)
            assert calls == [k * dt for k in range(onset, min(settle + 1, log.n_ticks))], \
                max_ticks

    @pytest.mark.parametrize("ramp", [0.5, 0.0])
    def test_resumed_across_the_settle_tick(self, ramp):
        cfg = self.cfg((replace(self.RAISE, ramp=ramp),))
        settle = first_settled_tick(cfg.disturbances, 0, 6000)
        assert settle == 2000 + 1000 * ramp
        alone = log_digest(run_episode(cfg))
        for split in (settle - 1, settle, settle + 1):
            ep = harness._Episode(cfg)
            ep.advance(split)
            ep.advance(ep.max_ticks)
            assert log_digest(ep.log()) == alone, split

    def test_suite_pair_resumed_at_the_settle_tick(self, monkeypatch):
        # A ramp-0 raise settles at its onset, where run_suite parts the
        # disturbed episode from its clean twin and resumes it.
        step = (replace(self.RAISE, ramp=0.0),)
        clean = self.cfg(())
        seen = suite_episodes(monkeypatch, [clean, self.cfg(step), clean, self.cfg((self.RAISE,))])
        assert len(seen) == 4
