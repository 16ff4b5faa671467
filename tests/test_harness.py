import hashlib
import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

NOISE = NoiseSpec(pos_std=0.002, rot_std=0.01, normal_cone_std=0.05,
                  contact_flip_prob=0.01, seed=0)


SERIES = ("t", "x_r", "v_r", "f_ext", "f_cmd", "k_eigs", "phase", "contact", "disturbed")
FLAG_SERIES = ("phase", "contact", "disturbed")


def series_digest(log) -> str:
    """SHA-256 over every per-tick series (dtype, shape, bytes) and the metrics."""
    h = hashlib.sha256()
    for name in SERIES:
        arr = getattr(log, name)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}\n".encode())
        h.update(arr.tobytes())
    h.update(repr(sorted(log.metrics.items())).encode())
    return h.hexdigest()


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
        {"env_overrides": {"latch_force": 0.0}},
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
        fa = ScenarioConfig(task="WW", mode="force_aware").build_admittance()
        assert fa.stiffness == 50.0
        assert fa.enable_normal_regulation and fa.enable_tangent_stiffening
        assert fa.target_force == 4.0
        hi = ScenarioConfig(task="WW", mode="baseline_high").build_admittance()
        assert hi.stiffness == 800.0
        assert not hi.enable_normal_regulation and not hi.enable_tangent_stiffening
        ph = ScenarioConfig(task="PH", mode="force_aware").build_admittance()
        assert ph.target_force == 2.0 and not ph.enable_tangent_stiffening


def longest_run_over(log, limit):
    """Longest run of consecutive ticks with |f_ext| above the limit, and the final run."""
    best = run = 0
    for over in np.linalg.norm(log.f_ext, axis=1) > limit:
        run = run + 1 if over else 0
        best = max(best, run)
    return best, run


class TestSafetyMonitor:
    """The debounced stop inside run_episode, on a WW baseline_high episode whose
    board raise pushes the force past the 25 N limit (debounce 0.02 s = 20 ticks)."""

    @staticmethod
    def stop_scenario(**kwargs):
        noise = NoiseSpec(pos_std=0.002, rot_std=0.01, normal_cone_std=0.05,
                          contact_flip_prob=0.01, seed=11)
        return ScenarioConfig("WW", "baseline_high", 6.0, 1, noise=noise,
                              disturbances=default_disturbance("WW"), **kwargs)

    def test_sustained_violation_stops(self):
        cfg = self.stop_scenario()
        assert (cfg.safety_limit, cfg.safety_debounce) == (25.0, 0.02)
        log = run_episode(cfg)
        assert log.safety_stopped and not log.success
        assert log.n_ticks == 5321
        # It stops on the first tick that makes debounce + 1 consecutive ticks over the limit.
        assert longest_run_over(log, 25.0) == (21, 21)

    def test_short_spike_survives_debounce(self):
        log = run_episode(self.stop_scenario(safety_debounce=1.0))
        assert not log.safety_stopped
        assert log.n_ticks == 6000
        assert longest_run_over(log, 25.0)[0] == 700  # 700 ticks < 1000-tick debounce

    def test_all_below_limit(self):
        peak = run_episode(self.stop_scenario(safety_debounce=1.0)).metrics["peak_force_n"]
        log = run_episode(self.stop_scenario(safety_limit=peak + 1.0))
        assert not log.safety_stopped
        assert log.n_ticks == 6000
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
    def test_bit_identical_reruns(self):
        cfg = ScenarioConfig(task="WW", duration=6.0, seed=12, noise=NOISE)
        a = run_episode(cfg)
        b = run_episode(cfg)
        assert np.array_equal(a.x_r, b.x_r)
        assert np.array_equal(a.v_r, b.v_r)
        assert np.array_equal(a.f_ext, b.f_ext)
        assert np.array_equal(a.f_cmd, b.f_cmd)
        assert repr(a.metrics) == repr(b.metrics)  # NaN-tolerant equality

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
                             noise=NOISE)
        log = run_episode(cfg)
        assert log.metrics["insertion_depth_mm"] >= 10.0
        assert log.success

    def test_logs_of_successive_episodes_are_independent(self):
        # A log buffer shared between episodes would rewrite the first log.
        first = run_episode(ScenarioConfig(task="WW", duration=3.0, seed=5, noise=NOISE))
        before = series_digest(first)
        second = run_episode(ScenarioConfig(task="WW", duration=3.0, seed=6, noise=NOISE))
        assert series_digest(first) == before
        assert series_digest(second) != before
        for log in (first, second):
            for name in SERIES:
                arr = getattr(log, name)
                assert arr.flags.c_contiguous, name
                if name in FLAG_SERIES:
                    assert (arr.dtype, arr.shape) == (np.int8, (3000,)), name
                elif name == "t":
                    assert (arr.dtype, arr.shape) == (np.float64, (3000,)), name
                else:
                    assert (arr.dtype, arr.shape) == (np.float64, (3000, 3)), name

    def test_the_log_of_an_episode_that_cannot_advance_is_taken_once(self):
        cfg = ScenarioConfig(task="WW", duration=3.0, seed=5, noise=NOISE)
        ep = harness._Episode(cfg)
        ep.advance(ep.max_ticks)
        log = ep.log()
        assert len(ep.records) == 0  # the series were moved out of the tick records
        assert ep.log() is log
        ep.advance(ep.max_ticks)
        assert ep.log() is log
        assert series_digest(log) == series_digest(run_episode(cfg))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 1001])
    def test_take_series_equals_copies_of_the_records(self, n):
        values = np.arange(15 * n, dtype=float).reshape(n, 15) - 0.5
        records = bytearray(values.tobytes())
        series = harness._take_series(records, n)
        assert len(records) == 0
        for i, got in enumerate(series):
            assert got.flags.c_contiguous and got.shape == (n, 3)
            assert got.tobytes() == values[:, 3 * i:3 * i + 3].copy().tobytes()

    def test_disturbance_flag_logged(self):
        cfg = ScenarioConfig(task="WW", duration=8.0, seed=3,
                             disturbances=default_disturbance("WW"))
        log = run_episode(cfg)
        assert log.disturbed[:4000].max() == 0  # raise starts at 5 s
        assert log.disturbed[5500:].max() == 1


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
            chunks[p0] = predict(p0, tuples, ep.noise, DEFAULT_HORIZON)
        phase.append(phases[p].value)
        contact.append(chunks[p0][p - p0][2])
    return phase, contact


class TestDerivedSeries:
    """t is k * dt, and phase and contact are recorded once per policy step and
    spread over its ticks; every episode end must still give one value per tick."""

    NOISE11 = TestSafetyMonitor.stop_scenario().noise

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
        cfg = TestSafetyMonitor.stop_scenario()
        log = run_episode(cfg)
        assert log.safety_stopped and log.n_ticks % harness.TICKS_PER_STEP == 21
        self.check(log, cfg)

    def test_end_on_the_settle_tail(self):
        cfg = ScenarioConfig("PH", "force_aware", 30.0, 1, noise=self.NOISE11)
        log = run_episode(cfg)
        steps = len(harness._Episode(cfg).demo.tuples) + harness.SETTLE_STEPS
        assert not log.safety_stopped
        assert log.n_ticks == steps * harness.TICKS_PER_STEP < 30_000
        assert log.contact.max() == 1 and len(set(log.phase.tolist())) > 1
        self.check(log, cfg)

    def test_end_inside_a_policy_step_at_the_duration(self):
        cfg = ScenarioConfig("WW", "force_aware", 2.345, 1, noise=self.NOISE11)
        log = run_episode(cfg)
        assert log.n_ticks == 2345
        self.check(log, cfg)

    def test_suite_twin_resumed_inside_a_policy_step(self, monkeypatch):
        raise_ = (DisturbanceEvent("raise", start=5.0505, duration=10.0, magnitude=0.07,
                                   ramp=0.5),)
        clean = ScenarioConfig("WW", "force_aware", 7.0, 1, noise=self.NOISE11)
        disturbed = replace(clean, disturbances=raise_)
        assert harness._onset_tick(raise_, 7000) == 5051
        seen, built = [], []
        original, episode = harness.run_episode, harness._Episode

        def tap(cfg):
            log = original(cfg)
            seen.append((cfg, log))
            return log

        def counting_episode(cfg):
            built.append(cfg)
            return episode(cfg)

        monkeypatch.setattr(harness, "run_episode", tap)
        monkeypatch.setattr(harness, "_Episode", counting_episode)
        run_suite([clean, disturbed])
        monkeypatch.undo()

        assert [cfg for cfg, _ in seen] == [disturbed, clean]
        assert built == [disturbed]  # the twin continued the disturbed episode
        for cfg, log in seen:
            alone = run_episode(cfg)
            assert series_digest(log) == series_digest(alone), cfg
            self.check(log, cfg)


class TestRunSuite:
    def test_empty(self):
        assert run_suite([]) == []

    def test_identical_configs_identical_rows(self):
        cfg = ScenarioConfig(task="WW", duration=6.0, seed=4, noise=NOISE)
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
                                           seed=seed, noise=NOISE))
        rows = run_suite(cfgs)
        assert [r.mode for r in rows] == ["force_aware", "baseline_low"]
        assert all(r.episodes == 2 for r in rows)
        assert all(0.0 <= r.success_rate <= 1.0 for r in rows)


class TestSuiteTwins:
    """run_suite runs each disturbed config right before its clean twin and
    continues the twin from the disturbed episode at the onset; every episode
    must still equal its own standalone run_episode bit for bit."""

    NOISE11 = NoiseSpec(pos_std=0.002, rot_std=0.01, normal_cone_std=0.05,
                        contact_flip_prob=0.01, seed=11)

    def cases(self):
        """A suite's configs: clean configs next to disturbed twins, and the cases
        that share nothing."""
        def cfg(task, mode, duration, seed, events=()):
            return ScenarioConfig(task, mode, duration, seed, noise=self.NOISE11,
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

    @pytest.mark.parametrize("start", [2.0, 2.007, 0.3, 0.0015, math.nextafter(0.3, 1.0),
                                       math.nextafter(2.007, 0.0), 0.0, -1.0, -1e308, 3.9995,
                                       4.0, 9.0, 1e308])
    def test_onset_tick_is_the_first_tick_at_or_past_the_start(self, start):
        events = (DisturbanceEvent("force_pulse", start, 1.0, 1.0),
                  DisturbanceEvent("force_pulse", start + 0.5, 1.0, 1.0))
        dt = 1.0 / harness.CONTROL_HZ
        first = next((k for k in range(4000) if k * dt >= start), 4000)
        assert harness._onset_tick(events, 4000) == first
        assert harness._onset_tick((), 4000) == 4000

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(-5, 85))
    def test_first_tick_is_the_first_tick_that_holds(self, lo, span, first):
        hi = lo + span
        expected = next((k for k in range(lo, hi) if k >= first), hi)
        assert harness._first_tick(lambda k: k >= first, lo, hi) == expected

    def test_every_suite_episode_equals_its_standalone_run(self, monkeypatch):
        cfgs = self.cases()
        seen, builds = [], []
        original, build = harness.run_episode, harness.build_environment

        def tap(cfg):
            log = original(cfg)
            seen.append((cfg, log))
            return log

        def counting_build(*args):
            builds.append(args[0])
            return build(*args)

        monkeypatch.setattr(harness, "run_episode", tap)
        monkeypatch.setattr(harness, "build_environment", counting_build)
        run_suite(cfgs)
        monkeypatch.undo()

        assert sorted(map(repr, (cfg for cfg, _ in seen))) == sorted(map(repr, cfgs))
        # Five twins continue a disturbed episode (three WW, PH, DO) and build
        # no environment of their own.
        assert len(builds) == len(cfgs) - 5
        assert [(cfg.mode, bool(cfg.disturbances)) for cfg, log in seen
                if log.safety_stopped] == [("baseline_high", True)]
        for cfg, log in seen:
            alone = run_episode(cfg)
            assert series_digest(log) == series_digest(alone), cfg
            assert (log.success, log.safety_stopped) == (alone.success, alone.safety_stopped)


def first_settled_tick(events, onset, max_ticks):
    """The settle tick by its definition: the first tick from the onset on at
    which every event is settled, or max_ticks."""
    dt = 1.0 / harness.CONTROL_HZ
    return next((k for k in range(onset, max_ticks)
                 if all(ev.settled(k * dt) for ev in events)), max_ticks)


class TestSettledDisturbances:
    """From the tick at which every event is settled on, the loop holds that
    tick's apply_disturbances result instead of calling it again; the logs
    must not change."""

    NOISE11 = TestSuiteTwins.NOISE11
    RAISE = DisturbanceEvent("raise", 2.0, 10.0, 0.03, ramp=0.5)
    PULSE = DisturbanceEvent("force_pulse", 3.0, 1.0, 5.0, direction=(1.0, 0.0, 0.0),
                             ramp=0.2)

    def cfg(self, events, duration=6.0, mode="force_aware"):
        return ScenarioConfig("WW", mode, duration, 1, noise=self.NOISE11,
                              disturbances=events)

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
        assert harness._settle_tick(events, onset, max_ticks) == settle
        assert first_settled_tick(events, onset, max_ticks) == settle
        calls = []
        original = harness.apply_disturbances

        def counting(env, evs, t):
            calls.append(t)
            return original(env, evs, t)

        monkeypatch.setattr(harness, "apply_disturbances", counting)
        log = run_episode(cfg)
        # The same episode with a call on every tick from the onset on.
        monkeypatch.setattr(harness, "_settle_tick", lambda evs, on, n: n)
        every_tick = run_episode(cfg)
        monkeypatch.undo()

        dt = 1.0 / harness.CONTROL_HZ
        n = log.n_ticks
        assert n > settle or settle == max_ticks
        held = [k * dt for k in range(onset, min(settle + 1, n))]
        assert calls[:len(held)] == held
        assert calls[len(held):] == [k * dt for k in range(onset, n)]
        assert series_digest(log) == series_digest(every_tick)

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
    def test_settle_tick_is_the_first_settled_tick(self, events):
        for max_ticks in (4000, 3999, 4001):
            onset = harness._onset_tick(events, max_ticks)
            assert harness._settle_tick(events, onset, max_ticks) == \
                first_settled_tick(events, onset, max_ticks), max_ticks

    @pytest.mark.parametrize("ramp", [0.5, 0.0])
    def test_resumed_across_the_settle_tick(self, ramp):
        cfg = self.cfg((replace(self.RAISE, ramp=ramp),))
        settle = harness._Episode(cfg).settle
        assert settle == 2000 + 1000 * ramp
        alone = series_digest(run_episode(cfg))
        for split in (settle - 1, settle, settle + 1):
            ep = harness._Episode(cfg)
            ep.advance(split)
            ep.advance(ep.max_ticks)
            assert series_digest(ep.log()) == alone, split

    def test_suite_pair_resumed_at_the_settle_tick(self, monkeypatch):
        # A ramp-0 raise settles at its onset, where run_suite parts the
        # disturbed episode from its clean twin and resumes it.
        step = (replace(self.RAISE, ramp=0.0),)
        clean = self.cfg(())
        seen = []
        original = harness.run_episode

        def tap(cfg):
            log = original(cfg)
            seen.append((cfg, log))
            return log

        monkeypatch.setattr(harness, "run_episode", tap)
        run_suite([clean, self.cfg(step), clean, self.cfg((self.RAISE,))])
        monkeypatch.undo()
        assert len(seen) == 4
        for cfg, log in seen:
            assert series_digest(log) == series_digest(run_episode(cfg)), cfg
