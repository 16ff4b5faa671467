import hashlib
import math

import numpy as np
import pytest

from admitsim import harness
from admitsim.environments import DisturbanceEvent
from admitsim.harness import (
    RunLog,
    ScenarioConfig,
    default_disturbance,
    run_episode,
    run_suite,
    success_check,
)
from admitsim.policy import NoiseSpec

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

    def test_disturbance_flag_logged(self):
        cfg = ScenarioConfig(task="WW", duration=8.0, seed=3,
                             disturbances=default_disturbance("WW"))
        log = run_episode(cfg)
        assert log.disturbed[:4000].max() == 0  # raise starts at 5 s
        assert log.disturbed[5500:].max() == 1


class TestRunSuite:
    def test_empty(self):
        assert run_suite([]) == []

    def test_identical_configs_identical_rows(self):
        cfg = ScenarioConfig(task="WW", duration=6.0, seed=4, noise=NOISE)
        r1 = run_suite([cfg])
        r2 = run_suite([cfg])
        assert repr(r1) == repr(r2)

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
