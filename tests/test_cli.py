import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from admitsim import cli, verify
from admitsim.cli import main
from admitsim.config import parse_scenario
from admitsim.datasets import MAX_EPISODES, Dataset, read_dataset, write_dataset
from admitsim.errors import ConfigParse, DegenerateInput, IoFailure
from admitsim.policy import DEFAULT_HORIZON
from admitsim.tasks import build_environment, generate_demo

SCENARIO = """
[scenario]
task = WW
mode = force_aware
duration = 6.0
seed = 2
"""

# SHA-256 of `admitsim verify --prop3-duration 5.0` on the default 27-point grid
# (see tests/test_golden.py for how such a digest is re-pinned).
DEFAULT_GRID_SHA256 = "6f783590df8958195694adf23bb094f4157ecd904990ab0e87e6c2a302f5bca3"


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "ww.ini"
    path.write_text(SCENARIO)
    return str(path)


class TestRunCommand:
    def test_writes_trace_and_metrics(self, scenario_file, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        rc = main(["run", "--config", scenario_file, "--out", out])
        assert rc == 0
        assert os.path.exists(out)
        line = capsys.readouterr().out
        assert "task=WW" in line and "success=" in line

    def test_unknown_task_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\ntask = QQ\n")
        rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_unwritable_out_is_io_failure(self, scenario_file):
        rc = main(["run", "--config", scenario_file, "--out", "/no-such-dir/trace.csv"])
        assert rc == 1


class TestGenDemos:
    def test_writes_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "d.bin")
        rc = main(["gen-demos", "--task", "PH", "--count", "2", "--seed", "1",
                   "--out", out])
        assert rc == 0
        assert os.path.getsize(out) > 0
        assert "episodes=2" in capsys.readouterr().out

    def test_a_run_that_fails_part_way_leaves_no_dataset(self, tmp_path, monkeypatch, capsys):
        """Demos are written as they are generated; the file is no dataset
        while that goes on, and a failure removes it."""
        out = str(tmp_path / "d.bin")
        made = []

        def failing_third(task, env, wipe_passes=1):
            if made:  # the earlier demos are being written: no dataset yet
                with pytest.raises(IoFailure):
                    read_dataset(out)
            if len(made) == 2:
                raise DegenerateInput("no plan")
            made.append(generate_demo(task, env, wipe_passes))
            return made[-1]

        monkeypatch.setattr(cli, "generate_demo", failing_third)
        assert main(["gen-demos", "--task", "WW", "--count", "4", "--out", out]) == 1
        assert capsys.readouterr().err == "error: no plan\n"
        assert not os.path.exists(out)

    def test_a_scenario_plans_its_demos_with_its_environment_and_wipe_passes(
            self, tmp_path, monkeypatch):
        """gen-demos --config builds each demo from the scenario, not from its
        task alone: demo i is the (seed, i) environment with the scenario's
        overrides, planned with its wipe passes."""
        path = tmp_path / "ww.ini"
        path.write_text("[scenario]\ntask = WW\nwipe_passes = 2\n[environment]\nk_e = 3000\n")
        overrides = []

        def recording(task, rng, env_overrides=None):
            overrides.append(env_overrides)
            return build_environment(task, rng, env_overrides)

        monkeypatch.setattr(cli, "build_environment", recording)
        out, want = str(tmp_path / "c.bin"), str(tmp_path / "want.bin")
        assert main(["gen-demos", "--config", str(path), "--count", "3", "--seed", "4",
                     "--out", out]) == 0
        assert overrides == [{"k_e": 3000.0}] * 3
        demos = []
        for i in range(3):
            rng = np.random.default_rng(np.random.SeedSequence([4, i]))
            env = build_environment("WW", rng, {"k_e": 3000.0})
            one_pass = len(generate_demo("WW", env))
            demos.append(generate_demo("WW", env, wipe_passes=2).tuples)
            assert len(demos[-1]) > one_pass
        write_dataset(want, Dataset("WW", DEFAULT_HORIZON, demos))
        assert Path(out).read_bytes() == Path(want).read_bytes()

    def test_requires_task_or_config(self, tmp_path):
        rc = main(["gen-demos", "--count", "1", "--out", str(tmp_path / "x.bin")])
        assert rc == 2

    def test_count_must_be_positive(self, tmp_path):
        rc = main(["gen-demos", "--task", "WW", "--count", "0",
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 2

    def test_task_and_config_are_refused_together(self, tmp_path, capsys):
        path = tmp_path / "ww.ini"
        path.write_text("[scenario]\ntask = WW\n")
        out = tmp_path / "x.bin"
        rc = main(["gen-demos", "--task", "PH", "--config", str(path), "--count", "1",
                   "--out", str(out)])
        assert rc == 2
        assert "not allowed with argument --task" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_count_must_fit_the_header(self, tmp_path, monkeypatch, capsys):
        """The header holds the episode count as a u32; a larger count is
        refused before anything is allocated or generated."""
        assert MAX_EPISODES == 2 ** 32 - 1
        counts = []

        def recording(path, ds):
            counts.append(len(ds.episodes))
            return [1]

        monkeypatch.setattr(cli, "write_dataset", recording)
        out = str(tmp_path / "x.bin")
        assert main(["gen-demos", "--task", "WW", "--count", str(MAX_EPISODES),
                     "--out", out]) == 0
        assert counts == [MAX_EPISODES]
        capsys.readouterr()
        assert main(["gen-demos", "--task", "WW", "--count", str(MAX_EPISODES + 1),
                     "--out", out]) == 2
        assert counts == [MAX_EPISODES]
        assert capsys.readouterr().err == ("gen-demos: --count must be <= 4294967295, "
                                           "the episodes one dataset holds\n")
        assert not os.path.exists(out)

    def test_seed_must_be_non_negative(self, tmp_path, capsys):
        rc = main(["gen-demos", "--task", "WW", "--seed", "-1",
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 2
        assert capsys.readouterr().err == "gen-demos: --seed must be >= 0\n"
        assert not os.path.exists(tmp_path / "x.bin")


class TestSuiteCommand:
    def test_summary_rows(self, tmp_path, capsys):
        suite = tmp_path / "suite.ini"
        suite.write_text(
            "[suite]\ntask = WW\nmodes = force_aware baseline_low\n"
            "seeds = 2\nduration = 6.0\ndisturbed = none\n"
        )
        out = str(tmp_path / "summary.csv")
        rc = main(["suite", "--config", str(suite), "--out", out])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 3  # header + 2 modes
        assert lines[0].startswith("mode,disturbed,episodes,success_rate")


class TestVerifyCommand:
    def test_default_grid_all_pass(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        rc = main(["verify", "--out", out, "--prop3-duration", "5.0"])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 1 + 27 * 4  # header + four checks per grid point
        assert "failed=0" in capsys.readouterr().out
        # The whole default-grid report, pinned as bytes like the golden digests.
        with open(out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == DEFAULT_GRID_SHA256

    def test_zero_damping_rejected(self, tmp_path):
        params = tmp_path / "v.ini"
        params.write_text("[verify]\nm = 1.0\nk_e = 100\nf_h = 4\nd = 0.0\n")
        rc = main(["verify", "--config", str(params)])
        assert rc == 2

    def test_small_custom_grid(self, tmp_path):
        params = tmp_path / "v.ini"
        params.write_text("[verify]\nm = 1.0\nk_e = 500 1000\nf_h = 4\n")
        out = str(tmp_path / "r.csv")
        rc = main(["verify", "--config", str(params), "--out", out,
                   "--prop3-duration", "5.0"])
        assert rc == 0
        assert len(Path(out).read_text().splitlines()) == 1 + 2 * 4

    # 0.002 and 0.003 s are 2 and 3 proposition-3 steps, short of the Lyapunov-rate
    # stencil's four.
    @pytest.mark.parametrize("duration", ["nan", "inf", "0", "-1", "0.002", "0.003"])
    def test_prop3_duration_must_be_finite_and_positive(self, duration, capsys):
        assert main(["verify", "--prop3-duration", duration]) == 2
        err = capsys.readouterr().err
        assert err == ("verify: proposition 3 duration T must be finite, > 0 and span at "
                       f"least 4 steps of 0.001 s, got {float(duration)}\n")
        assert "Traceback" not in err

    def test_a_bad_prop3_duration_is_refused_after_propositions_1_and_2(self, monkeypatch):
        # verify runs the proposition functions in order; proposition 3's
        # duration is checked when its turn comes.
        calls = []
        for name in ("verify_prop1_grid", "verify_prop2", "verify_prop3_grid"):
            def traced(*args, _name=name, _real=getattr(verify, name), **options):
                calls.append(_name)
                return _real(*args, **options)
            monkeypatch.setattr(verify, name, traced)
        assert main(["verify", "--prop3-duration", "0"]) == 2
        assert calls == ["verify_prop1_grid", "verify_prop2", "verify_prop3_grid"]

    @pytest.mark.parametrize("duration", ["1e9", "1e300"])
    def test_prop3_duration_too_long_to_allocate(self, duration, capsys):
        # 1e9 s needs about 400 TiB of lane table, and 1e300 s more rows than
        # an array can index: each is refused before any memory is touched.
        assert main(["verify", "--prop3-duration", duration]) == 2
        err = capsys.readouterr().err
        assert err.startswith("verify: proposition 3 duration T needs ")
        assert "Traceback" not in err

    def test_four_step_prop3_duration_passes(self, capsys):
        assert main(["verify", "--prop3-duration", "0.0031"]) == 0
        assert "checks=108 passed=108 failed=0" in capsys.readouterr().out

    @pytest.mark.parametrize("grid,message", [
        # The slow pole (d - sqrt(d^2 - m k_e)) / m rounds to 0: no horizon of
        # its time constants is finite.
        ("m = 1e-12\nk_e = 1e-300\nf_h = 0\nd = 1.0\n",
         "proposition 1 horizon T must be finite, > 0 and span at least 1 step of "
         "0.0005 s, got inf"),
        # d^2 and m k_e both round to 0 (and so would proposition 3's bound).
        ("m = 1e-320\nk_e = 1e-300\nd = 1e-300\n",
         "d = 1e-300 is too small to solve: d^2 and m k_e (m = 1e-320, k_e = 1e-300) "
         "both round to 0, so the roots cannot be told apart"),
    ], ids=["slow_pole", "underflowed_roots"])
    def test_a_grid_past_the_float_range_exits_2(self, tmp_path, capsys, grid, message):
        params = tmp_path / "v.ini"
        params.write_text("[verify]\n" + grid)
        assert main(["verify", "--config", str(params)]) == 2
        assert capsys.readouterr().err == f"verify: {message}\n"

    def test_tiny_mass_grid_ends_in_a_typed_error(self, tmp_path, capsys):
        # Proposition 2 runs one step at m = 1e-12 and four at m = 1e-6: its
        # late-slope fit still has two samples. The equivalence check's
        # controller then diverges, a runtime failure.
        for m in ("1e-12", "1e-6"):
            params = tmp_path / "v.ini"
            params.write_text(f"[verify]\nm = {m}\nk_e = 100\nf_h = 2\n")
            rc = main(["verify", "--config", str(params), "--prop3-duration", "0.01"])
            assert rc == 1, m
            assert capsys.readouterr().err == "error: controller state diverged\n", m

    def test_diverging_point_exits_1(self, tmp_path, capsys):
        # The propositions, solved exactly, stay finite at this stiff point;
        # the equivalence check's controller diverges.
        params = tmp_path / "v.ini"
        params.write_text("[verify]\nm = 0.001\nk_e = 1e9\nf_h = 4\n")
        rc = main(["verify", "--config", str(params), "--prop3-duration", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: controller state diverged\n"
        assert "Traceback" not in err


def shift_event(**values):
    """A PH scenario with one shift disturbance, some of its values replaced."""
    event = {"start": 1.0, "duration": 2.0, "magnitude": 0.01, "ramp": 0.5, "omega": 6.0,
             **values}
    return ("[scenario]\ntask = PH\n[disturbance.a]\nkind = shift\n"
            + "".join(f"{key} = {value}\n" for key, value in event.items()))


def task_event(task, kind):
    """A scenario of `task` with one disturbance of `kind`."""
    return (f"[scenario]\ntask = {task}\n[disturbance.a]\nkind = {kind}\n"
            "start = 1.0\nduration = 2.0\nmagnitude = 0.01\nramp = 0.5\n")


def tilt_sections(*directions):
    """One tilt event section per direction."""
    return "".join(
        f"[disturbance.t{i}]\nkind = tilt\nstart = 1.0\nduration = 2.0\n"
        f"magnitude = 0.1\ndirection = {d}\n" for i, d in enumerate(directions))


def test_tilts_about_one_axis_are_valid(tmp_path):
    path = tmp_path / "ok.ini"
    path.write_text("[scenario]\ntask = WW\n" + tilt_sections("0 0 2", "0 0 1"))
    assert [ev.direction for ev in parse_scenario(str(path)).disturbances] == \
        [(0.0, 0.0, 1.0)] * 2


@pytest.mark.parametrize("task,kind", [
    ("MO", "force_pulse"), ("DO", "force_pulse"), ("PH", "sinusoid"), ("PH", "lower"),
    ("WW", "tilt"), ("WW", "sinusoid"),
])
def test_disturbance_the_task_responds_to_is_valid(tmp_path, task, kind):
    path = tmp_path / "ok.ini"
    path.write_text(task_event(task, kind))
    assert parse_scenario(str(path)).disturbances[0].kind == kind


def test_shift_event_is_valid_unless_replaced(tmp_path):
    path = tmp_path / "ok.ini"
    path.write_text(shift_event())
    assert parse_scenario(str(path)).disturbances[0].kind == "shift"


def test_usage_error_exit_code():
    assert main(["definitely-not-a-command"]) == 2


def test_runtime_failure_exits_1_without_traceback(scenario_file, tmp_path, capsys,
                                                   monkeypatch):
    """Any toolkit error at run time (here a door's DegenerateInput) is exit 1."""
    from admitsim import cli, verify
    from admitsim.errors import DegenerateInput

    def degenerate_episode(cfg):
        raise DegenerateInput("cannot normalize near-zero vector (norm=0)")

    monkeypatch.setattr(cli, "run_episode", degenerate_episode)
    assert main(["run", "--config", scenario_file, "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot normalize")
    assert "Traceback" not in err


@pytest.mark.parametrize("command,text", [
    ("run", "[scenario]\ntask = WW\nseed = abc\n"),
    ("run", "[scenario]\ntask = WW\nseed = -1\n"),
    ("run", "[scenario]\ntask = WW\nduration = soon\n"),
    ("run", "[scenario]\ntask = WW\nduration = 5%\n"),
    ("run", "[scenario]\ntask = WW\nduration = nan\n"),
    ("run", "[scenario]\ntask = WW\nwipe_passes = 1.5\n"),
    ("run", "[scenario]\ntask = WW\nwipe_passes = 0\n"),
    ("run", "[scenario]\ntask = WW\nwipe_passes = -2\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\nwipe_passes = 0\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\nwipe_passes = -2\n"),
    ("run", "[scenario]\ntask = WW\nwipe_passes = 1201\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\nwipe_passes = 1201\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\nseed = x\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\nseed = -1\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[noise]\nseed = -1\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\npos_std = -1\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\npos_std = nan\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\nrot_std = inf\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\nnormal_cone_std = nan\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\ncontact_flip_prob = nan\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[noise]\npos_std = nan\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[noise]\nnormal_cone_std = nan\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[noise]\ncontact_flip_prob = nan\n"),
    ("run", "[scenario]\ntask = WW\n[admittance]\nmass = -1\n"),
    ("run", "[scenario]\ntask = WW\n[admittance]\nstiffness = inf\n"),
    ("run", "[scenario]\ntask = WW\n[admittance]\nrot_mass = 0.1\n"),
    ("run", "[scenario]\ntask = WW\n[admittance]\nrot_stiffness = 10.0\n"),
    ("run", "[scenario]\ntask = WW\n[admittance]\ntorque_deadband = 1.0\n"),
    ("run", "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
            "duration = 1\nmagnitude = 0.01\ndirection = 0 0 up\n"),
    ("run", "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
            "duration = 1\nmagnitude = 0.01\ndirection = nan 0 1\n"),
    ("run", "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
            "duration = 1\nmagnitude = 0.01\ndirection = 0 inf 1\n"),
    ("run", "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
            "duration = 1\nmagnitude = 0.01\ndirection = 1e200 1e200 0\n"),
    ("run", "[scenario]\ntask = WW\ndurration = 5\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\npos_sd = 0.002\n"),
    ("run", "[scenario]\ntask = WW\n[safety]\nlimits = 10\n"),
    ("run", "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
            "duration = 1\nmagnitude = 0.01\nramp_time = 0.5\n"),
    ("suite", "[suite]\ntask = WW\nseed = 3\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[noise]\nseeds = 3\n"),
    ("verify", "[verify]\nm = 1.0\nke = 1000\n"),
    ("run", "[scenario]\ntask = WW\n[environment]\nk_e = -5\n"),
    ("run", "[scenario]\ntask = WW\n[environment]\nk_e = nan\n"),
    ("run", "[scenario]\ntask = DO\n[environment]\nlatch_force = -1\n"),
    ("run", "[scenario]\ntask = MO\n[environment]\nlatch_force = inf\n"),
    ("run", "[scenario]\ntask = WW\n[safety]\nlimit = -1\n"),
    ("run", "[scenario]\ntask = WW\n[safety]\nlimit = inf\n"),
    ("run", "[scenario]\ntask = WW\n[safety]\ndebounce = nan\n"),
    ("run", "[scenario]\ntask = WW\n[safety]\ndebounce = -0.5\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[safety]\nlimit = 1.0\nbogus = 3\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[safety]\nlimit = high\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[safety]\nlimit = 0\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[safety]\nlimit = inf\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[safety]\ndebounce = nan\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[safety]\ndebounce = -0.5\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[environment]\nk_e = nan\n"),
    ("suite", "[suite]\ntask = WW\nseeds = many\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 0\n"),
    ("suite", "[suite]\ntask = WW\nseeds = -1\n"),
    ("suite", "[suite]\ntask = WW\nmodes =\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\nbase_seed = -1\n"),
    ("suite", "[suite]\ntask = WW\nbase_seed = one\n"),
    ("suite", "[suite]\ntask = WW\nduration = long\n"),
    ("suite", "[suite]\ntask = WW\nwipe_passes = two\n"),
    ("suite", "[suite]\ntask = PH\nseeds = 1\nduration = 90\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[admittance]\nmass = nan\n"),
    ("verify", "[verify]\nm = 1.0\nd = soft\n"),
    ("verify", "[verify]\nm = nan\n"),
    ("verify", "[verify]\nm = 1.0 inf\n"),
    ("verify", "[verify]\nd = inf\n"),
    ("verify", "[verify]\nk_e = inf\n"),
    ("verify", "[verify]\nk_e = nan\n"),
    ("verify", "[verify]\nf_h = nan\n"),
    ("verify", "[verify]\nm = -1\n"),
    ("verify", "[verify]\nm =\n"),
    ("verify", "[verify]\nm = 1.0\nk_e =\nf_h = 4\n"),
    ("verify", "[verify]\nd = 1e300\n"),
    ("verify", "[verify]\nk_e = 1e200\nd = 1e160\n"),
    ("run", task_event("MO", "raise")),
    ("run", task_event("MO", "lower")),
    ("run", task_event("MO", "shift")),
    ("run", task_event("MO", "tilt")),
    ("run", task_event("MO", "sinusoid")),
    ("run", task_event("DO", "shift")),
    ("run", task_event("DO", "tilt")),
    ("run", task_event("PH", "tilt")),
    ("suite", "[suite]\ntask = DO\nseeds = 1\ndisturbed = only\n"
              "[disturbance.a]\nkind = raise\nstart = 1\nduration = 1\nmagnitude = 0.01\n"),
    ("suite", "[suite]\ntask = DO\nseeds = 1\ndisturbed = none\n"
              "[disturbance.a]\nkind = tilt\nstart = 1\nduration = 1\nmagnitude = 0.01\n"),
    ("run", shift_event(start="nan")),
    ("run", shift_event(duration="inf")),
    ("run", shift_event(magnitude="nan")),
    ("run", shift_event(magnitude="inf")),
    ("run", shift_event(ramp="nan")),
    ("run", shift_event(omega="inf")),
    ("run", "[scenario]\ntask = WW\n[noise]\npos_std = 1e308\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\nnormal_cone_std = 1e308\n"),
    ("run", "[scenario]\ntask = WW\n[disturbance.a]\nkind = sinusoid\nstart = 1\n"
            "duration = 2\nmagnitude = 0.01\nomega = 1e308\n"),
    ("run", "[scenario]\ntask = WW\n[admittance]\ntangent_scale = 1e308\n"),
    ("run", "[scenario]\ntask = WW\n" + tilt_sections("1 0 0", "0 1 0")),
    ("run", "[scenario]\ntask = WW\n" + tilt_sections("1 0 0", "-1 0 0")),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n" + tilt_sections("0 0 1", "0 1 1")),
])
def test_malformed_config_is_config_error(tmp_path, capsys, command, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command != "verify":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_a_damping_whose_square_overflows_is_named(tmp_path, capsys):
    """The verifier squares d: one whose square overflows exits 2 with one
    line, before any check runs."""
    path = tmp_path / "bad.ini"
    path.write_text("[verify]\nd = 1e300\n")
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (f"config error: {path}: [verify] d ** 2 must be "
                                       "finite, got d = 1e+300\n")


def test_an_overflowing_tangent_scale_is_named(tmp_path, capsys):
    """The tangent stiffness tangent_scale * stiffness overflows: the error
    names tangent_scale, the key the file sets."""
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\ntask = WW\n[admittance]\ntangent_scale = 1e308\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (f"config error: {path}: admittance tangent_scale * "
                                       "stiffness must be finite, got 1e+308 * 50.0\n")


RAISE = "kind = raise\nstart = 1\nduration = 1\nmagnitude = 0.01\n"


@pytest.mark.parametrize("command,text,section", [
    ("run", "[scenario]\ntask = WW\n[admitance]\nmass = 0.001\n", "admitance"),
    ("run", "[scenario]\ntask = WW\n[disturbancex]\n" + RAISE, "disturbancex"),
    ("run", "[scenario]\ntask = WW\n[disturbance.]\n" + RAISE, "disturbance."),
    ("run", "[scenario]\ntask = WW\n[disturbance]\n" + RAISE, "disturbance"),
    ("run", "[DEFAULT]\nseed = 1\n[scenario]\ntask = WW\n", "DEFAULT"),
    ("gen-demos", "[scenario]\ntask = WW\n[verify]\nm = 1.0\n", "verify"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[scenario]\ntask = WW\n", "scenario"),
    ("verify", "[verify]\nm = 1.0\n[noise]\nseed = 1\n", "noise"),
    ("verify", "[verify]\nm = 1.0\n[disturbance.a]\n" + RAISE, "disturbance.a"),
])
def test_a_section_the_command_does_not_read_is_named(tmp_path, capsys, command, text,
                                                      section):
    """A misspelt or foreign section exits 2 instead of being ignored (or, for
    [disturbancex], read as a disturbance)."""
    path = tmp_path / "bad.ini"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command != "verify":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {path}: unknown section [{section}]\n"
    assert not os.path.exists(tmp_path / "out.csv")


@pytest.mark.parametrize("key", ["start", "duration", "magnitude", "ramp", "omega"])
def test_disturbance_value_that_is_not_a_number_is_named(tmp_path, capsys, key):
    """Every number of a [disturbance.*] section is read by one reader, so
    each one that is not a number gets the same message."""
    path = tmp_path / "bad.ini"
    path.write_text(shift_event(**{key: "abc"}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == (f"config error: {path}: [disturbance.a] {key} "
                                       "is not a number\n")


@pytest.mark.parametrize("key", ["kind", "start", "duration", "magnitude"])
def test_disturbance_without_a_required_key_names_it(tmp_path, capsys, key):
    """DisturbanceEvent has no default for kind, start, duration and
    magnitude, so a [disturbance.*] section that leaves one out is a config
    error that names it, from the parser and from the command."""
    path = tmp_path / "bad.ini"
    path.write_text("".join(line for line in shift_event().splitlines(True)
                            if not line.startswith(f"{key} =")))
    message = f"{path}: [disturbance.a] missing '{key}'"
    with pytest.raises(ConfigParse) as err:
        parse_scenario(str(path))
    assert str(err.value) == message
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not os.path.exists(tmp_path / "out.csv")


@pytest.mark.parametrize("command,text,message", [
    ("run", "[scenario]\ntask = PH\n[safety]\ndebounce = 1e306\n",
     "safety debounce must be a finite number of ticks (1000 per s), got 1e+306"),
    ("suite", "[suite]\ntask = PH\nseeds = 1\n[safety]\ndebounce = 1e306\n",
     "safety debounce must be a finite number of ticks (1000 per s), got 1e+306"),
    ("suite", "[suite]\ntask = PH\nmodes = force_aware force_aware\nseeds = 1\n",
     "[suite] modes repeats force_aware"),
    ("suite", "[suite]\ntask = WW\nmodes = baseline_low force_aware baseline_low\n",
     "[suite] modes repeats baseline_low"),
    ("run", "[scenario]\ntask = WW\n[admittance]\nmass = -1\n",
     "admittance mass must be finite and > 0, got -1.0"),
    ("suite", "[suite]\ntask = PH\nseeds = 1\n[admittance]\ndamping_ratio = 0\n",
     "admittance damping_ratio must be finite and > 0, got 0.0"),
])
def test_a_value_the_run_cannot_take_exits_2(tmp_path, capsys, command, text, message):
    """A debounce whose tick count is not finite stopped the run with an
    OverflowError, and a repeated mode ran and counted its episodes twice. A
    refused [admittance] value names its section, as [environment] ones do."""
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not os.path.exists(tmp_path / "out.csv")


def test_a_latch_free_door_runs(tmp_path, capsys):
    """latch_force = 0 is a door without a latch, a valid ablation."""
    path = tmp_path / "mo.ini"
    path.write_text("[scenario]\ntask = MO\nduration = 1.0\n[environment]\nlatch_force = 0\n")
    assert parse_scenario(str(path)).env_overrides == {"latch_force": 0.0}
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    assert "task=MO" in capsys.readouterr().out


def test_a_config_with_a_byte_order_mark_runs(tmp_path, capsys):
    path = tmp_path / "bom.ini"
    path.write_text("\ufeff[scenario]\ntask = WW\nduration = 0.5\n", encoding="utf-8")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf[scenario]")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    assert "task=WW" in capsys.readouterr().out


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[scenario]\ntask = WW\n; r\xe9sum\xe9\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
