import os

import pytest

from admitsim.cli import main
from admitsim.config import parse_scenario

SCENARIO = """
[scenario]
task = WW
mode = force_aware
duration = 6.0
seed = 2
"""


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

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        for out in (a, b):
            assert main(["gen-demos", "--task", "WW", "--count", "3", "--seed", "7",
                         "--out", out]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_requires_task_or_config(self, tmp_path):
        rc = main(["gen-demos", "--count", "1", "--out", str(tmp_path / "x.bin")])
        assert rc == 2

    def test_count_must_be_positive(self, tmp_path):
        rc = main(["gen-demos", "--task", "WW", "--count", "0",
                   "--out", str(tmp_path / "x.bin")])
        assert rc == 2


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
        lines = open(out).read().splitlines()
        assert len(lines) == 3  # header + 2 modes
        assert lines[0].startswith("mode,disturbed,episodes,success_rate")

    def test_empty_suite_header_only(self, tmp_path):
        suite = tmp_path / "suite.ini"
        suite.write_text("[suite]\ntask = WW\nmodes = force_aware\nseeds = 0\n")
        out = str(tmp_path / "summary.csv")
        rc = main(["suite", "--config", str(suite), "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 1


class TestVerifyCommand:
    def test_default_grid_all_pass(self, tmp_path, capsys):
        out = str(tmp_path / "report.csv")
        rc = main(["verify", "--out", out, "--prop3-duration", "5.0"])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 1 + 27 * 4  # header + four checks per grid point
        assert "failed=0" in capsys.readouterr().out

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
        assert len(open(out).read().splitlines()) == 1 + 2 * 4


def shift_event(**values):
    """A PH scenario with one shift disturbance, some of its values replaced."""
    event = {"start": 1.0, "duration": 2.0, "magnitude": 0.01, "ramp": 0.5, "omega": 6.0,
             **values}
    return ("[scenario]\ntask = PH\n[disturbance.a]\nkind = shift\n"
            + "".join(f"{key} = {value}\n" for key, value in event.items()))


def test_shift_event_is_valid_unless_replaced(tmp_path):
    path = tmp_path / "ok.ini"
    path.write_text(shift_event())
    assert parse_scenario(str(path)).disturbances[0].kind == "shift"


def test_usage_error_exit_code():
    assert main(["definitely-not-a-command"]) == 2


@pytest.mark.parametrize("command,text", [
    ("run", "[scenario]\ntask = WW\nseed = abc\n"),
    ("run", "[scenario]\ntask = WW\nduration = soon\n"),
    ("run", "[scenario]\ntask = WW\nduration = nan\n"),
    ("run", "[scenario]\ntask = WW\nwipe_passes = 1.5\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\nseed = x\n"),
    ("run", "[scenario]\ntask = WW\n[noise]\npos_std = -1\n"),
    ("run", "[scenario]\ntask = WW\n[admittance]\nmass = -1\n"),
    ("run", "[scenario]\ntask = WW\n[admittance]\nstiffness = inf\n"),
    ("run", "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
            "duration = 1\nmagnitude = 0.01\ndirection = 0 0 up\n"),
    ("run", "[scenario]\ntask = WW\n[environment]\nk_e = -5\n"),
    ("run", "[scenario]\ntask = WW\n[environment]\nk_e = nan\n"),
    ("run", "[scenario]\ntask = DO\n[environment]\nlatch_force = 0\n"),
    ("run", "[scenario]\ntask = MO\n[environment]\nlatch_force = inf\n"),
    ("run", "[scenario]\ntask = WW\n[safety]\nlimit = -1\n"),
    ("run", "[scenario]\ntask = WW\n[safety]\nlimit = inf\n"),
    ("run", "[scenario]\ntask = WW\n[safety]\ndebounce = nan\n"),
    ("run", "[scenario]\ntask = WW\n[safety]\ndebounce = -0.5\n"),
    ("suite", "[suite]\ntask = WW\nseeds = 1\n[environment]\nk_e = nan\n"),
    ("suite", "[suite]\ntask = WW\nseeds = many\n"),
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
    ("run", shift_event(start="nan")),
    ("run", shift_event(duration="inf")),
    ("run", shift_event(magnitude="nan")),
    ("run", shift_event(magnitude="inf")),
    ("run", shift_event(ramp="nan")),
    ("run", shift_event(omega="inf")),
])
def test_malformed_config_is_config_error(tmp_path, capsys, command, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command != "verify":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
