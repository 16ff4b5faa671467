import os
import pathlib
import struct
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admitsim.cli import main as cli_main
from admitsim.config import parse_scenario, parse_suite, parse_verify_params
from admitsim.datasets import (
    TRACE_CHUNK_ROWS,
    TRACE_COLUMNS,
    Dataset,
    read_dataset,
    write_dataset,
    write_trace,
)
from admitsim.environments import DisturbanceEvent
from admitsim.errors import ConfigParse, IoFailure
from admitsim.expert import SupervisionRecords
from admitsim.harness import RunLog, ScenarioConfig, run_episode
from admitsim.tasks import TASK_SPECS, TASKS, build_environment, generate_demo
from admitsim.verify import default_grid


def sample_episodes(n_eps=3, seed=0):
    eps = []
    for i in range(n_eps):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        env = build_environment("WW", rng)
        eps.append(generate_demo("WW", env).tuples)
    return eps


class TestDataset:
    def test_round_trip_exact(self, tmp_path):
        eps = sample_episodes()
        ds = Dataset("WW", 16, eps)
        path = str(tmp_path / "demo.bin")
        write_dataset(path, ds)
        back = read_dataset(path)
        assert back.task == "WW"
        assert back.horizon == 16
        assert len(back.episodes) == len(eps)
        for e1, e2 in zip(eps, back.episodes):
            assert len(e1) == len(e2)
            for a, b in zip(e1, e2):
                assert np.array_equal(a.pose10, b.pose10)
                assert np.array_equal(a.normal, b.normal)
                assert a.contact == b.contact

    def test_header_counts(self, tmp_path):
        eps = sample_episodes(2)
        ds = Dataset("WW", 16, eps)
        path = str(tmp_path / "demo.bin")
        write_dataset(path, ds)
        back = read_dataset(path)
        assert back.tuple_count == sum(len(e) for e in eps)

    def test_rot6d_fields_encode_the_demo_orientations(self, tmp_path):
        from admitsim.geometry import rot6d_encode
        rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
        demo = generate_demo("WW", build_environment("WW", rng))
        path = str(tmp_path / "demo.bin")
        write_dataset(path, Dataset("WW", 16, [demo.tuples]))
        (ep,) = read_dataset(path).episodes
        for t, tup in enumerate(ep):
            want = np.array(rot6d_encode(demo.poses[t + 1].orientation))
            assert tup.pose10[3:9].tobytes() == want.tobytes(), t

    def test_write_failure(self):
        with pytest.raises(IoFailure):
            write_dataset("/nonexistent-dir/x.bin", Dataset("WW", 16, []))

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(IoFailure):
            read_dataset(str(path))

    def test_truncated_file_is_io_failure(self, tmp_path):
        path = tmp_path / "demo.bin"
        write_dataset(str(path), Dataset("WW", 16, sample_episodes(1)))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(IoFailure, match="bytes where the header implies"):
            read_dataset(str(path))

    @pytest.mark.parametrize("flag", [0.7, 2.0, -1.0, np.nan, np.inf])
    def test_contact_flag_other_than_zero_or_one_is_io_failure(self, tmp_path, flag):
        path = tmp_path / "demo.bin"
        path.write_bytes(with_last_contact(_dataset_bytes(small_dataset()), flag))
        with pytest.raises(IoFailure, match="contact flag"):
            read_dataset(str(path))

    @pytest.mark.parametrize("task", TASKS)
    def test_demo_tuples_view_one_block(self, task):
        demo = generate_demo(task, build_environment(task, np.random.default_rng(2)))
        assert_record_block(demo.tuples)

    @pytest.mark.parametrize("task", TASKS)
    def test_read_back_tuples_view_one_block_per_episode(self, tmp_path, task):
        eps = [generate_demo(task, build_environment(task, np.random.default_rng(i))).tuples
               for i in range(2)]
        path = str(tmp_path / "demo.bin")
        write_dataset(path, Dataset(task, 16, eps))
        back = read_dataset(path).episodes
        for ep in back:
            assert_record_block(ep)
        # The episodes are consecutive row ranges of one (total, 14) array, in file order.
        whole = back[0].block.base
        assert whole.shape == (sum(map(len, eps)), 14) and whole.flags.c_contiguous
        start = 0
        for ep in back:
            assert ep.block.base is whole
            assert ep.block.ctypes.data == whole.ctypes.data + start * whole.strides[0]
            start += len(ep)

    def test_the_first_bad_contact_flag_in_file_order_is_named(self, tmp_path):
        row = small_dataset().episodes[0].block[0].tolist()
        eps = [records([row] * 3) for _ in range(3)]
        eps[1].block[2, 13] = 0.5
        eps[2].block[0, 13] = 2.0
        path = str(tmp_path / "demo.bin")
        write_dataset(path, Dataset("PH", 16, eps))
        with pytest.raises(IoFailure, match=r"contact flag 0\.5 is not 0\.0 or 1\.0"):
            read_dataset(path)

    def test_a_file_shorter_than_its_stat_size_is_io_failure(self, tmp_path, monkeypatch):
        """The records read fall short of the size fstat reported, as when the
        file shrinks between the stat and the read."""
        path = tmp_path / "demo.bin"
        write_dataset(str(path), Dataset("WW", 16, sample_episodes(1)))
        path.write_bytes(path.read_bytes()[:-8])
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8))
        with pytest.raises(IoFailure, match="record bytes where the header implies"):
            read_dataset(str(path))

    @pytest.mark.parametrize("task", TASKS)
    def test_records_write_the_bytes_of_their_tuples(self, tmp_path, task):
        eps = [generate_demo(task, build_environment(task, np.random.default_rng(i))).tuples
               for i in range(3)]
        assert all(isinstance(ep, SupervisionRecords) for ep in eps)
        path = str(tmp_path / "demo.bin")
        write_dataset(path, Dataset(task, 16, eps))
        back = read_dataset(path).episodes
        assert all(isinstance(ep, SupervisionRecords) for ep in back)
        assert [ep.block.tobytes() for ep in back] == [ep.block.tobytes() for ep in eps]

    def test_trailing_bytes_are_io_failure(self, tmp_path):
        path = tmp_path / "demo.bin"
        write_dataset(str(path), Dataset("WW", 16, sample_episodes(1)))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(IoFailure, match="bytes where the header implies"):
            read_dataset(str(path))


# Any float64 bit pattern but NaN (which array_equal cannot compare), -0.0 included.
_FLOATS = st.floats(allow_nan=False, width=64)


def records(rows) -> SupervisionRecords:
    """The records of rows, each 13 floats and a contact flag, as one (n, 14) block."""
    return SupervisionRecords(np.array(rows, dtype=float).reshape(len(rows), 14))


@st.composite
def datasets(draw):
    row = st.tuples(*[_FLOATS] * 13, st.sampled_from([0.0, 1.0]))
    episodes = draw(st.lists(st.lists(row, max_size=4).map(records), max_size=3))
    return Dataset(draw(st.sampled_from(TASKS)), draw(st.integers(0, 2 ** 32 - 1)), episodes)


def small_dataset() -> Dataset:
    row = (0.1, 0.2, 0.3, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    return Dataset("PH", 16, [records([row] * 3)])


def with_last_contact(raw: bytes, flag: float) -> bytes:
    """The dataset bytes with the contact flag of the last record replaced."""
    return raw[:-8] + struct.pack("<d", flag)


def assert_record_block(episode):
    """The tuples are row views of the episode's C-contiguous (n, 14) float64
    block, which owns its data or views the one array that does."""
    block = episode.block
    assert block.shape == (len(episode), 14)
    assert block.dtype == np.float64 and block.flags.c_contiguous
    owner = block if block.base is None else block.base
    assert owner.flags.owndata
    for i, tup in enumerate(episode):
        assert tup.pose10.base is owner and tup.normal.base is owner
        assert np.shares_memory(tup.pose10, block[i, :10])
        assert np.shares_memory(tup.normal, block[i, 10:13])
        assert type(tup.contact) is int and tup.contact in (0, 1)
        assert block[i, 13] == tup.contact


def _dataset_bytes(ds: Dataset) -> bytes:
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "d.bin")
        write_dataset(path, ds)
        with open(path, "rb") as fh:
            return fh.read()


def _read_bytes(raw: bytes) -> Dataset:
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "d.bin")
        with open(path, "wb") as fh:
            fh.write(raw)
        return read_dataset(path)


class TestDatasetFuzz:
    @given(datasets())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact(self, ds):
        back = _read_bytes(_dataset_bytes(ds))
        assert (back.task, back.horizon) == (ds.task, ds.horizon)
        assert [len(ep) for ep in back.episodes] == [len(ep) for ep in ds.episodes]
        for e1, e2 in zip(ds.episodes, back.episodes):
            for a, b in zip(e1, e2):
                assert a.pose10.tobytes() == b.pose10.tobytes()
                assert a.normal.tobytes() == b.normal.tobytes()
                assert a.contact == b.contact

    @given(datasets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation_is_io_failure(self, ds, data):
        raw = _dataset_bytes(ds)
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(IoFailure):
            _read_bytes(raw[:cut])

    @given(datasets(), st.binary(min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_extension_is_io_failure(self, ds, extra):
        with pytest.raises(IoFailure):
            _read_bytes(_dataset_bytes(ds) + extra)

    @given(datasets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupt_byte_reads_or_fails_typed(self, ds, data):
        raw = bytearray(_dataset_bytes(ds))
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        try:
            _read_bytes(bytes(raw))
        except IoFailure:
            pass


class TestContactFlagFuzz:
    @given(st.floats(width=64))
    @settings(max_examples=100, deadline=None)
    def test_only_zero_and_one_read_back(self, flag):
        raw = with_last_contact(_dataset_bytes(small_dataset()), flag)
        if flag in (0.0, 1.0):
            assert list(_read_bytes(raw).episodes[0])[-1].contact == int(flag)
        else:
            with pytest.raises(IoFailure):
                _read_bytes(raw)


class TestTrace:
    def test_columns_and_monotone_time(self, tmp_path):
        log = run_episode(ScenarioConfig(task="WW", duration=2.0, seed=0))
        path = str(tmp_path / "trace.csv")
        write_trace(path, log)
        lines = pathlib.Path(path).read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert len(header) == 19
        ts = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert len(ts) == log.n_ticks

    def test_empty_log_writes_header_only(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(str(path), synthetic_log(0))
        assert path.read_text() == ",".join(TRACE_COLUMNS) + "\n"

    @pytest.mark.parametrize("n", [TRACE_CHUNK_ROWS, TRACE_CHUNK_ROWS + 1])
    def test_rows_across_chunks_parse_back_bit_exact(self, tmp_path, n):
        log = synthetic_log(n)
        path = tmp_path / "trace.csv"
        write_trace(str(path), log)
        lines = path.read_text().splitlines()
        assert len(lines) == n + 1
        rows = [ln.split(",") for ln in lines[1:]]
        floats = np.array([[float(v) for v in row[:16]] for row in rows])
        ints = np.array([[int(v) for v in row[16:]] for row in rows], dtype=np.int8)
        expect = np.column_stack([log.t, log.x_r, log.v_r, log.f_ext, log.f_cmd, log.k_eigs])
        assert floats.tobytes() == expect.tobytes()
        assert np.array_equal(ints, np.column_stack([log.phase, log.contact, log.disturbed]))
        assert "-0.0" in lines[1].split(",")


def synthetic_log(n: int) -> RunLog:
    """A log of n ticks of arbitrary floats: -0.0, subnormals, huge and tiny values,
    and constant columns."""
    rng = np.random.default_rng(n)
    special = np.array([-0.0, 0.0, 5e-324, -1e308, 0.1, 1.0 / 3.0, -2.5e-17])

    def series(*shape):
        a = rng.normal(scale=10.0, size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        picks = rng.random(shape) < 0.2
        a[picks] = rng.choice(special, size=int(picks.sum()))
        a.flat[:1] = -0.0  # the first row starts with a negative zero
        return a

    def flags(top):
        return rng.integers(0, top, size=n).astype(np.int8)

    f_cmd, k_eigs = series(n, 3), series(n, 3)
    # Constant columns, and one that is constant but for the sign of a zero.
    k_eigs[:, 0], k_eigs[:, 1] = 200.0, -0.0
    f_cmd[:, 0] = 0.0
    f_cmd[-1:, 0] = -0.0
    return RunLog(series(n), series(n, 3), series(n, 3), series(n, 3), f_cmd, k_eigs,
                  flags(6), flags(2), flags(2), {}, False, False)


SCENARIO = """
[scenario]
task = WW
mode = baseline_mid
duration = 8.0
seed = 3

[noise]
pos_std = 0.001

[admittance]
force_deadband = 1.5

[environment]
k_e = 1500.0

[disturbance.drop]
kind = lower
start = 4.0
duration = 3.0
magnitude = 0.02
ramp = 0.5
"""


class TestScenarioParsing:
    def test_full_roundtrip(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SCENARIO)
        cfg = parse_scenario(str(path))
        assert cfg.task == "WW"
        assert cfg.mode == "baseline_mid"
        assert cfg.duration == 8.0
        assert cfg.noise.pos_std == 0.001
        assert cfg.admittance_overrides["force_deadband"] == 1.5
        assert cfg.env_overrides["k_e"] == 1500.0
        assert len(cfg.disturbances) == 1
        assert cfg.disturbances[0].kind == "lower"

    def test_unknown_task_diagnostic(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[scenario]\ntask = ZZ\n")
        with pytest.raises(ConfigParse) as err:
            parse_scenario(str(path))
        assert "task" in str(err.value)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[other]\nx = 1\n")
        with pytest.raises(ConfigParse):
            parse_scenario(str(path))

    def test_unknown_admittance_key(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[scenario]\ntask = WW\n\n[admittance]\nbogus = 1\n")
        with pytest.raises(ConfigParse) as err:
            parse_scenario(str(path))
        assert "bogus" in str(err.value)

    def test_missing_file(self):
        with pytest.raises(ConfigParse):
            parse_scenario("/does/not/exist.ini")


@pytest.mark.parametrize("parse,text,key", [
    (parse_scenario, "[scenario]\ntask = WW\ndurration = 5\n", "durration"),
    (parse_scenario, "[scenario]\ntask = WW\n[noise]\nbogus = 1\n", "bogus"),
    (parse_scenario, "[scenario]\ntask = WW\n[safety]\nbogus = 1\n", "bogus"),
    (parse_scenario, "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
                     "duration = 1\nmagnitude = 0.01\nbogus = 1\n", "bogus"),
    (parse_suite, "[suite]\ntask = WW\nbogus = 1\n", "bogus"),
    (parse_suite, "[suite]\ntask = WW\n[noise]\nbogus = 1\n", "bogus"),
    (parse_suite, "[suite]\ntask = WW\nseeds = 1\n[safety]\nlimit = 1.0\nbogus = 3\n", "bogus"),
    (parse_verify_params, "[verify]\nm = 1.0\nbogus = 1\n", "bogus"),
])
def test_unknown_key_is_named(tmp_path, parse, text, key):
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ConfigParse, match=f"unknown key '{key}'"):
        parse(str(path))


@pytest.mark.parametrize("parse,text,message", [
    (parse_scenario, "[scenario]\ntask = WW\nduration = fast\n",
     "[scenario] duration is not a number"),
    (parse_scenario, "[scenario]\ntask = WW\nseed = 1.5\n", "[scenario] seed is not an integer"),
    (parse_scenario, "[scenario]\ntask = WW\n[noise]\nseed = x\n",
     "[noise] seed is not an integer"),
    (parse_suite, "[suite]\ntask = WW\nseeds = 2.0\n", "[suite] seeds is not an integer"),
    (parse_suite, "[suite]\ntask = WW\nmodes =\n", "[suite] modes has no values"),
    (parse_suite, "[suite]\ntask = WW\nmodes = force_aware force_aware\n",
     "[suite] modes repeats force_aware"),
    (parse_verify_params, "[verify]\nm = 1.0 x\n", "[verify] m must be numbers"),
    (parse_verify_params, "[verify]\nk_e =\n", "[verify] k_e has no values"),
    (parse_verify_params, "[verify]\nd = x\n", "[verify] d is not a number"),
    (parse_scenario, "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
                     "duration = 1\nmagnitude = 0.01\ndirection = 0 1\n",
     "[disturbance.a] direction needs 3 components"),
    (parse_scenario, "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
                     "duration = 1\nmagnitude = 0.01\ndirection = 0 1 z\n",
     "[disturbance.a] direction is not numeric"),
    (parse_scenario, "[scenario]\ntask = WW\n[environment]\nlatch_force = 1\n",
     "unknown environment override 'latch_force' for WW"),
    (parse_scenario, "[scenario]\nmode = force_aware\n", "[scenario] missing 'task'"),
    (parse_suite, "[suite]\nseeds = 1\n", "[suite] missing 'task'"),
])
def test_a_bad_value_is_worded_for_its_key(tmp_path, parse, text, message):
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ConfigParse) as err:
        parse(str(path))
    assert str(err.value).startswith(f"{path}: {message}")


class TestLeftOutKeysTakeTheConstructorDefaults:
    def parse(self, tmp_path, parse, text):
        path = tmp_path / "c.ini"
        path.write_text(text)
        return parse(str(path))

    def test_scenario(self, tmp_path):
        assert self.parse(tmp_path, parse_scenario, "[scenario]\ntask = WW\n") == \
            ScenarioConfig("WW")

    def test_disturbance(self, tmp_path):
        cfg = self.parse(tmp_path, parse_scenario, "[scenario]\ntask = WW\n[disturbance.a]\n"
                         "kind = raise\nstart = 1.5\nduration = 2.0\nmagnitude = 0.01\n")
        assert cfg.disturbances == (DisturbanceEvent("raise", 1.5, 2.0, 0.01),)

    def test_suite(self, tmp_path):
        assert self.parse(tmp_path, parse_suite, "[suite]\ntask = WW\nseeds = 1\n") == \
            [ScenarioConfig("WW")]

    def test_verify(self, tmp_path):
        assert self.parse(tmp_path, parse_verify_params, "[verify]\nm = 1.0\n") == \
            default_grid(m=(1.0,))


def test_readme_scenario_example_lists_every_key(tmp_path):
    """The README's scenario INI example shows each section the scenario
    parser reads, with every key that section accepts."""
    import configparser

    from admitsim import config

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Scenario config")[1].split("```ini\n")[1].split("```")[0]
    example = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    example.read_string(block)
    # [environment] holds the keys the example's task reads (any other is a
    # config error for it).
    task = example.get("scenario", "task")
    schema = {name: tuple(config._SCHEMA[name]) for name in
              ("scenario", "noise", "admittance", "safety", "disturbance")}
    schema["environment"] = TASK_SPECS[task].env_keys
    sections = {name.split(".")[0]: name for name in example.sections()}
    assert sorted(sections) == sorted(schema)
    for name, keys in schema.items():
        assert sorted(example.options(sections[name])) == sorted(keys), name
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert parse_scenario(str(path)).admittance_overrides["target_force"] == 4.0


SUITE = """
[suite]
task = WW
modes = force_aware baseline_low
seeds = 3
duration = 10.0
disturbed = both
base_seed = 100
"""


class TestSuiteParsing:
    def test_expansion(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text(SUITE)
        cfgs = parse_suite(str(path))
        # 2 modes x 2 conditions x 3 seeds
        assert len(cfgs) == 12
        disturbed = [c for c in cfgs if c.disturbances]
        assert len(disturbed) == 6
        assert {c.seed for c in cfgs} == {100, 101, 102}

    def test_safety_applies_to_every_episode(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text(SUITE + "[safety]\nlimit = 1.0\ndebounce = 0.05\n")
        cfgs = parse_suite(str(path))
        assert len(cfgs) == 12
        assert {(c.safety_limit, c.safety_debounce) for c in cfgs} == {(1.0, 0.05)}
        path.write_text(SUITE + "[safety]\ndebounce = 0.0\n")
        assert {(c.safety_limit, c.safety_debounce) for c in parse_suite(str(path))} == \
            {(25.0, 0.0)}

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text("[suite]\ntask = WW\nmodes = warp\n")
        with pytest.raises(ConfigParse):
            parse_suite(str(path))


CONFIGS = sorted(pathlib.Path(__file__).resolve().parent.parent.joinpath("configs").glob("*.ini"))


def test_configs_directory_is_not_empty():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_parses(path, tmp_path):
    """Every file under configs/ is a scenario or a suite the CLI accepts, and
    `gen-demos --config` of a scenario plans each demo (seeded by (0, i)) with
    the scenario's environment overrides and wipe passes."""
    if "[suite]" in path.read_text():
        assert parse_suite(str(path))
        return
    cfg = parse_scenario(str(path))
    out = str(tmp_path / "demos.bin")
    assert cli_main(["gen-demos", "--config", str(path), "--count", "2", "--out", out]) == 0
    steps = []
    for i in range(2):
        rng = np.random.default_rng(np.random.SeedSequence([0, i]))
        env = build_environment(cfg.task, rng, cfg.env_overrides)
        steps.append(len(generate_demo(cfg.task, env, wipe_passes=cfg.wipe_passes)))
    assert [len(ep) for ep in read_dataset(out).episodes] == steps
