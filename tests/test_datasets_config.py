import errno
import math
import os
import pathlib
import re
import struct
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenarios import fail_writes

from admitsim.cli import main as cli_main
from admitsim.config import parse_scenario, parse_suite, parse_verify_params
from admitsim.datasets import (
    TRACE_CHUNK_ROWS,
    TRACE_COLUMNS,
    Dataset,
    read_dataset,
    write_dataset,
    write_suite_csv,
    write_trace,
    write_verification_csv,
)
from admitsim.environments import DisturbanceEvent
from admitsim.errors import ConfigParse, IoFailure
from admitsim.expert import CONTACT, NORMAL, RECORD_DIM, SupervisionRecords
from admitsim.harness import RunLog, ScenarioConfig, SuiteRow, run_episode
from admitsim.tasks import TASK_SPECS, TASKS, build_environment, generate_demo
from admitsim.verify import VerificationReport, default_grid


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

    @pytest.mark.parametrize("task", TASKS)
    def test_rot6d_columns_hold_the_identity(self, tmp_path, task):
        """A plan carries no orientation: columns 3-8 of every record, generated
        and read back, are the identity's 6D rotation, bit for bit."""
        eps = [generate_demo(task, build_environment(task, np.random.default_rng(i))).tuples
               for i in range(3)]
        path = str(tmp_path / "demo.bin")
        write_dataset(path, Dataset(task, 16, eps))
        identity = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]).tobytes()
        for ep in eps + read_dataset(path).episodes:
            assert all(row.tobytes() == identity for row in ep.block[:, 3:9])

    def test_write_failure(self):
        with pytest.raises(IoFailure):
            write_dataset("/nonexistent-dir/x.bin", Dataset("WW", 16, []))

    # A task or horizon that the header cannot hold: refused before the
    # file is opened, so a file already at the path is left as it was.
    @pytest.mark.parametrize("task,horizon,message", [
        ("ZZ", 16, "task must be one of MO | PH | WW | DO, got 'ZZ'"),
        ("PHXYZ", 16, "task must be one of MO | PH | WW | DO, got 'PHXYZ'"),
        ("W\u00e9", 16, "task must be one of MO | PH | WW | DO, got 'W\u00e9'"),
        ("WW", -1, "horizon must be >= 0, got -1"),
        ("WW", 2 ** 32, "horizon must be <= 4294967295, got 4294967296"),
    ], ids=["unknown", "too-long", "non-ascii", "horizon-negative", "horizon-past-u32"])
    def test_write_refuses_a_header_the_format_cannot_hold(self, tmp_path, task, horizon,
                                                           message):
        path = tmp_path / "demo.bin"
        path.write_bytes(b"kept")
        with pytest.raises(ValueError) as exc:
            write_dataset(str(path), Dataset(task, horizon, small_dataset().episodes))
        assert type(exc.value) is ValueError and str(exc.value).startswith(message)
        assert path.read_bytes() == b"kept"

    @pytest.mark.parametrize("code", [b"ZZ\0\0", b"PHXY", b"W\xc3\xa9\0", b"\0\0\0\0"],
                             ids=["unknown", "too-long", "non-ascii", "empty"])
    def test_an_unknown_task_code_is_io_failure(self, tmp_path, code):
        raw = bytearray(_dataset_bytes(small_dataset()))
        raw[8:12] = code  # after the magic and the version
        with pytest.raises(IoFailure, match=f"unknown task code {re.escape(repr(code))}"):
            _read_bytes(bytes(raw))

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
        raw = bytearray(_dataset_bytes(Dataset("PH", 16, small_dataset().episodes * 3)))
        # The flags of the file's records 5 and 6 of 9: episode 1's row 2 and
        # episode 2's row 0. The writer refuses such blocks, so the bytes are edited.
        for record, flag in ((5, 0.5), (6, 2.0)):
            end = len(raw) - (8 - record) * 8 * RECORD_DIM
            raw[end - 8:end] = struct.pack("<d", flag)
        with pytest.raises(IoFailure, match=r"contact flag 0\.5 is not 0\.0 or 1\.0"):
            _read_bytes(bytes(raw))

    @pytest.mark.parametrize("normal", [(0.0, 0.0, 0.5), (0.0, 0.0, 1.0 + 2e-6),
                                        (0.0, 0.0, 0.0), (math.nan, 0.0, 1.0),
                                        (0.0, math.inf, 0.0), (1e200, 0.0, 0.0)],
                             ids=["half", "2e-6-long", "zero", "nan", "inf", "overflow"])
    def test_a_contact_normal_that_is_not_unit_is_refused(self, tmp_path, normal):
        """The writer refuses a row in contact whose normal is not unit within
        1e-6 and leaves no file; the reader refuses a file that holds one."""
        block = small_dataset().episodes[0].block.copy()
        block[1, NORMAL] = normal
        message = f"contact normal {normal} of row 1 is not unit"
        path = tmp_path / "demo.bin"
        with pytest.raises(ValueError) as exc:
            write_dataset(str(path), Dataset("PH", 16, [SupervisionRecords(block)]))
        assert type(exc.value) is ValueError and str(exc.value) == message
        assert not path.exists()
        raw = _dataset_bytes(small_dataset())
        cut = len(raw) - 8 * RECORD_DIM  # the end of row 1 of 3
        path.write_bytes(raw[:cut - 32] + struct.pack("<3d", *normal) + raw[cut - 8:])
        with pytest.raises(IoFailure, match=f"corrupt dataset: {re.escape(message)}$"):
            read_dataset(str(path))

    def test_the_first_contact_normal_that_is_not_unit_is_named(self, tmp_path):
        """The first row in contact whose normal is not unit is named, and a row
        out of contact keeps whatever normal it holds (row 0's NaN)."""
        block = records([(0.0,) * 10 + (math.nan, 0.0, 0.5, 0.0),
                         (0.0,) * 10 + (0.0, 0.0, 1.0, 1.0),
                         (0.0,) * 10 + (0.0, 0.0, 2.0, 1.0),
                         (0.0,) * 10 + (0.0, 0.0, 0.5, 1.0)]).block
        path = str(tmp_path / "demo.bin")
        with pytest.raises(ValueError, match=r"^contact normal \(0\.0, 0\.0, 2\.0\) of row 2 "):
            write_dataset(path, Dataset("PH", 16, [SupervisionRecords(block)]))
        write_dataset(path, Dataset("PH", 16, [SupervisionRecords(block[:2])]))
        assert read_dataset(path).episodes[0].block.tobytes() == block[:2].tobytes()

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


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


# Any float64 bit pattern: hypothesis' floats, -0.0, subnormals, infinities
# and NaN included, and raw bit patterns, NaN payloads of either sign included.
_VALUE_BITS = st.one_of(st.floats(width=64).map(_bits), st.integers(0, 2 ** 64 - 1))
# A unit normal as float64 bit patterns: a direction, divided by its norm.
_NORMAL_BITS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) >= 0.1).map(lambda v: tuple(_bits(c / math.hypot(*v)) for c in v))
# A record: 10 values, a normal and a contact flag, 0.0 or 1.0, as float64 bit
# patterns. Out of contact the normal is any 3 values; in contact it is unit,
# as the format requires.
_RECORD_BITS = st.one_of(
    st.tuples(*[_VALUE_BITS] * 13, st.just(_bits(0.0))),
    st.tuples(st.tuples(*[_VALUE_BITS] * 10), _NORMAL_BITS).map(
        lambda parts: (*parts[0], *parts[1], _bits(1.0))))


def records(rows) -> SupervisionRecords:
    """The records of rows, each 13 floats and a contact flag, as one (n, 14) block."""
    return SupervisionRecords(np.array(rows, dtype=float).reshape(len(rows), 14))


def bit_records(rows) -> SupervisionRecords:
    """The records of rows, each 14 float64 bit patterns, as one (n, 14) block."""
    return SupervisionRecords(
        np.array(rows, dtype=np.uint64).reshape(len(rows), RECORD_DIM).view(np.float64))


@st.composite
def datasets(draw):
    episodes = draw(st.lists(st.lists(_RECORD_BITS, max_size=4).map(bit_records), max_size=3))
    return Dataset(draw(st.sampled_from(TASKS)), draw(st.integers(0, 2 ** 32 - 1)), episodes)


@st.composite
def refused_blocks(draw):
    """A block the reader refuses: a valid one of 1 to 4 records with one contact
    flag set to 0.5, 2.0 or NaN, or one row set in contact with a normal that
    is not unit, a column short or over, or its first row alone."""
    block = bit_records(draw(st.lists(_RECORD_BITS, min_size=1, max_size=4))).block
    kind = draw(st.sampled_from(["flag", "normal", "13 columns", "15 columns", "1-D"]))
    row = draw(st.integers(0, len(block) - 1))
    if kind == "flag":
        block[row, CONTACT] = draw(st.sampled_from([0.5, 2.0, math.nan]))
        return block
    if kind == "normal":
        block[row, CONTACT] = 1.0
        block[row, NORMAL] = draw(st.sampled_from(
            [(0.0, 0.0, 0.5), (0.0, 0.0, 1.0 + 2e-6), (0.0, 0.0, 0.0), (math.nan, 0.0, 1.0),
             (0.0, -math.inf, 0.0)]))
        return block
    return {"13 columns": block[:, :13], "15 columns": np.hstack([block, block[:, :1]]),
            "1-D": block[0]}[kind]


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
        assert [ep.block.tobytes() for ep in back.episodes] == \
            [ep.block.tobytes() for ep in ds.episodes]

    @given(datasets(), refused_blocks(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_writer_refuses_what_the_reader_refuses(self, ds, block, data):
        """A block the reader would refuse, among valid ones, is a ValueError
        of the writer, which leaves no file."""
        ds.episodes.insert(data.draw(st.integers(0, len(ds.episodes))), SupervisionRecords(block))
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "d.bin")
            with pytest.raises(ValueError,
                               match="record block is a 2-D array|contact flag|contact normal"):
                write_dataset(path, ds)
            assert not os.path.exists(path)

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


# Each writer, what its IoFailure names, and a call that writes a file of two
# or more writes to a path.
WRITERS = {
    "dataset": lambda path: write_dataset(path, small_dataset()),
    "trace": lambda path: write_trace(path, synthetic_log(3)),
    "suite summary": lambda path: write_suite_csv(
        path, [SuiteRow("force_aware", False, 2, 1.0, 0.0, 0.5, 0.0, 0.0, 12.5)]),
    "verification report": lambda path: write_verification_csv(
        path, [VerificationReport("prop1", {"m": 1.0}, {"x_err": 1e-6}, {"tol_x": 1e-4}, True)]),
}


@pytest.mark.parametrize("what", WRITERS)
class TestAWriteThatFailsLeavesNoFile:
    """Every writer removes its file when a write, or the close that flushes
    the last writes, fails."""

    @pytest.mark.parametrize("at_close", [False, True], ids=["at-a-write", "at-the-close"])
    def test_an_os_error_is_an_io_failure(self, what, at_close, tmp_path, monkeypatch):
        path = str(tmp_path / "out")
        full = OSError(errno.ENOSPC, "No space left on device")
        fail_writes(monkeypatch, full, at_close)
        with pytest.raises(IoFailure) as exc:
            WRITERS[what](path)
        assert str(exc.value) == f"cannot write {what} {path}: {full}"
        assert not os.path.exists(path)

    def test_any_other_exception_goes_on_unchanged(self, what, tmp_path, monkeypatch):
        path = str(tmp_path / "out")
        interrupt = KeyboardInterrupt()
        fail_writes(monkeypatch, interrupt)
        with pytest.raises(KeyboardInterrupt) as exc:
            WRITERS[what](path)
        assert exc.value is interrupt
        assert not os.path.exists(path)

    @pytest.mark.parametrize("at_close", [False, True], ids=["at-a-write", "at-the-close"])
    def test_a_device_is_not_removed(self, what, at_close, tmp_path, monkeypatch):
        path = tmp_path / "out"
        path.symlink_to(os.devnull)  # removing the link shows what removing the device would
        fail_writes(monkeypatch, OSError(errno.ENOSPC, "No space left on device"), at_close)
        with pytest.raises(IoFailure):
            WRITERS[what](str(path))
        assert path.is_symlink() and os.path.exists(os.devnull)

    @pytest.mark.parametrize("at_close", [False, True], ids=["at-a-write", "at-the-close"])
    def test_a_link_stays_and_the_file_it_names_is_removed(self, what, at_close, tmp_path,
                                                           monkeypatch):
        target, link = tmp_path / "target", tmp_path / "out"
        target.write_text("old content\n")
        link.symlink_to(target)
        fail_writes(monkeypatch, OSError(errno.ENOSPC, "No space left on device"), at_close)
        with pytest.raises(IoFailure):
            WRITERS[what](str(link))
        assert link.is_symlink() and not target.exists()


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
     "duration must be a real number, got 'fast'"),
    (parse_scenario, "[scenario]\ntask = WW\nseed = 1.5\n", "seed must be an integer, got 1.5"),
    (parse_scenario, "[scenario]\ntask = WW\n[noise]\nseed = x\n",
     "[noise] seed must be an integer, got 'x'"),
    (parse_suite, "[suite]\ntask = WW\nseeds = 2.0\n", "[suite] seeds must be an integer, got 2.0"),
    (parse_suite, "[suite]\ntask = WW\nmodes =\n", "[suite] modes has no values"),
    (parse_suite, "[suite]\ntask = WW\nmodes = force_aware force_aware\n",
     "[suite] modes repeats force_aware"),
    (parse_verify_params, "[verify]\nm = 1.0 x\n", "[verify] m must be a real number, got 'x'"),
    (parse_verify_params, "[verify]\nk_e =\n", "[verify] k_e has no values"),
    (parse_verify_params, "[verify]\nd = x\n", "[verify] d must be a real number, got 'x'"),
    (parse_scenario, "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
                     "duration = 1\nmagnitude = 0.01\ndirection = 0 1\n",
     "[disturbance.a] direction must be 3 real numbers, got (0.0, 1.0)"),
    (parse_scenario, "[scenario]\ntask = WW\n[disturbance.a]\nkind = raise\nstart = 1\n"
                     "duration = 1\nmagnitude = 0.01\ndirection = 0 1 z\n",
     "[disturbance.a] direction must be 3 real numbers, got (0.0, 1.0, 'z')"),
    (parse_scenario, "[scenario]\ntask = WW\n[environment]\nlatch_force = 1\n",
     "WW environment override must be one of k_e, got 'latch_force'"),
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
    schema["environment"] = tuple(TASK_SPECS[task].environment.OVERRIDES)
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
