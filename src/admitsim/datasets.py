"""Bit-exact file formats: demonstration datasets, trace CSVs, report CSVs.

Dataset layout (little-endian):
  magic 'ADMS' | u32 version | 4-byte task code | u32 chunk horizon |
  u32 episode count | u64 total tuple count | u32 tuple count per episode |
  records of 14 f64 per tuple (10 pose/gripper + 3 normal + 1 contact flag).
The contact flag is 0.0 or 1.0; a reader rejects any other value. A
`SupervisionRecords` is written from its (n, 14) block as it is. A file's
records are read back whole, by one read into one (total, 14) block, and each
episode is a `SupervisionRecords` of its rows of that block, in file order.

CSV floats are written with repr() (shortest round-trip), so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import os
import struct
from dataclasses import astuple, dataclass, fields
from itertools import accumulate
from numbers import Integral

import numpy as np

from .errors import IoFailure
from .expert import RECORD_DIM, SupervisionRecords
from .harness import SuiteRow

MAGIC = b"ADMS"
VERSION = 1


@dataclass
class Dataset:
    task: str
    horizon: int
    episodes: list  # one SupervisionRecords per episode (write_dataset: any sized iterable)

    @property
    def tuple_count(self) -> int:
        return sum(len(ep) for ep in self.episodes)


_HEADER = struct.Struct("<4sI4sIIQ")  # magic, version, task, horizon, episodes, tuples
_RECORD_SIZE = 8 * RECORD_DIM
# The most episodes one file holds: the header's u32 count.
MAX_EPISODES = 2 ** 32 - 1


def write_dataset(path: str, ds: Dataset) -> list:
    """Write ds to path; return the episode lengths.

    ds.episodes is taken once with len() and iterated once, so a sized
    iterable that makes each episode as the iteration reaches it is written
    holding one episode at a time. The header and the length table come
    last, by a seek back over zero bytes: until then the file has no magic,
    so read_dataset rejects a file that a failed or killed write left, and a
    write that fails with an exception removes its file.
    """
    count = len(ds.episodes)
    lengths = []
    try:
        with open(path, "wb") as fh:
            try:
                fh.write(bytes(_HEADER.size + 4 * count))
                for ep in ds.episodes:
                    fh.write(ep.block.astype("<f8", copy=False).tobytes())
                    lengths.append(len(ep))
                fh.seek(0)
                fh.write(_HEADER.pack(MAGIC, VERSION, ds.task.encode("ascii"), ds.horizon,
                                      count, sum(lengths)))
                fh.write(struct.pack(f"<{count}I", *lengths))
            except BaseException:
                fh.close()
                os.remove(path)
                raise
    except OSError as exc:
        raise IoFailure(f"cannot write dataset {path}: {exc}") from exc
    return lengths


def read_dataset(path: str) -> Dataset:
    """Read a dataset file; IoFailure unless its size is what its header implies
    and every contact flag is 0.0 or 1.0.

    The records are read by one read into one owned (total, 14) block, and
    their flags checked at once. Each episode is a SupervisionRecords of its
    row range of that block, a C-contiguous view: an episode that is kept
    keeps its file's whole block alive.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_HEADER.size)
            if head[:4] != MAGIC:
                raise IoFailure(f"{path}: not a dataset file")
            if len(head) < _HEADER.size:
                raise IoFailure(f"{path}: truncated header")
            _, version, task, horizon, n_eps, total = _HEADER.unpack(head)
            if version != VERSION:
                raise IoFailure(f"{path}: unsupported version {version}")
            table = 4 * n_eps
            if size < _HEADER.size + table:
                raise IoFailure(f"{path}: truncated episode table")
            lengths = struct.unpack(f"<{n_eps}I", fh.read(table))
            if sum(lengths) != total:
                raise IoFailure(f"{path}: episode lengths disagree with header count")
            expected = _HEADER.size + table + _RECORD_SIZE * total
            if size != expected:
                raise IoFailure(f"{path}: {size} bytes where the header implies {expected}")
            try:
                task = task.rstrip(b"\0").decode("ascii")
            except UnicodeDecodeError as exc:
                raise IoFailure(f"{path}: corrupt dataset: {exc}") from exc
            block = np.empty((total, RECORD_DIM), "<f8")
            got = fh.readinto(block)
            if got != block.nbytes:
                raise IoFailure(f"{path}: {got} record bytes where the header implies "
                                f"{block.nbytes}")
    except OSError as exc:
        raise IoFailure(f"cannot read dataset {path}: {exc}") from exc
    block = block.astype(float, copy=False)  # already native on a little-endian host
    flags = block[:, 13]
    bad = (flags != 0.0) & (flags != 1.0)
    if bad.any():
        raise IoFailure(f"{path}: corrupt dataset: contact flag {float(flags[bad][0])!r} "
                        "is not 0.0 or 1.0")
    episodes = [SupervisionRecords(block[end - n:end])
                for n, end in zip(lengths, accumulate(lengths))]
    return Dataset(task, horizon, episodes)


# --------------------------------------------------------------------------
# CSV writers
# --------------------------------------------------------------------------

TRACE_COLUMNS = (
    "t",
    "xr_x", "xr_y", "xr_z",
    "vr_x", "vr_y", "vr_z",
    "fext_x", "fext_y", "fext_z",
    "fcmd_x", "fcmd_y", "fcmd_z",
    "keig_1", "keig_2", "keig_3",
    "phase", "contact", "disturbed",
)


# Rows formatted per write. Each chunk holds the text of its every value at
# once: 1024 rows raised the peak memory of a batch of runs by 3.6 MB, 256 by 1.
TRACE_CHUNK_ROWS = 256


def _fmt(x) -> str:
    return repr(float(x))


def _repr_columns(block: np.ndarray) -> list:
    """repr() of every value of a 2-D float64 block, column by column.

    A column holding one bit pattern throughout (a fixed gain, a zero force)
    is formatted once. The test compares bits, so 0.0 and -0.0 stay distinct.
    """
    bits = block.view(np.int64)
    constant = (bits == bits[0]).all(axis=0).tolist()
    return [[repr(col[0])] * len(col) if same else list(map(repr, col))
            for col, same in zip(block.T.tolist(), constant)]


def write_trace(path: str, log) -> None:
    """One row per controller tick, fixed column order, strictly increasing t.

    Rows are formatted and written TRACE_CHUNK_ROWS at a time, so the memory
    used stays flat however long the episode.
    """
    floats = (log.t, log.x_r, log.v_r, log.f_ext, log.f_cmd, log.k_eigs)
    ints = (log.phase, log.contact, log.disturbed)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for lo in range(0, log.n_ticks, TRACE_CHUNK_ROWS):
                rows = slice(lo, lo + TRACE_CHUNK_ROWS)
                block = np.column_stack([a[rows] for a in floats]).astype(float, copy=False)
                cols = _repr_columns(block)
                flags = np.column_stack([a[rows] for a in ints]).astype(np.int64)
                cols += [list(map(str, col)) for col in flags.T.tolist()]
                fh.write("".join([",".join(row) + "\n" for row in zip(*cols)]))
    except OSError as exc:
        raise IoFailure(f"cannot write trace {path}: {exc}") from exc


def _cell(v) -> str:  # a name as it is, a flag or a count as an integer, else repr(float)
    return v if isinstance(v, str) else str(int(v)) if isinstance(v, Integral) else _fmt(v)


def write_suite_csv(path: str, rows) -> None:
    """One column per SuiteRow field, in field order."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(f.name for f in fields(SuiteRow)) + "\n")
            for r in rows:
                fh.write(",".join(map(_cell, astuple(r))) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write suite summary {path}: {exc}") from exc


VERIFY_COLUMNS = ("proposition", "m", "d", "k_e", "f_H", "measured", "bound", "passed")


def write_verification_csv(path: str, reports) -> None:
    """One row per report: headline measured value vs its tolerance/bound."""
    headline = {
        "prop1": ("x_err", "tol_x"),
        "prop2": ("analytic_max_err", "analytic_tol"),
        "prop3": ("sup_e", None),
        "equivalence": ("max_step_gap", "tol"),
    }
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(VERIFY_COLUMNS) + "\n")
            for rep in reports:
                mkey, tkey = headline[rep.proposition]
                measured = rep.measured[mkey]
                bound = rep.measured["bound"] if tkey is None else rep.tolerances[tkey]
                fh.write(",".join([
                    rep.proposition,
                    _fmt(rep.params.get("m", 0.0)), _fmt(rep.params.get("d", 0.0)),
                    _fmt(rep.params.get("k_e", 0.0)), _fmt(rep.params.get("f_H", 0.0)),
                    _fmt(measured), _fmt(bound), str(int(rep.passed)),
                ]) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write verification report {path}: {exc}") from exc
