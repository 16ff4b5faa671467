"""Python calls per 1 kHz tick and per demo step, pinned per task.

The per-tick code writes its vector operations out on floats (see the
numerics contract in admitsim.geometry), so a tick costs one Python call per
law: the controller tick and its deadband, the wrench, the slip law in
contact, and the door's update. A `sys.setprofile` hook counts the Python
`call` events of a short clean force-aware episode after its first policy
chunk (the later chunks' `predict` calls included) and divides by the ticks.
Each ceiling is the count this code makes, rounded up in the second decimal:
a change that brings a per-tick helper call back fails here. The counts are
deterministic, with every gc callback set aside while they are taken (see
`calls_of`), and each test prints its count; the four episodes take about
0.3 s.

Calls are coarse: inlining or trimming a law's body does not change them. A
`sys.settrace` hook with `f_trace_opcodes` counts the bytecodes the same
episode's ticks 1,600-2,599 execute, and each task's tick has a bytecode
ceiling too, its count rounded up to a whole bytecode: one more bytecode per
tick fails. A bytecode is not a unit of time (a C call is one bytecode
whatever it costs), and the counts are CPython 3.11's, whose compiler made
them, so those tests run on 3.11 only; the four windows take about 0.3 s.

Demo generation writes its waypoints and supervision steps out on floats too
(see admitsim.expert). The same hook counts the calls of building and
planning 20 demos per task, seeded as `gen-demos` seeds them, and divides by
their supervision steps; the 80 demos take about 0.1 s. The opcode hook
counts their bytecodes too, each task's ceiling its count rounded up to a
whole bytecode, on CPython 3.11 only; the 80 demos take about 0.2 s.

`PYTHONPATH=src python tests/test_call_budget.py` prints every current count:
the calls and bytecodes per tick and per demo step of each task.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from admitsim.harness import TICKS_PER_STEP, ScenarioConfig, _Episode
from admitsim.policy import DEFAULT_HORIZON
from admitsim.tasks import build_environment, generate_demo

# Calls per tick over ticks 1,600-4,999 of a 5 s seed-1 episode. The helper
# compositions the tick replaced made 20.47 (WW), 14.47 (PH), 30.92 (MO) and
# 34.39 (DO) over the same ticks.
CEILINGS = {"WW": 3.83, "PH": 3.56, "MO": 4.95, "DO": 4.98}


@contextmanager
def gc_callbacks_set_aside():
    """No gc callback meanwhile: hypothesis times each collection with one,
    which would add its work to whichever window the collection falls in."""
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        yield
    finally:
        gc.callbacks[:] = callbacks


def calls_of(run) -> int:
    """The Python calls that run() makes, not counting run itself, with every
    gc callback set aside."""
    calls = -1  # run's own call

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    outer = sys.getprofile()
    with gc_callbacks_set_aside():
        sys.setprofile(count)
        try:
            run()
        finally:
            sys.setprofile(outer)
    return calls


def bytecodes_of(run) -> int:
    """The bytecodes that the calls run() makes execute, not counting run's
    own, with every gc callback set aside."""
    bytecodes = 0

    def count(frame, event, arg):
        nonlocal bytecodes
        if event == "opcode":
            bytecodes += 1
        return count

    def enter(frame, event, arg):  # the trace hook's call event of each frame
        if frame.f_code is run.__code__:
            return None
        frame.f_trace_opcodes = True
        return count

    outer = sys.gettrace()
    with gc_callbacks_set_aside():
        sys.settrace(enter)
        try:
            run()
        finally:
            sys.settrace(outer)
    return bytecodes


def calls_per_tick(task: str) -> float:
    ep = _Episode(ScenarioConfig(task, duration=5.0, seed=1))
    ep.advance(DEFAULT_HORIZON * TICKS_PER_STEP)
    first = ep.k
    calls = calls_of(lambda: ep.advance(ep.max_ticks))
    assert ep.k - first == 3400  # the episode ran to its end
    return calls / (ep.k - first)


@pytest.mark.parametrize("task", sorted(CEILINGS))
def test_calls_per_tick_within_the_budget(task):
    measured = calls_per_tick(task)
    print(f"{task}: {measured:.4f} calls per tick, ceiling {CEILINGS[task]}")
    assert measured <= CEILINGS[task]


# Bytecodes per tick over ticks 1,600-2,599 of the same episodes: 568.555 (WW),
# 474.834 (PH), 715.998 (MO) and 835.000 (DO) when they were pinned.
BYTECODE_CEILINGS = {"WW": 569, "PH": 475, "MO": 716, "DO": 835}


def bytecodes_per_tick(task: str) -> float:
    ep = _Episode(ScenarioConfig(task, duration=5.0, seed=1))
    ep.advance(DEFAULT_HORIZON * TICKS_PER_STEP)
    first = ep.k
    bytecodes = bytecodes_of(lambda: ep.advance(first + 1000))
    assert ep.k - first == 1000
    return bytecodes / 1000


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the ceilings count the bytecode of CPython 3.11's compiler")
@pytest.mark.parametrize("task", sorted(BYTECODE_CEILINGS))
def test_bytecodes_per_tick_within_the_budget(task):
    measured = bytecodes_per_tick(task)
    print(f"{task}: {measured:.3f} bytecodes per tick, ceiling {BYTECODE_CEILINGS[task]}")
    assert measured <= BYTECODE_CEILINGS[task]


# Calls per supervision step over demos 0-19 of seed 0 (build_environment and
# generate_demo). The helper compositions the planners, the ink stroke and
# the extraction replaced made 13.33 (MO), 4.27 (PH), 8.35 (WW) and 15.43 (DO),
# the plans made 1.30, 0.86, 1.32 and 1.29 while they carried an orientation,
# and 1.06, 0.73, 1.13 and 1.06 while each waypoint was wrapped in a one-field
# pose tuple. MO and DO include the one miss of the arc table
# (`expert._arc_table`) of a fresh process; a warm table makes fewer calls.
DEMO_CEILINGS = {"MO": 0.87, "PH": 0.61, "WW": 1.00, "DO": 0.94}


def per_demo_step(task: str, count) -> float:
    """count (`calls_of` or `bytecodes_of`) of building and planning demos
    0-19 of seed 0, per supervision step."""
    total, demos = 0, []
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([0, i]))
        total += count(lambda: demos.append(generate_demo(task, build_environment(task, rng))))
    return total / sum(map(len, demos))


@pytest.mark.parametrize("task", sorted(DEMO_CEILINGS))
def test_calls_per_demo_step_within_the_budget(task):
    measured = per_demo_step(task, calls_of)
    print(f"{task}: {measured:.4f} calls per demo step, ceiling {DEMO_CEILINGS[task]}")
    assert measured <= DEMO_CEILINGS[task]


# Bytecodes per supervision step over the same demos: 172.236 (MO), 77.118
# (PH), 110.176 (WW) and 198.792 (DO), the most of any run in a fresh process,
# when they were pinned; a warm arc table makes MO 171.39 and DO 197.73.
DEMO_BYTECODE_CEILINGS = {"MO": 173, "PH": 78, "WW": 111, "DO": 199}


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the ceilings count the bytecode of CPython 3.11's compiler")
@pytest.mark.parametrize("task", sorted(DEMO_BYTECODE_CEILINGS))
def test_bytecodes_per_demo_step_within_the_budget(task):
    measured = per_demo_step(task, bytecodes_of)
    print(f"{task}: {measured:.3f} bytecodes per demo step, "
          f"ceiling {DEMO_BYTECODE_CEILINGS[task]}")
    assert measured <= DEMO_BYTECODE_CEILINGS[task]


if __name__ == "__main__":
    for task in sorted(CEILINGS):
        print(f"{task}: {calls_per_tick(task):.4f} calls and {bytecodes_per_tick(task):.3f} "
              f"bytecodes per tick, {per_demo_step(task, calls_of):.4f} calls and "
              f"{per_demo_step(task, bytecodes_of):.3f} bytecodes per demo step")
    sys.exit(0)
