"""Python calls per 1 kHz tick and per demo step, pinned per task.

The per-tick code writes its vector operations out on floats (see the
numerics contract in admitsim.geometry), so a tick costs one Python call per
law: the controller tick and its deadband, the wrench, the slip law in
contact, and the door's update. A `sys.setprofile` hook counts the Python
`call` events of a short clean force-aware episode after its first policy
chunk (the later chunks' `predict` calls included) and divides by the ticks.
Each ceiling is the count this code makes, rounded up in the second decimal:
a change that brings a per-tick helper call back fails here. The counts are
deterministic; the four episodes take about 0.3 s.

Demo generation writes its waypoints and supervision steps out on floats too
(see admitsim.expert). The same hook counts the calls of building and
planning 20 demos per task, seeded as `gen-demos` seeds them, and divides by
their supervision steps; the 80 demos take about 0.1 s.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from admitsim.harness import TICKS_PER_STEP, ScenarioConfig, _Episode
from admitsim.policy import DEFAULT_HORIZON
from admitsim.tasks import build_environment, generate_demo

# Calls per tick over ticks 1,600-4,999 of a 5 s seed-1 episode. The helper
# compositions the tick replaced made 20.47 (WW), 14.47 (PH), 30.92 (MO) and
# 34.39 (DO) over the same ticks.
CEILINGS = {"WW": 3.83, "PH": 3.56, "MO": 4.95, "DO": 4.98}


def calls_per_tick(task: str) -> float:
    ep = _Episode(ScenarioConfig(task, duration=5.0, seed=1))
    ep.advance(DEFAULT_HORIZON * TICKS_PER_STEP)
    first = ep.k
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        ep.advance(ep.max_ticks)
    finally:
        sys.setprofile(outer)
    assert ep.k - first == 3400  # the episode ran to its end
    return calls / (ep.k - first)


@pytest.mark.parametrize("task", sorted(CEILINGS))
def test_calls_per_tick_within_the_budget(task):
    assert calls_per_tick(task) <= CEILINGS[task]


# Calls per supervision step over demos 0-19 of seed 0 (build_environment and
# generate_demo). The helper compositions the planners, the ink stroke and
# the extraction replaced made 13.33 (MO), 4.27 (PH), 8.35 (WW) and 15.43 (DO),
# and the plans made 1.30, 0.86, 1.32 and 1.29 while they carried an
# orientation. MO and DO include the one miss of the arc table
# (`expert._arc_table`) of a fresh process; a warm table makes fewer calls.
DEMO_CEILINGS = {"MO": 1.06, "PH": 0.73, "WW": 1.13, "DO": 1.06}


def calls_per_demo_step(task: str) -> float:
    calls = steps = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    outer = sys.getprofile()
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([0, i]))
        sys.setprofile(count)
        try:
            demo = generate_demo(task, build_environment(task, rng))
        finally:
            sys.setprofile(outer)
        steps += len(demo)
    return calls / steps


@pytest.mark.parametrize("task", sorted(DEMO_CEILINGS))
def test_calls_per_demo_step_within_the_budget(task):
    assert calls_per_demo_step(task) <= DEMO_CEILINGS[task]
