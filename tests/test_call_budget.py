"""Python calls per 1 kHz tick, pinned per task.

The per-tick code writes its vector operations out on floats (see the
numerics contract in admitsim.geometry), so a tick costs one Python call per
law: the controller tick and its deadband, the wrench, the slip law in
contact, and the door's update. A `sys.setprofile` hook counts the Python
`call` events of a short clean force-aware episode after its first policy
chunk (the later chunks' `predict` calls included) and divides by the ticks.
Each ceiling is the count this code makes, rounded up in the second decimal:
a change that brings a per-tick helper call back fails here. The counts are
deterministic; the four episodes take about 0.3 s.
"""

from __future__ import annotations

import sys

import pytest

from admitsim.harness import TICKS_PER_STEP, ScenarioConfig, _Episode
from admitsim.policy import DEFAULT_HORIZON

# Calls per tick over ticks 1,600-4,999 of a 5 s seed-1 episode. The helper
# compositions the tick replaced made 20.47 (WW), 14.47 (PH), 30.92 (MO) and
# 34.39 (DO) over the same ticks.
CEILINGS = {"WW": 3.87, "PH": 3.60, "MO": 4.99, "DO": 5.02}


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
