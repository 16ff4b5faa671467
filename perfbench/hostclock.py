"""A host clock that reads wall time and wall time at a reference host speed."""

from __future__ import annotations

import contextlib
import math
import signal
import time
from dataclasses import dataclass

import numpy as np

# Reference kernel of the host clock: a stand-in for the 1 kHz loop's kind of
# work (a frozen dataclass state, a deadband on a force norm, a cross product,
# semi-implicit Euler on 3-vectors) that calls no admitsim code, so no change to
# the program can change it. Tracking the host's speed with this mix halved
# the leftover spread of the scaled times against a bare numpy loop.
REF_STEPS = 250
REF_SECONDS = 0.0113    # its median time on the host the benchmark was written on
SAMPLE_INTERVAL_S = 0.5


@dataclass(frozen=True)
class _State:
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


def _reference_kernel() -> float:
    state = _State(np.zeros(3), np.ones(3))
    normal = np.array([0.0, 0.0, 1.0])
    acc = 0.0
    for _ in range(REF_STEPS):
        force = -50.0 * state.x - 10.0 * state.v
        norm = float(np.linalg.norm(force))
        if norm > 1.0:
            force = force * (1.0 - 1.0 / norm)
        v = state.v + 0.001 * (force + 0.1 * np.cross(normal, state.v))
        state = _State(state.x + 0.001 * v, v)
        acc += float(state.x @ normal) + math.sqrt(abs(acc) + 1.0)
    return acc


class HostClock:
    """Wall time, and wall time scaled to a reference host speed.

    The shared 2-core host this benchmark was written on runs the same code
    1.0-2.1 times slower from one stretch of seconds to tens of seconds to the
    next, too slowly for a median inside one run to average it out. The clock
    times the reference kernel at operation boundaries and every
    SAMPLE_INTERVAL_S in between (from a SIGALRM handler, so inside long calls
    too), and scales each interval between two samples by the mean of
    REF_SECONDS over their kernel times. On that host this cut the spread of
    9 s blocks of identical DO and WW episodes from a CV of 0.16 (wall) to
    0.03-0.04 (scaled).

    Sampling time is left out of every interval, both scaled and raw, and
    ``kernel_s`` adds it up so that spans around a sample can leave it out too.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []    # (start, end) of each kernel run
        self.kernel_s = 0.0  # total time spent sampling

    def sample(self, *_signal_args):
        start = self.clock()
        _reference_kernel()
        end = self.clock()
        self.samples.append((start, end))
        self.kernel_s += end - start

    @contextlib.contextmanager
    def periodic(self):
        """Sample every SAMPLE_INTERVAL_S of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float, raw: bool = False) -> float:
        """Reference-speed (or with ``raw``, wall) seconds of [start, end],
        sampling time excluded."""
        if not self.samples:
            return end - start
        speed = [1.0 if raw else REF_SECONDS / (b - a) for a, b in self.samples]
        total = 0.0
        # Gaps: before the first sample, between samples, after the last.
        edges = [(-math.inf, self.samples[0][0], speed[0])]
        for i in range(len(self.samples) - 1):
            edges.append((self.samples[i][1], self.samples[i + 1][0],
                          0.5 * (speed[i] + speed[i + 1])))
        edges.append((self.samples[-1][1], math.inf, speed[-1]))
        for lo, hi, factor in edges:
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0.0:
                total += overlap * factor
        return total
