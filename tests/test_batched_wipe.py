"""The board's batched wipe against the per-tick wipe it replaced.

An episode records each press at or above F_MIN_WIPE and `update_ink` wipes
them all once per `advance`. The reference below is the per-tick path: on
every tick whose force along the board normal reaches F_MIN_WIPE, transform
the position into the board frame in force at that tick and wipe the
eraser's window over the whole grid at once. The batched grid and cell count
must equal it after every `advance`.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scenarios import scenario_config

from admitsim import harness
from admitsim.environments import BOARD_EXTENT, CELL_SIZE, ERASER_HALF, F_MIN_WIPE, update_ink
from admitsim.geometry import _quat_matrix, _sub, dot3
from admitsim.tasks import build_environment


def reference_wipe(inked, x, y) -> int:
    """The eraser's window at the board-frame point (x, y), wiped over the
    whole grid: the index bounds by math.ceil and math.floor, clamped."""
    nx, ny = inked.shape
    i_lo = max(0, math.ceil((x - ERASER_HALF + 0.5 * BOARD_EXTENT[0]) / CELL_SIZE - 0.5))
    i_hi = min(nx, math.floor((x + ERASER_HALF + 0.5 * BOARD_EXTENT[0]) / CELL_SIZE - 0.5) + 1)
    j_lo = max(0, math.ceil((y - ERASER_HALF + 0.5 * BOARD_EXTENT[1]) / CELL_SIZE - 0.5))
    j_hi = min(ny, math.floor((y + ERASER_HALF + 0.5 * BOARD_EXTENT[1]) / CELL_SIZE - 0.5) + 1)
    if i_lo >= i_hi or j_lo >= j_hi:
        return 0
    count = int(inked[i_lo:i_hi, j_lo:j_hi].sum())
    inked[i_lo:i_hi, j_lo:j_hi] = False
    return count


def reference_press(inked, board, p) -> int:
    """Wipe at the world point p under the board's present geometry: the
    board-plane x and y of p by float dot3s with the world-to-board rows."""
    r0, r1, _ = zip(*_quat_matrix(board.rotation))
    d = _sub(p, board.rest_point)
    return reference_wipe(inked, dot3(r0, d), dot3(r1, d))


def test_a_batch_equals_the_wipes_one_at_a_time():
    """One batch of wipes cleans what the same wipes one at a time over the
    whole grid clean, in total and cell for cell, repeated windows included."""
    rng = np.random.default_rng(5)
    wiped = 0
    for seed in range(10):
        ink = build_environment("WW", np.random.default_rng(seed)).ink
        inked = ink.inked.copy()
        xs, ys = rng.uniform(-0.16, 0.16, 400), rng.uniform(-0.11, 0.11, 400)
        xs[1::2], ys[1::2] = xs[::2], ys[::2]  # each point twice in a row
        expected = sum(reference_wipe(inked, x, y) for x, y in zip(xs, ys))
        count = ink.wipe(xs, ys)
        assert count == expected
        assert np.array_equal(ink.inked, inked)
        wiped += count
    assert wiped > 100


@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(["press", "press", "press", "again", "move", "wipe"]),
                max_size=80))
@settings(max_examples=60, deadline=None)
def test_batched_wipes_equal_per_press_wipes_under_moving_geometry(seed, steps):
    """Presses with raises, shifts and tilts of the board between them, wiped
    in batches at random points: the grid and the count equal per-press wipes
    in the geometry of each press."""
    rng = np.random.default_rng(seed)
    board = build_environment("WW", rng)
    inked = board.ink.inked.copy()
    axis = tuple(rng.normal(size=3))
    expected = wiped = 0
    p = board.rest_point
    positions = []  # one per press, as a tick's position is one per tick
    for step in steps + ["wipe"]:
        if step == "move":
            tilt = 0.0 if rng.random() < 0.3 else rng.uniform(-0.3, 0.3)
            board.apply_disturbance_state(tuple(rng.uniform(-0.05, 0.05, 3)), tilt, axis)
        elif step in ("press", "again"):
            if step == "press":
                # Around the eraser's reach of the ink, and anywhere over the board.
                cells = np.argwhere(inked)
                if len(cells) and rng.random() < 0.7:
                    i, j = cells[rng.integers(len(cells))]
                    xy = ((i + 0.5) * CELL_SIZE - 0.5 * BOARD_EXTENT[0] + rng.normal(scale=0.01),
                          (j + 0.5) * CELL_SIZE - 0.5 * BOARD_EXTENT[1] + rng.normal(scale=0.01))
                else:
                    xy = tuple(rng.uniform(-0.2, 0.2, size=2))
                frame = np.array(_quat_matrix(board.rotation))
                p = tuple(map(float, board.rest_point + frame @ (*xy, rng.uniform(-0.01, 0.01))))
            board.presses.append(len(positions))
            positions.append(p)
            expected += reference_press(inked, board, p)
        else:
            wiped += update_ink(board, np.reshape(positions, (-1, 3)))
            assert wiped == expected
            assert np.array_equal(board.ink.inked, inked)
            assert len(board.presses) == 0


class WipeReference:
    """The per-tick wipe of the episodes that `advance` runs, on grids of
    their own: a wrapper of the loop's controller_tick wipes after each tick
    as the per-tick path did, and one of update_ink counts the batched cells."""

    def __init__(self, monkeypatch):
        self.grids = {}    # id(episode) -> (reference grid, reference count, batched count)
        self.running = None
        tick, ink = harness.controller_tick, harness.update_ink

        def reference_tick(state, cmd, raw_force, dt, adm):
            result = tick(state, cmd, raw_force, dt, adm)
            env = self.running.env
            if dot3(raw_force, env.surface_normal) >= F_MIN_WIPE:
                grid, count, batched = self.grids[id(self.running)]
                count += reference_press(grid, env, result[0][0])
                self.grids[id(self.running)] = (grid, count, batched)
            return result

        def counted_update_ink(board, positions):
            wiped = ink(board, positions)
            grid, count, batched = self.grids[id(self.running)]
            self.grids[id(self.running)] = (grid, count, batched + wiped)
            return wiped

        monkeypatch.setattr(harness, "controller_tick", reference_tick)
        monkeypatch.setattr(harness, "update_ink", counted_update_ink)

    def track(self, ep, like=None):
        """Start a reference grid for ep: its own ink, or a copy of like's
        reference at this point."""
        if like is None:
            self.grids[id(ep)] = (ep.env.ink.inked.copy(), 0, 0)
        else:
            grid, count, batched = self.grids[id(like)]
            self.grids[id(ep)] = (grid.copy(), count, batched)

    def advance(self, ep, k_end):
        """ep.advance(k_end); then its grid and count equal the reference's."""
        self.running = ep
        ep.advance(k_end)
        grid, count, batched = self.grids[id(ep)]
        assert np.array_equal(ep.env.ink.inked, grid)
        assert batched == count
        return count


def test_mixed_disturbances_wipe_as_per_tick(monkeypatch):
    """The golden mixed scenario's tilt, lowering and sinusoid: the board
    moves on every tick of their ramps and oscillation while the eraser presses."""
    ref = WipeReference(monkeypatch)
    ep = harness._Episode(scenario_config("ww_force_aware_mixed"))
    ref.track(ep)
    for k_end in (ep.onset, 3000, 3300, 4100, 5000, ep.max_ticks):
        wiped = ref.advance(ep, k_end)
    assert wiped > 0 and not ep.safety_stopped


def test_the_raise_and_its_twin_wipe_as_per_tick(monkeypatch):
    """The default raise, and its clean twin copied at the onset: each goes on
    from the grid the copy took."""
    ref = WipeReference(monkeypatch)
    cfg = scenario_config("ww_force_aware_raise", duration=7.0)
    ep = harness._Episode(cfg)
    ref.track(ep)
    before = ref.advance(ep, ep.onset)
    twin = ep.copy(replace(cfg, disturbances=()))
    ref.track(twin, like=ep)
    for k_end in (5600, ep.max_ticks):
        raised = ref.advance(ep, k_end)
        clean = ref.advance(twin, k_end)
    assert 0 < before < raised and before < clean
    assert not np.array_equal(ep.env.ink.inked, twin.env.ink.inked)


def test_the_safety_stopped_raise_wipes_as_per_tick(monkeypatch):
    ref = WipeReference(monkeypatch)
    ep = harness._Episode(scenario_config("ww_baseline_high_raise_stop"))
    ref.track(ep)
    assert ref.advance(ep, ep.max_ticks) > 0
    assert ep.safety_stopped and ep.log().n_ticks < ep.max_ticks
    assert ep.k == ep.log().n_ticks == 5321  # the ticks run, not the 6000 asked for
