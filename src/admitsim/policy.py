"""Scripted stand-in for the learned policy.

Replays expert supervision, the rows of a demo's record block, as
fixed-horizon action chunks with configurable prediction noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admittance import ControllerCommand
from .errors import EndOfDemo, check_count, check_range
from .expert import CONTACT, GRIPPER, NORMAL, POSITION, SupervisionRecords
from .geometry import _cross, _normalize, _unit, quat_from_axis_angle, quat_rotate, sq_norm, vec3

DEFAULT_HORIZON = 16


@dataclass(frozen=True)
class NoiseSpec:
    """Oracle prediction noise and its seed.

    `rot_std` only advances the noise generator. The controller is
    translational and a command holds no orientation, so `predict` predicts
    none; while `rot_std` > 0 it still makes the two draws of an orientation
    perturbation per step, which keeps every later draw as it was.

    `pos_std` is at most 1 (m) and `normal_cone_std` at most pi (rad): wider
    draws overflow midway through a run.
    """

    pos_std: float = 0.0
    rot_std: float = 0.0
    normal_cone_std: float = 0.0
    contact_flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, high in (("pos_std", 1.0), ("rot_std", math.inf),
                           ("normal_cone_std", math.pi), ("contact_flip_prob", 1.0)):
            check_range(name, getattr(self, name), closed=True, high=high)
        check_count("seed", self.seed, 0)


def _random_unit(rng: np.random.Generator) -> tuple:
    while True:
        v = rng.normal(size=3).tolist()
        n = math.sqrt(sq_norm(v))
        if n > 1e-8:
            return _unit(v, n)


def _perturb_normal(n, rng: np.random.Generator, cone_std: float) -> tuple:
    """The unit normal n (a float 3-sequence) tilted by a random cone angle."""
    angle = rng.normal(0.0, cone_std)
    # Rotation axis orthogonal to n so the cone angle is exactly `angle`.
    axis = _cross(n, _random_unit(rng))
    while math.sqrt(sq_norm(axis)) < 1e-8:
        axis = _cross(n, _random_unit(rng))
    q = quat_from_axis_angle(axis, angle)
    return _normalize(quat_rotate(q, n))


def predict(t0: int, records: SupervisionRecords, noise: NoiseSpec) -> tuple:
    """The next DEFAULT_HORIZON steps from policy step t0 of a demo's
    records, perturbed, as a tuple of ControllerCommands (the action chunk).

    The rows of the record block are read once as floats and padded by
    repeating the final row when the demo ends inside the horizon; a time
    index at or beyond the demo raises EndOfDemo. Each command takes the
    position (plus the position noise), the gripper, the normal and the
    contact flag of its row. Output is deterministic in (noise.seed, t0).
    `rot_std` only draws from the noise generator (see NoiseSpec).
    """
    if t0 < 0 or t0 >= len(records):
        raise EndOfDemo(f"time index {t0} outside demo of length {len(records)}")
    rng = np.random.default_rng(np.random.SeedSequence([noise.seed, t0]))
    rows = records.block[t0:t0 + DEFAULT_HORIZON].tolist()
    rows += rows[-1:] * (DEFAULT_HORIZON - len(rows))
    out = []
    for row in rows:
        x_cmd = row[POSITION]
        if noise.pos_std > 0.0:
            d0, d1, d2 = rng.normal(0.0, noise.pos_std, 3).tolist()
            p0, p1, p2 = x_cmd
            x_cmd = (p0 + d0, p1 + d1, p2 + d2)
        if noise.rot_std > 0.0:
            # The draws of a rotation perturbation (axis, then angle), which no
            # output reads: they keep the stream of every later draw.
            _random_unit(rng)
            rng.normal(0.0, noise.rot_std)
        c = int(row[CONTACT])
        n = row[NORMAL]
        if noise.contact_flip_prob > 0.0 and rng.random() < noise.contact_flip_prob:
            c = 1 - c
            if c == 1 and math.sqrt(sq_norm(n)) < 0.5:
                n = _random_unit(rng)  # spurious contact: the normal is garbage but unit
        if c == 1 and noise.normal_cone_std > 0.0:
            # ControllerCommand's checks, made before the tilt would hide the
            # fault (a normal shorter than 1e-8 would never find its axis).
            n = vec3("n", n)
            if abs(math.sqrt(sq_norm(n)) - 1.0) > 1e-6:
                raise ValueError("normal direction must be unit when c=1")
            n = _perturb_normal(n, rng, noise.normal_cone_std)
        out.append(ControllerCommand(x_cmd, row[GRIPPER], n, c))
    return tuple(out)
