"""Scripted stand-in for the learned policy.

Replays expert supervision as fixed-horizon action chunks with configurable
prediction noise.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EndOfDemo, check_count, check_range, check_real
from .expert import SupervisionTuple
from .geometry import _cross, _normalize, _unit, quat_from_axis_angle, quat_rotate, sq_norm

DEFAULT_HORIZON = 16


@dataclass(frozen=True)
class NoiseSpec:
    """Oracle prediction noise and its seed.

    `rot_std` only advances the noise generator. The controller is
    translational and a command takes only the position and the gripper of
    a prediction, so `predict` returns the demo's orientation; while
    `rot_std` > 0 it still makes the two draws of an orientation
    perturbation per tuple, which keeps every later draw as it was.
    """

    pos_std: float = 0.0
    rot_std: float = 0.0
    normal_cone_std: float = 0.0
    contact_flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("pos_std", "rot_std", "normal_cone_std"):
            check_range(name, getattr(self, name), closed=True)
        check_real("contact_flip_prob", self.contact_flip_prob)
        if not 0.0 <= self.contact_flip_prob <= 1.0:  # false for NaN
            raise ValueError(f"contact_flip_prob must lie in [0, 1], got {self.contact_flip_prob}")
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


def predict(t0: int, demo: Sequence[SupervisionTuple], noise: NoiseSpec) -> tuple:
    """The next DEFAULT_HORIZON supervision tuples from policy step t0 of the
    demo, perturbed, as a tuple (the action chunk).

    The slice is padded by repeating the final tuple when the demo ends inside
    the horizon; a time index at or beyond the demo raises EndOfDemo. Output
    is deterministic in (noise.seed, t0). The predicted 6D rotation is the
    demo's: `rot_std` only draws from the noise generator (see NoiseSpec).
    """
    if t0 < 0 or t0 >= len(demo):
        raise EndOfDemo(f"time index {t0} outside demo of length {len(demo)}")
    rng = np.random.default_rng(np.random.SeedSequence([noise.seed, t0]))
    out = []
    for k in range(DEFAULT_HORIZON):
        src = demo[min(t0 + k, len(demo) - 1)]
        pose10 = src.pose10.copy()
        if noise.pos_std > 0.0:
            pose10[:3] += rng.normal(0.0, noise.pos_std, 3)
        if noise.rot_std > 0.0:
            # The draws of a rotation perturbation (axis, then angle), which no
            # output reads: they keep the stream of every later draw.
            _random_unit(rng)
            rng.normal(0.0, noise.rot_std)
        c = src.contact
        n = src.normal.tolist()
        if noise.contact_flip_prob > 0.0 and rng.random() < noise.contact_flip_prob:
            c = 1 - c
            if c == 1 and math.sqrt(sq_norm(n)) < 0.5:
                n = _random_unit(rng)  # spurious contact: the normal is garbage but unit
        if c == 1 and noise.normal_cone_std > 0.0:
            n = _perturb_normal(n, rng, noise.normal_cone_std)
        out.append(SupervisionTuple(pose10, n, c))
    return tuple(out)

