"""Scripted stand-in for the learned policy.

Replays expert supervision as fixed-horizon action chunks with configurable
prediction noise, and scores predictions with the weighted L1 training loss
(pose/gripper, contact-masked normal, contact flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EndOfDemo, LengthMismatch
from .expert import SupervisionTuple
from .geometry import (
    _cross,
    _normalize,
    _unit,
    quat_from_axis_angle,
    quat_mul,
    quat_rotate,
    rot6d_decode,
    rot6d_encode,
    sq_norm,
)

DEFAULT_HORIZON = 16


@dataclass(frozen=True)
class NoiseSpec:
    """Oracle prediction noise and its seed.

    `rot_std` perturbs the predicted orientation. The controller is
    translational and a command takes only the position and the gripper of
    a prediction, so no output reads that orientation; its draws still
    advance the noise generator, and with it every later draw.
    """

    pos_std: float = 0.0
    rot_std: float = 0.0
    normal_cone_std: float = 0.0
    contact_flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # Written so that NaN fails each test: every comparison with NaN is false.
        for name in ("pos_std", "rot_std", "normal_cone_std"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.contact_flip_prob <= 1.0:
            raise ValueError(f"contact_flip_prob must lie in [0, 1], got {self.contact_flip_prob}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def predict(t0: int, demo: list[SupervisionTuple], noise: NoiseSpec,
            horizon: int = DEFAULT_HORIZON) -> tuple:
    """The next `horizon` supervision tuples from policy step t0 of the demo,
    perturbed, as a tuple (the action chunk).

    The slice is padded by repeating the final tuple when the demo ends inside
    the horizon; a time index at or beyond the demo raises EndOfDemo. Output
    is deterministic in (noise.seed, t0).
    """
    if horizon < 1:
        raise ValueError("chunk horizon must be >= 1")
    if t0 < 0 or t0 >= len(demo):
        raise EndOfDemo(f"time index {t0} outside demo of length {len(demo)}")
    rng = np.random.default_rng(np.random.SeedSequence([noise.seed, t0]))
    out = []
    for k in range(horizon):
        src = demo[min(t0 + k, len(demo) - 1)]
        pose10 = src.pose10.copy()
        if noise.pos_std > 0.0:
            pose10[:3] += rng.normal(0.0, noise.pos_std, 3)
        if noise.rot_std > 0.0:
            q = rot6d_decode(pose10[3:9])
            dq = quat_from_axis_angle(_random_unit(rng), rng.normal(0.0, noise.rot_std))
            pose10[3:9] = rot6d_encode(quat_mul(dq, q))
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


def loss(pred: list[SupervisionTuple], gt: list[SupervisionTuple],
         lam1: float = 1.0, lam2: float = 1.0, lam3: float = 1.0) -> float:
    """Weighted L1: pose/gripper + contact-masked normal + contact flag.

    Each term is the mean absolute error over its elements and steps; the
    normal term averages only over ground-truth contact steps (the placeholder
    normal out of contact is arbitrary).
    """
    if len(pred) != len(gt):
        raise LengthMismatch(f"prediction/target lengths differ: {len(pred)} vs {len(gt)}")
    if len(pred) == 0:
        return 0.0
    pose_err = float(np.mean([np.abs(p.pose10 - g.pose10).mean() for p, g in zip(pred, gt)]))
    contact_steps = [(p, g) for p, g in zip(pred, gt) if g.contact == 1]
    if contact_steps:
        normal_err = float(np.mean([np.abs(p.normal - g.normal).mean() for p, g in contact_steps]))
    else:
        normal_err = 0.0
    c_err = float(np.mean([abs(p.contact - g.contact) for p, g in zip(pred, gt)]))
    return lam1 * pose_err + lam2 * normal_err + lam3 * c_err
