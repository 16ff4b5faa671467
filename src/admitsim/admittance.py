"""Force-aware Cartesian admittance controller.

Translational dynamics per tick:

    M x_r'' + D_eff x_r' + K_eff (x_r - x_cmd) = F_ext - F_cmd

with F_cmd = f*n during contact (normal force regulation) and K_eff optionally
stiffened along the commanded tangent direction. Discretized with
semi-implicit Euler.

The per-tick evaluation order is fixed for reproducibility:
deadband -> commanded force -> effective gains -> integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

from .errors import NonFiniteState, NonPositiveParameter, check_range
from .geometry import dot3, sq_norm, tangent_or_none, vec3

MAX_DT = 0.01  # controller step ceiling (s); nominal operation is 1 kHz

_ZERO3 = (0.0, 0.0, 0.0)


def compute_damping(mass: float, stiffness: float, damping_ratio: float) -> float:
    """Over-damped gain d = 2*xi*sqrt(m*k)."""
    check_range("mass", mass, error=NonPositiveParameter)
    check_range("stiffness", stiffness, error=NonPositiveParameter)
    check_range("damping_ratio", damping_ratio, error=NonPositiveParameter)
    return 2.0 * damping_ratio * math.sqrt(mass * stiffness)


@dataclass(frozen=True)
class AdmittanceConfig:
    """Controller gains and task flags.

    Defaults follow the nominal setup: unit mass, stiffness 50, over-damped
    ratio 2, tangent scale 4, force deadband 2 N.

    `damping` and `tangent_damping` (the damping paired with the scaled
    tangent stiffness, by the same over-damped rule) are derived once, here;
    `dataclasses.replace` derives them again for the new gains.
    """

    mass: float = 1.0
    stiffness: float = 50.0
    damping_ratio: float = 2.0
    tangent_scale: float = 4.0
    enable_normal_regulation: bool = False
    enable_tangent_stiffening: bool = False
    target_force: float = 0.0  # f_H, desired normal contact force magnitude (N)
    force_deadband: float = 2.0

    def __post_init__(self):
        k = self.stiffness
        # compute_damping checks the mass, the stiffness and the damping ratio.
        object.__setattr__(self, "damping", compute_damping(self.mass, k, self.damping_ratio))
        check_range("tangent_scale", self.tangent_scale, low=1.0, closed=True)
        check_range("target_force", self.target_force, closed=True)
        check_range("force_deadband", self.force_deadband, closed=True)
        k_t = self.tangent_scale * k
        object.__setattr__(self, "tangent_damping",
                           compute_damping(self.mass, k_t, self.damping_ratio))
        # The two eigenvalue triples of K_eff that controller_tick reports.
        object.__setattr__(self, "_eigs", (k, k, k))
        object.__setattr__(self, "_tangent_eigs", (k, k, k_t))


# The state of the 1 kHz loop is a NamedTuple of float tuples. The public
# constructor of ControllerState coerces any sequence (an array, a list); the
# loop builds it and TickResult from values it has already checked with
# tuple.__new__, which skips that and the NamedTuple constructors' calls.
_new = tuple.__new__


class _StateFields(NamedTuple):
    x_r: tuple
    v_r: tuple


class ControllerState(_StateFields):
    """Compliant reference position and velocity advanced by the admittance law."""

    __slots__ = ()

    def __new__(cls, x_r, v_r):
        return super().__new__(cls, vec3(x_r), vec3(v_r))


@dataclass(frozen=True)
class ControllerCommand:
    """One policy action: reference position, gripper, normal direction, contact flag.

    `predict` returns its action chunk as a tuple of these. The position and
    the normal are float tuples, coerced from any sequence.
    """

    x_cmd: tuple
    gripper: float = 0.0
    n: tuple = None
    c: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x_cmd", vec3(self.x_cmd))
        n = _ZERO3 if self.n is None else vec3(self.n)
        object.__setattr__(self, "n", n)
        if self.c not in (0, 1):
            raise ValueError(f"contact flag must be 0 or 1, got {self.c!r}")
        if self.c == 1 and abs(math.sqrt(sq_norm(n)) - 1.0) > 1e-6:
            raise ValueError("normal direction must be unit when c=1")


def _radial_deadband(v, band: float) -> tuple:
    """Shrink the magnitude of the float 3-vector v by the band; zero below it."""
    v0, v1, v2 = v
    if band <= 0.0:
        return (v0, v1, v2)
    mag = math.sqrt(sq_norm(v))
    if mag <= band:
        return _ZERO3
    s = (mag - band) / mag
    return (v0 * s, v1 * s, v2 * s)


def commanded_force(cmd: ControllerCommand, st: ControllerState, cfg: AdmittanceConfig) -> tuple:
    """F_cmd = f*n with f = f_H + n.K(x_cmd - x_r) + n.D x_r'; zero out of contact.

    K and D here are the base isotropic gains: any tangent-stiffening rank-1
    term is orthogonal to n and cannot contribute to the n-projection.
    """
    if cmd.c == 0 or not cfg.enable_normal_regulation:
        return _ZERO3
    n = cmd.n
    c0, c1, c2 = cmd.x_cmd
    x0, x1, x2 = st.x_r
    f = (cfg.target_force + cfg.stiffness * dot3(n, (c0 - x0, c1 - x1, c2 - x2))
         + cfg.damping * dot3(n, st.v_r))
    n0, n1, n2 = n
    return (f * n0, f * n1, f * n2)


class TickResult(NamedTuple):
    """The new state and the per-tick log values, each vector a float tuple."""

    state: ControllerState
    f_ext: tuple           # deadbanded external force fed to the law
    f_cmd: tuple
    stiffness_eigs: tuple  # eigenvalues of K_eff: (k, k, k_t) or (k, k, k)


def controller_tick(st: ControllerState, cmd: ControllerCommand, force: tuple,
                    dt: float, cfg: AdmittanceConfig) -> TickResult:
    """One full controller tick in the fixed evaluation order.

    Equivalent to deadbanding the raw external force (a float 3-tuple), then
    one semi-implicit Euler step of the law with materialized K_eff and D_eff,
    but with the gains applied algebraically (the rank-1 tangent update never
    needs a materialized matrix), to keep the 1 kHz loop cheap
    (tests/test_admittance.py keeps the materialized form as a reference).
    Inputs, state and results are float tuples, and the arithmetic, dot
    products included, runs on Python floats (see the numerics contract in
    admitsim.geometry). The inputs were validated by their constructors and
    are not coerced again.
    """
    if not 0.0 < dt <= MAX_DT:  # NaN fails the comparison too
        raise ValueError(f"dt must be in (0, {MAX_DT}] s, got {dt}")
    f0, f1, f2 = f_ext = _radial_deadband(force, cfg.force_deadband)
    g0, g1, g2 = f_cmd = commanded_force(cmd, st, cfg)
    k = cfg.stiffness
    d = cfg.damping
    x0, x1, x2 = st.x_r
    v = st.v_r
    v0, v1, v2 = v
    c0, c1, c2 = cmd.x_cmd
    e = (x0 - c0, x1 - c1, x2 - c2)                           # x_r - x_cmd
    s0, s1, s2 = k * e[0], k * e[1], k * e[2]                 # spring
    b0, b1, b2 = d * v0, d * v1, d * v2                       # damping
    t_axis = None
    if cfg.enable_tangent_stiffening and cmd.c == 1:
        # None: motion too short or along n, isotropic fallback.
        t_axis = tangent_or_none(cmd.n, (c0 - x0, c1 - x1, c2 - x2))
    if t_axis is None:
        eigs = cfg._eigs
    else:
        eigs = cfg._tangent_eigs
        ks = (eigs[2] - k) * dot3(t_axis, e)
        ds = (cfg.tangent_damping - d) * dot3(t_axis, v)
        t0, t1, t2 = t_axis
        s0, s1, s2 = s0 + ks * t0, s1 + ks * t1, s2 + ks * t2
        b0, b1, b2 = b0 + ds * t0, b1 + ds * t1, b2 + ds * t2
    a = dt / cfg.mass
    v0 = v0 + a * (f0 - g0 - b0 - s0)
    v1 = v1 + a * (f1 - g1 - b1 - s1)
    v2 = v2 + a * (f2 - g2 - b2 - s2)
    x0, x1, x2 = x0 + dt * v0, x1 + dt * v1, x2 + dt * v2
    if not (isfinite(x0) and isfinite(x1) and isfinite(x2)
            and isfinite(v0) and isfinite(v1) and isfinite(v2)):
        raise NonFiniteState("controller state diverged")
    return _new(TickResult, (_new(ControllerState, ((x0, x1, x2), (v0, v1, v2))),
                             f_ext, f_cmd, eigs))
