"""Force-aware Cartesian admittance controller.

Translational dynamics per tick:

    M x_r'' + D_eff x_r' + K_eff (x_r - x_cmd) = F_ext - F_cmd

with F_cmd = f*n during contact (normal force regulation) and K_eff optionally
stiffened along the commanded tangent direction. Discretized with
semi-implicit Euler.

The per-tick evaluation order is fixed for reproducibility:
deadband -> commanded force -> effective gains -> integrate.

`controller_tick` holds every law of that tick but the deadband: the
commanded force f*n, the tangent axis (the commanded motion projected off n,
with its isotropic fallbacks below EPS_POS and EPS_PROJ), the rank-1 gain
update and the Euler step each have their one implementation there, written
out on floats. The radial deadband is `_radial_deadband`, which the
verifier's equivalence check calls too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite, sqrt
from typing import NamedTuple

from .errors import (
    NonFiniteState,
    NonPositiveParameter,
    check_finite_components,
    check_range,
    check_real,
)
from .geometry import vec3

MAX_DT = 0.01  # controller step ceiling (s); nominal operation is 1 kHz

# Degeneracy thresholds of the tangent axis: below these the commanded motion
# carries no usable tangent information and the tick falls back to isotropic
# stiffness.
EPS_POS = 1e-6
EPS_PROJ = 1e-6

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
        if not k_t < math.inf:
            raise ValueError(f"tangent_scale * stiffness must be finite, "
                             f"got {self.tangent_scale} * {k}")
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
    """Compliant reference position and velocity advanced by the admittance law.

    The public constructor rejects a non-finite component with a ValueError
    naming the field.
    """

    __slots__ = ()

    def __new__(cls, x_r, v_r):
        return super().__new__(cls, check_finite_components("x_r", vec3(x_r)),
                               check_finite_components("v_r", vec3(v_r)))


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
        x_cmd = vec3(self.x_cmd)
        object.__setattr__(self, "x_cmd", x_cmd)
        n = _ZERO3 if self.n is None else vec3(self.n)
        object.__setattr__(self, "n", n)
        if not all(map(isfinite, x_cmd)):
            raise ValueError(f"x_cmd must be finite, got {x_cmd}")
        try:  # no call per command unless the check fails
            finite = isfinite(self.gripper)
        except TypeError:
            check_real("gripper", self.gripper)
            raise
        if not finite:
            raise ValueError(f"gripper must be finite, got {self.gripper!r}")
        if self.c not in (0, 1):
            raise ValueError(f"contact flag must be 0 or 1, got {self.c!r}")
        if self.c == 1:  # the tick reads n only in contact
            if not all(map(isfinite, n)):
                raise ValueError(f"normal direction n must be finite when c=1, got {n}")
            n0, n1, n2 = n
            if abs(sqrt(n0 * n0 + n1 * n1 + n2 * n2) - 1.0) > 1e-6:
                raise ValueError("normal direction must be unit when c=1")


def _radial_deadband(v, band: float) -> tuple:
    """Shrink the magnitude of the float 3-vector v by the band; zero below it."""
    v0, v1, v2 = v
    if band <= 0.0:
        return (v0, v1, v2)
    mag = sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    if mag <= band:
        return _ZERO3
    s = (mag - band) / mag
    return (v0 * s, v1 * s, v2 * s)


class TickResult(NamedTuple):
    """The new state and the per-tick log values, each vector a float tuple."""

    state: ControllerState
    f_ext: tuple           # deadbanded external force fed to the law
    f_cmd: tuple
    stiffness_eigs: tuple  # eigenvalues of K_eff: (k, k, k_t) or (k, k, k)


def controller_tick(st: ControllerState, cmd: ControllerCommand, force: tuple,
                    dt: float, cfg: AdmittanceConfig) -> TickResult:
    """One full controller tick in the fixed evaluation order.

    Deadbands the raw external force (a float 3-tuple, `_radial_deadband`),
    evaluates the commanded force and the tangent axis, then takes one
    semi-implicit Euler step of the law. The gains are applied algebraically:
    the rank-1 tangent update never needs a materialized matrix
    (tests/test_admittance.py keeps the materialized form as a reference).
    Inputs, state and results are float tuples, and the arithmetic runs on
    Python floats, every vector operation written out as its left-to-right
    expression (see the numerics contract in admitsim.geometry). The inputs
    were validated by their constructors and are not coerced again.
    """
    if not 0.0 < dt <= MAX_DT:  # NaN fails the comparison too
        raise ValueError(f"dt must be in (0, {MAX_DT}] s, got {dt}")
    f0, f1, f2 = f_ext = _radial_deadband(force, cfg.force_deadband)
    (x0, x1, x2), (v0, v1, v2) = st
    c0, c1, c2 = cmd.x_cmd
    k = cfg.stiffness
    d = cfg.damping
    contact = cmd.c == 1
    if contact and cfg.enable_normal_regulation:
        # F_cmd = f*n with f = f_H + n.K(x_cmd - x_r) + n.D x_r'. K and D are
        # the base isotropic gains: the rank-1 tangent term is orthogonal to n
        # and cannot contribute to the n-projection.
        n0, n1, n2 = cmd.n
        f = (cfg.target_force + k * (n0 * (c0 - x0) + n1 * (c1 - x1) + n2 * (c2 - x2))
             + d * (n0 * v0 + n1 * v1 + n2 * v2))
        g0, g1, g2 = f_cmd = (f * n0, f * n1, f * n2)
    else:  # zero out of contact
        g0 = g1 = g2 = 0.0
        f_cmd = _ZERO3
    e0, e1, e2 = x0 - c0, x1 - c1, x2 - c2                    # x_r - x_cmd
    s0, s1, s2 = k * e0, k * e1, k * e2                       # spring
    b0, b1, b2 = d * v0, d * v1, d * v2                       # damping
    eigs = cfg._eigs
    if contact and cfg.enable_tangent_stiffening:
        # The tangent axis: the unit motion direction x_cmd - x_r projected
        # onto the plane orthogonal to n. The isotropic fallback holds when
        # the motion is no longer than EPS_POS or, after projection, parallel
        # to n within EPS_PROJ.
        u0, u1, u2 = c0 - x0, c1 - x1, c2 - x2
        dist = sqrt(u0 * u0 + u1 * u1 + u2 * u2)
        if dist > EPS_POS:
            n0, n1, n2 = cmd.n
            u0, u1, u2 = u0 / dist, u1 / dist, u2 / dist
            a = u0 * n0 + u1 * n1 + u2 * n2
            t0, t1, t2 = u0 - a * n0, u1 - a * n1, u2 - a * n2
            pn = sqrt(t0 * t0 + t1 * t1 + t2 * t2)
            if pn > EPS_PROJ:
                t0, t1, t2 = t0 / pn, t1 / pn, t2 / pn
                eigs = cfg._tangent_eigs
                ks = (eigs[2] - k) * (t0 * e0 + t1 * e1 + t2 * e2)
                ds = (cfg.tangent_damping - d) * (t0 * v0 + t1 * v1 + t2 * v2)
                s0, s1, s2 = s0 + ks * t0, s1 + ks * t1, s2 + ks * t2
                b0, b1, b2 = b0 + ds * t0, b1 + ds * t1, b2 + ds * t2
    a = dt / cfg.mass
    v0 = v0 + a * (f0 - g0 - b0 - s0)
    v1 = v1 + a * (f1 - g1 - b1 - s1)
    v2 = v2 + a * (f2 - g2 - b2 - s2)
    x0, x1, x2 = x0 + dt * v0, x1 + dt * v1, x2 + dt * v2
    # x - x is 0.0 for a finite x and NaN for inf or NaN. A non-finite
    # velocity makes its position non-finite too (dt > 0), so the position
    # alone tells whether the state left the finite range.
    if (x0 - x0) + (x1 - x1) + (x2 - x2) != 0.0:
        raise NonFiniteState("controller state diverged")
    return _new(TickResult, (_new(ControllerState, ((x0, x1, x2), (v0, v1, v2))),
                             f_ext, f_cmd, eigs))
