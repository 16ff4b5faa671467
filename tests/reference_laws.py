"""The per-tick laws composed from the geometry helpers, as references.

`controller_tick`, the three `external_wrench`s and `HingedDoor.update` write
their vector operations out on floats; the compositions below build the same
laws from `dot3`, `sq_norm`, `_sub`, `_perp`, `_cross` and `_unit` calls, in
the order of operations the outputs were pinned with. The tests hold the
flat code to them bit for bit, signed zeros included.
"""

from __future__ import annotations

import math

from admitsim.admittance import (
    EPS_POS,
    EPS_PROJ,
    MAX_DT,
    ControllerState,
    TickResult,
    _radial_deadband,
)
from admitsim.environments import (
    BOARD_FRICTION,
    BORE_AXIS,
    CHAMFER,
    CLEARANCE,
    DOOR_FRICTION,
    GRASP_TOL,
    HANDLE_LEVER,
    HANDLE_SPRING,
    HINGE_AXIS,
    HOLE_DEPTH,
    HOLE_FRICTION,
    HOLE_RADIUS,
    LATCH_THRESHOLD,
    OPENING_SIGN,
    RELEASE_ANGLE,
    WALL_STIFFNESS,
)
from admitsim.errors import NonFiniteState
from admitsim.geometry import _cross, _perp, _sub, _unit, dot3, sq_norm

_ZERO3 = (0.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# Controller
# --------------------------------------------------------------------------

def tangent_or_none(n, d):
    """Unit motion direction d = x_cmd - x_r projected onto the plane orthogonal
    to n; None when d is no longer than EPS_POS or, after projection, parallel
    to n within EPS_PROJ."""
    dist = math.sqrt(sq_norm(d))
    if dist <= EPS_POS:
        return None
    d0, d1, d2 = d
    v = (d0 / dist, d1 / dist, d2 / dist)
    proj = _perp(v, n)
    pn = math.sqrt(sq_norm(proj))
    if pn <= EPS_PROJ:
        return None
    p0, p1, p2 = proj
    return (p0 / pn, p1 / pn, p2 / pn)


def commanded_force(cmd, st, cfg):
    """F_cmd = f*n with f = f_H + n.K(x_cmd - x_r) + n.D x_r'; zero out of contact."""
    if cmd.c == 0 or not cfg.enable_normal_regulation:
        return _ZERO3
    n = cmd.n
    c0, c1, c2 = cmd.x_cmd
    x0, x1, x2 = st.x_r
    f = (cfg.target_force + cfg.stiffness * dot3(n, (c0 - x0, c1 - x1, c2 - x2))
         + cfg.damping * dot3(n, st.v_r))
    n0, n1, n2 = n
    return (f * n0, f * n1, f * n2)


def controller_tick(st, cmd, force, dt, cfg):
    """deadband -> commanded force -> tangent axis -> gains -> Euler step."""
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must be in (0, {MAX_DT}] s, got {dt}")
    f0, f1, f2 = f_ext = _radial_deadband(force, cfg.force_deadband)
    g0, g1, g2 = f_cmd = commanded_force(cmd, st, cfg)
    k = cfg.stiffness
    d = cfg.damping
    x0, x1, x2 = st.x_r
    v = st.v_r
    v0, v1, v2 = v
    c0, c1, c2 = cmd.x_cmd
    e = (x0 - c0, x1 - c1, x2 - c2)
    s0, s1, s2 = k * e[0], k * e[1], k * e[2]
    b0, b1, b2 = d * v0, d * v1, d * v2
    t_axis = None
    if cfg.enable_tangent_stiffening and cmd.c == 1:
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
    if not all(map(math.isfinite, (x0, x1, x2, v0, v1, v2))):
        raise NonFiniteState("controller state diverged")
    return TickResult(ControllerState((x0, x1, x2), (v0, v1, v2)), f_ext, f_cmd, eigs)


# --------------------------------------------------------------------------
# Environments
# --------------------------------------------------------------------------

def friction(model, vel, normal, f_n):
    """Tangential resistance opposing the velocity's component off the unit
    normal; slip_force holds the cut-off speed below which there is none."""
    v_t = _perp(vel, normal)
    return model.slip_force(v_t, math.sqrt(sq_norm(v_t)), f_n)


def board_wrench(board, pos, vel):
    nu = board.surface_normal
    pen = dot3(_sub(board.rest_point, pos), nu)
    if pen <= 0.0:
        return _ZERO3
    f_n = board.k_e * pen
    n0, n1, n2 = nu
    g0, g1, g2 = friction(BOARD_FRICTION, vel, nu, f_n)
    return (f_n * n0 + g0, f_n * n1 + g1, f_n * n2 + g2)


def hole_wrench(hole, pos, vel):
    rel = _sub(pos, hole.rim_center)
    axis_up = BORE_AXIS
    d_ax = -dot3(rel, axis_up)
    if d_ax <= 0.0:
        return _ZERO3
    r_perp = _perp(rel, axis_up)
    p0, p1, p2 = r_perp
    r = math.sqrt(sq_norm(r_perp))
    f0 = f1 = f2 = 0.0
    spring = None
    if r <= HOLE_RADIUS:
        if r > CLEARANCE:
            w = WALL_STIFFNESS * (r - CLEARANCE)
            f0, f1, f2 = f0 - w * (p0 / r), f1 - w * (p1 / r), f2 - w * (p2 / r)
        pen = d_ax - HOLE_DEPTH
        if pen > 0.0:
            spring = (hole.k_e * pen, axis_up)
    elif r <= HOLE_RADIUS + CHAMFER:
        d_surf = HOLE_RADIUS + CHAMFER - r
        h = math.sqrt(0.5)
        pen = (d_ax - d_surf) * h
        if pen > 0.0:
            u0, u1, u2 = axis_up
            cone_n = ((u0 - p0 / r) * h, (u1 - p1 / r) * h, (u2 - p2 / r) * h)
            spring = (hole.k_e * pen, cone_n)
    else:
        spring = (hole.k_e * d_ax, axis_up)
    if spring is not None:
        f_n, normal = spring
        n0, n1, n2 = normal
        f0, f1, f2 = f0 + f_n * n0, f1 + f_n * n1, f2 + f_n * n2
        g0, g1, g2 = friction(HOLE_FRICTION, vel, normal, f_n)
        f0, f1, f2 = f0 + g0, f1 + g1, f2 + g2
    return (f0, f1, f2)


def _radial(door, p):
    """The float point p - hinge_pivot off the hinge axis."""
    return _perp(_sub(p, door.hinge_pivot), HINGE_AXIS)


def _azimuth(door, p):
    rad = _radial(door, p)
    return math.atan2(dot3(rad, door._e2), dot3(rad, door._e1))


def _release(door, eef_pos):
    door.latch_released = True
    door.pull_radius = math.sqrt(sq_norm(_radial(door, eef_pos)))


def door_update(door, eef_pos, gripper):
    """HingedDoor.update on the door given."""
    if not door.engaged:
        if gripper > 0.5 and math.sqrt(sq_norm(_sub(eef_pos, door.grasp0))) < GRASP_TOL:
            door.engaged = True
            door._az_ref = _azimuth(door, eef_pos)
    elif gripper < 0.5:
        door.engaged = False
    if not door.engaged:
        return
    rel_az = _azimuth(door, eef_pos) - door._az_ref
    rel_az = (rel_az + math.pi) % (2.0 * math.pi) - math.pi
    door.door_angle = max(0.0, OPENING_SIGN * rel_az)
    if not door.microwave and not door.latch_released:
        handle_axis = door.handle_axis
        lever_perp = _perp(_sub(eef_pos, door.handle_pivot), handle_axis)
        ref = door._lever0_perp
        cosv = dot3(ref, lever_perp)
        sinv = dot3(handle_axis, _cross(ref, lever_perp))
        door.handle_angle = max(0.0, math.atan2(sinv, cosv))
    if not door.latch_released:
        if door.microwave:
            if door.door_angle > RELEASE_ANGLE:
                _release(door, eef_pos)
        elif door.handle_angle >= LATCH_THRESHOLD:
            _release(door, eef_pos)


def door_wrench(door, pos, vel):
    if not door.engaged:
        return _ZERO3
    if not door.microwave and not door.latch_released:
        center, axis, radius = door.handle_pivot, door.handle_axis, HANDLE_LEVER
    else:
        center, axis, radius = door.hinge_pivot, HINGE_AXIS, door.pull_radius
    rad = _perp(_sub(pos, center), axis)
    r = math.sqrt(sq_norm(rad))
    f0 = f1 = f2 = 0.0
    if r > 1e-9:
        rho = _unit(rad, r)
        f_con = -door.k_e * (r - radius)
        f0, f1, f2 = f0 + f_con * rho[0], f1 + f_con * rho[1], f2 + f_con * rho[2]
        t_hat = _cross(axis, rho)
        s = dot3(vel, t_hat)
        v_arc = (s * t_hat[0], s * t_hat[1], s * t_hat[2])
        g0, g1, g2 = DOOR_FRICTION.slip_force(v_arc, math.sqrt(sq_norm(v_arc)), f_con)
        f0, f1, f2 = f0 + g0, f1 + g1, f2 + g2
    if door.engaged and not door.latch_released and door.door_angle > 0.0:
        hinge_rad = _radial(door, pos)
        h = math.sqrt(sq_norm(hinge_rad))
        if h > 1e-9:
            a = -door.latch_force
            sign = OPENING_SIGN
            t0, t1, t2 = _cross(HINGE_AXIS, _unit(hinge_rad, h))
            f0, f1, f2 = f0 + a * (sign * t0), f1 + a * (sign * t1), f2 + a * (sign * t2)
    if not door.latch_released and door.handle_angle > 0.0 and r > 1e-9:
        k = HANDLE_SPRING * door.handle_angle
        f0, f1, f2 = f0 - k * t_hat[0], f1 - k * t_hat[1], f2 - k * t_hat[2]
    return (f0, f1, f2)
