"""Brute-force grid references for the per-slot optimizers.

These searchers share nothing with the solver module except the model
evaluators: every feasibility mask and objective value is recomputed from
the physical formulas, so an agreement between solver and oracle is a real
cross-check and not a tautology.

All oracles enforce the strict constraint set (both completion branches
within the forwarding start time, storage, backlog, boxes). Ties are broken
by the lowest grid index (C order), making every result independent of
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .model import BITS_SLACK, TIME_SLACK, SlotContext, SlotDecision

FINE_POINTS = 10001     # points on each per-coordinate grid


def grid_axes(ctx: SlotContext, points: int) -> tuple:
    """The (power, compute, start, ratio) axes, each `points` values from 0
    to its box bound."""
    return (np.linspace(0.0, ctx.pmax_w, points),
            np.linspace(0.0, ctx.leo_cpu_hz, points),
            np.linspace(0.0, ctx.slot_seconds, points),
            np.linspace(0.0, 1.0, points))


@dataclass
class GridResult:
    """Outcome of a per-UAV 1-D search: best grid value and its objective,
    or an explicit empty-feasible marker."""

    feasible: np.ndarray     # per UAV
    best: np.ndarray         # per UAV, NaN where infeasible
    best_obj: np.ndarray     # per UAV, NaN where infeasible


def _search(ctx, axis, score, maximize) -> GridResult:
    """Best feasible point of `axis` for each UAV, ties to the lowest index.

    `score(u)` gives UAV u's (feasible mask, objective) over the axis, or
    None when u offloads nothing and is feasible at (0, 0)."""
    n = ctx.num_uavs
    res = GridResult(np.zeros(n, dtype=bool), np.full(n, np.nan), np.full(n, np.nan))
    fill, pick = (-np.inf, np.argmax) if maximize else (np.inf, np.argmin)
    for u in range(n):
        scored = score(u)
        if scored is None:
            res.feasible[u] = True
            res.best[u] = 0.0
            res.best_obj[u] = 0.0
            continue
        ok, obj = scored
        if not np.any(ok):
            continue
        obj = np.where(ok, obj, fill)
        idx = int(pick(obj))
        res.feasible[u] = True
        res.best[u] = axis[idx]
        res.best_obj[u] = float(obj[idx])
    return res


def _rate(ctx, u, p):
    """DS-uplink rate of UAV u at power p on its equal share of the band."""
    return (ctx.leo_bandwidth_hz / ctx.num_uavs) * np.log2(
        1.0 + p * float(ctx.sat_gain[u]) / ctx.noise_w)


def _branch_times(ctx, u, p, f, g):
    """Completion times of both branches for UAV u, broadcast over grids."""
    sum_d = float(ctx.sum_d[u])
    l_off = float(ctx.l_off[u])
    local = l_off + ctx.cycles_per_bit * (1.0 - g) * sum_d / ctx.uav_cpu_hz
    rate = _rate(ctx, u, p)
    offload = g * sum_d
    with np.errstate(divide="ignore", invalid="ignore"):
        t_tx = np.where(offload > 0.0,
                        np.where(rate > 0.0, offload / np.where(rate > 0.0, rate, 1.0),
                                 np.inf), 0.0)
        t_cmp = np.where(offload > 0.0,
                         np.where(f > 0.0,
                                  ctx.cycles_per_bit * offload / np.where(f > 0.0, f, 1.0),
                                  np.inf), 0.0)
    prop = np.where(offload > 0.0, 2.0 * ctx.l_prop, 0.0)
    sat = l_off + t_tx + t_cmp + prop
    return local, sat


def _uav_objective(ctx, u, p, f, dt, g):
    """Per-UAV objective term for UAV u, broadcast over grids."""
    sum_d = float(ctx.sum_d[u])
    rate = _rate(ctx, u, p)
    offload = g * sum_d
    with np.errstate(divide="ignore", invalid="ignore"):
        l_comm = np.where(offload > 0.0,
                          offload / np.where(rate > 0.0, rate, np.inf), 0.0)
    window = np.clip(ctx.slot_seconds - dt, 0.0, None)
    e_comm = p * l_comm + ctx.dt_uplink_power_w * window
    base = ctx.cycles_per_bit * ctx.switch_cap * sum_d
    e_uav = base * (1.0 - g) * ctx.uav_cpu_hz ** 2
    e_leo = base * g * f ** 2
    return float(ctx.r_tol_leo[u]) * window - ctx.omega * (e_comm + e_uav + e_leo)


def _storage_masks(ctx, u, dt):
    collected = float(ctx.dt_dev_rate_sum[u]) * dt
    storage_ok = collected <= float(ctx.storage_free[u]) + BITS_SLACK
    window = np.clip(ctx.slot_seconds - dt, 0.0, None)
    available = collected + (ctx.storage_capacity - float(ctx.storage_free[u]))
    backlog_ok = float(ctx.r_tol_leo[u]) * window <= available + BITS_SLACK
    return storage_ok & backlog_ok


def grid_sp1(ctx: SlotContext, fixed: SlotDecision) -> GridResult:
    """1-D power search per UAV minimizing transmit energy (omega-weighted)
    subject to the satellite-branch deadline and the power box."""
    p_axis = grid_axes(ctx, FINE_POINTS)[0]

    def score(u):
        g = float(fixed.gamma[u])
        offload = g * float(ctx.sum_d[u])
        if offload <= 0.0:
            return None
        _, sat = _branch_times(ctx, u, p_axis, float(fixed.f_leo[u]), g)
        rate = _rate(ctx, u, p_axis)
        with np.errstate(divide="ignore", invalid="ignore"):
            obj = np.where(rate > 0.0,
                           ctx.omega * offload * p_axis / np.where(rate > 0.0, rate, 1.0),
                           np.inf)
        return sat <= float(fixed.delta_tol[u]) + TIME_SLACK, obj

    return _search(ctx, p_axis, score, maximize=False)


def grid_sp2(ctx: SlotContext, fixed: SlotDecision) -> GridResult:
    """1-D compute-share search per UAV minimizing remote compute energy
    (omega-weighted) subject to the satellite-branch deadline and the
    per-UAV share cap (the pool budget is a joint constraint, checked by
    grid_joint)."""
    f_axis = grid_axes(ctx, FINE_POINTS)[1]

    def score(u):
        g = float(fixed.gamma[u])
        offload = g * float(ctx.sum_d[u])
        if offload <= 0.0:
            return None
        _, sat = _branch_times(ctx, u, float(fixed.power[u]), f_axis, g)
        obj = ctx.omega * ctx.cycles_per_bit * ctx.switch_cap * offload * f_axis ** 2
        return sat <= float(fixed.delta_tol[u]) + TIME_SLACK, obj

    return _search(ctx, f_axis, score, maximize=False)


def grid_sp3(ctx: SlotContext, fixed: SlotDecision) -> GridResult:
    """1-D forwarding-start search per UAV maximizing the UAV's objective
    term subject to both completion branches, storage, and backlog."""
    dt_axis = grid_axes(ctx, FINE_POINTS)[2]

    def score(u):
        p, f, g = float(fixed.power[u]), float(fixed.f_leo[u]), float(fixed.gamma[u])
        local, sat = _branch_times(ctx, u, p, f, g)
        ok = (dt_axis >= max(local, sat) - TIME_SLACK) & _storage_masks(ctx, u, dt_axis)
        return ok, _uav_objective(ctx, u, p, f, dt_axis, g)

    return _search(ctx, dt_axis, score, maximize=True)


def grid_sp4(ctx: SlotContext, fixed: SlotDecision) -> GridResult:
    """1-D offload-ratio search per UAV maximizing the UAV's objective term
    subject to both completion branches."""
    g_axis = grid_axes(ctx, FINE_POINTS)[3]

    def score(u):
        p, f, dt = float(fixed.power[u]), float(fixed.f_leo[u]), float(fixed.delta_tol[u])
        local, sat = _branch_times(ctx, u, p, f, g_axis)
        ok = np.maximum(local, sat) <= dt + TIME_SLACK
        return ok, _uav_objective(ctx, u, p, f, dt, g_axis)

    return _search(ctx, g_axis, score, maximize=True)


@dataclass
class JointResult:
    feasible: bool
    decision: SlotDecision | None
    best_obj_mbit: float        # NaN when infeasible


def grid_joint(ctx: SlotContext, points: int) -> JointResult:
    """Exhaustive feasible-point maximization of the slot objective on the
    4-D grid of `grid_axes(ctx, points)`, for one or two UAVs.

    Everything except the compute-pool budget separates per UAV, so each
    UAV's best (power, start, ratio) is tabulated for every compute value,
    and the compute pair is then chosen under the pool constraint. This is
    exact for the grid and keeps the evaluation count at
    points^4 * U + points^U.
    """
    n = ctx.num_uavs
    if points < 2:
        raise ValueError("joint grid oracle needs >= 2 points per axis")
    if n > 2:
        raise ValueError("joint grid oracle is limited to 2 UAVs")
    if points > 25:
        raise ValueError("joint grid oracle is limited to 25 points per axis")
    p_ax, f_ax, d_ax, g_ax = grid_axes(ctx, points)
    # broadcast axes: (P, F, D, G)
    p4 = p_ax[:, None, None, None]
    f4 = f_ax[None, :, None, None]
    d4 = d_ax[None, None, :, None]
    g4 = g_ax[None, None, None, :]

    # per UAV: best objective over (p, d, g) for each compute value,
    # and the argmax indices to reconstruct the decision
    best_over_f = []     # (F,) objective per UAV
    argmax_idx = []      # (F,) flat index into (P, D, G) per UAV
    for u in range(n):
        local, sat = _branch_times(ctx, u, p4, f4, g4)
        ok = (np.maximum(local, sat) <= d4 + TIME_SLACK) & _storage_masks(ctx, u, d4)
        obj = _uav_objective(ctx, u, p4, f4, d4, g4)
        obj = np.where(ok, obj, -np.inf)
        flat = obj.transpose(1, 0, 2, 3).reshape(points, -1)  # (F, P*D*G)
        argmax_idx.append(np.argmax(flat, axis=1))
        best_over_f.append(flat[np.arange(points), argmax_idx[-1]])

    # the summed best objectives of every compute combination, (F,) per
    # UAV, where the combination fits the pool
    total, pool = best_over_f[0], f_ax
    for best in best_over_f[1:]:
        total = total[..., None] + best
        pool = pool[..., None] + f_ax
    total = np.where(pool <= ctx.leo_cpu_hz * (1 + 1e-9) + 1e-6, total, -np.inf)
    flat_idx = int(np.argmax(total))
    if not np.isfinite(total.reshape(-1)[flat_idx]):
        return JointResult(False, None, float("nan"))
    f_idx = np.array(np.unravel_index(flat_idx, total.shape))
    pdg = np.array([argmax_idx[u][f_idx[u]] for u in range(n)])
    p_idx, d_idx, g_idx = np.unravel_index(pdg, (points, points, points))
    decision = SlotDecision(p_ax[p_idx], f_ax[f_idx], d_ax[d_idx], g_ax[g_idx])
    report = model.check_feasible(ctx, decision)
    if not report.ok:
        raise RuntimeError(f"oracle selected an infeasible cell: {report.violations}")
    return JointResult(True, decision, model.slot_objective_mbit(ctx, decision))
