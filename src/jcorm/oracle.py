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
from .model import SlotContext, SlotDecision

_TIME_SLACK = 1e-9      # matches model.check_feasible
_BITS_SLACK = 1e-3


@dataclass
class GridSpec:
    """Axis definitions for the grid searches: (lower, upper) per variable
    plus point counts."""

    power: tuple = (0.0, 1.0)            # W
    compute: tuple = (0.0, 1.0e10)       # Hz
    start: tuple = (0.0, 10.0)           # s
    ratio: tuple = (0.0, 1.0)
    power_points: int = 20
    compute_points: int = 20
    start_points: int = 20
    ratio_points: int = 20

    def validate(self) -> None:
        for name in ("power", "compute", "start", "ratio"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"grid bounds for {name} are not ordered")
            if getattr(self, name + "_points") < 2:
                raise ValueError(f"grid needs >= 2 points on axis {name}")

    def axis(self, name: str) -> np.ndarray:
        lo, hi = getattr(self, name)
        return np.linspace(lo, hi, getattr(self, name + "_points"))

    @classmethod
    def for_context(cls, ctx: SlotContext, points: int = 20) -> "GridSpec":
        return cls(power=(0.0, ctx.pmax_w), compute=(0.0, ctx.leo_cpu_hz),
                   start=(0.0, ctx.slot_seconds), ratio=(0.0, 1.0),
                   power_points=points, compute_points=points,
                   start_points=points, ratio_points=points)


@dataclass
class GridResult:
    """Outcome of a per-UAV 1-D search: best grid value and its objective,
    or an explicit empty-feasible marker."""

    feasible: np.ndarray     # per UAV
    best: np.ndarray         # per UAV, NaN where infeasible
    best_obj: np.ndarray     # per UAV, NaN where infeasible


def _branch_times(ctx, u, p, f, g):
    """Completion times of both branches for UAV u, broadcast over grids."""
    sum_d = float(ctx.sum_d[u])
    l_off = float(ctx.l_off[u])
    local = l_off + ctx.cycles_per_bit * (1.0 - g) * sum_d / ctx.uav_cpu_hz
    rate = (ctx.leo_bandwidth_hz / ctx.num_uavs) * np.log2(
        1.0 + p * float(ctx.sat_gain[u]) / ctx.noise_w)
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
    rate = (ctx.leo_bandwidth_hz / ctx.num_uavs) * np.log2(
        1.0 + p * float(ctx.sat_gain[u]) / ctx.noise_w)
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
    storage_ok = collected <= float(ctx.storage_free[u]) + _BITS_SLACK
    window = np.clip(ctx.slot_seconds - dt, 0.0, None)
    available = collected + (ctx.storage_capacity - float(ctx.storage_free[u]))
    backlog_ok = float(ctx.r_tol_leo[u]) * window <= available + _BITS_SLACK
    return storage_ok & backlog_ok


def grid_sp1(ctx: SlotContext, fixed: SlotDecision, num_points: int = 10001) -> GridResult:
    """1-D power search per UAV minimizing transmit energy (omega-weighted)
    subject to the satellite-branch deadline and the power box."""
    n = ctx.num_uavs
    p_axis = np.linspace(0.0, ctx.pmax_w, num_points)
    feasible = np.zeros(n, dtype=bool)
    best = np.full(n, np.nan)
    best_obj = np.full(n, np.nan)
    for u in range(n):
        g = float(fixed.gamma[u])
        offload = g * float(ctx.sum_d[u])
        if offload <= 0.0:
            feasible[u] = True
            best[u] = 0.0
            best_obj[u] = 0.0
            continue
        _, sat = _branch_times(ctx, u, p_axis, float(fixed.f_leo[u]), g)
        ok = sat <= float(fixed.delta_tol[u]) + _TIME_SLACK
        if not np.any(ok):
            continue
        rate = (ctx.leo_bandwidth_hz / n) * np.log2(
            1.0 + p_axis * float(ctx.sat_gain[u]) / ctx.noise_w)
        with np.errstate(divide="ignore", invalid="ignore"):
            obj = np.where(rate > 0.0,
                           ctx.omega * offload * p_axis / np.where(rate > 0.0, rate, 1.0),
                           np.inf)
        obj = np.where(ok, obj, np.inf)
        idx = int(np.argmin(obj))
        feasible[u] = True
        best[u] = p_axis[idx]
        best_obj[u] = float(obj[idx])
    return GridResult(feasible, best, best_obj)


def grid_sp2(ctx: SlotContext, fixed: SlotDecision, num_points: int = 10001) -> GridResult:
    """1-D compute-share search per UAV minimizing remote compute energy
    (omega-weighted) subject to the satellite-branch deadline and the
    per-UAV share cap (the pool budget is a joint constraint, checked by
    grid_joint)."""
    n = ctx.num_uavs
    f_axis = np.linspace(0.0, ctx.leo_cpu_hz, num_points)
    feasible = np.zeros(n, dtype=bool)
    best = np.full(n, np.nan)
    best_obj = np.full(n, np.nan)
    for u in range(n):
        g = float(fixed.gamma[u])
        offload = g * float(ctx.sum_d[u])
        if offload <= 0.0:
            feasible[u] = True
            best[u] = 0.0
            best_obj[u] = 0.0
            continue
        _, sat = _branch_times(ctx, u, float(fixed.power[u]), f_axis, g)
        ok = sat <= float(fixed.delta_tol[u]) + _TIME_SLACK
        if not np.any(ok):
            continue
        obj = ctx.omega * ctx.cycles_per_bit * ctx.switch_cap * offload * f_axis ** 2
        obj = np.where(ok, obj, np.inf)
        idx = int(np.argmin(obj))
        feasible[u] = True
        best[u] = f_axis[idx]
        best_obj[u] = float(obj[idx])
    return GridResult(feasible, best, best_obj)


def grid_sp3(ctx: SlotContext, fixed: SlotDecision, num_points: int = 10001) -> GridResult:
    """1-D forwarding-start search per UAV maximizing the UAV's objective
    term subject to both completion branches, storage, and backlog."""
    n = ctx.num_uavs
    dt_axis = np.linspace(0.0, ctx.slot_seconds, num_points)
    feasible = np.zeros(n, dtype=bool)
    best = np.full(n, np.nan)
    best_obj = np.full(n, np.nan)
    for u in range(n):
        local, sat = _branch_times(ctx, u, float(fixed.power[u]),
                                   float(fixed.f_leo[u]), float(fixed.gamma[u]))
        ok = (dt_axis >= max(local, sat) - _TIME_SLACK) & _storage_masks(ctx, u, dt_axis)
        if not np.any(ok):
            continue
        obj = _uav_objective(ctx, u, float(fixed.power[u]), float(fixed.f_leo[u]),
                             dt_axis, float(fixed.gamma[u]))
        obj = np.where(ok, obj, -np.inf)
        idx = int(np.argmax(obj))
        feasible[u] = True
        best[u] = dt_axis[idx]
        best_obj[u] = float(obj[idx])
    return GridResult(feasible, best, best_obj)


def grid_sp4(ctx: SlotContext, fixed: SlotDecision, num_points: int = 10001) -> GridResult:
    """1-D offload-ratio search per UAV maximizing the UAV's objective term
    subject to both completion branches."""
    n = ctx.num_uavs
    g_axis = np.linspace(0.0, 1.0, num_points)
    feasible = np.zeros(n, dtype=bool)
    best = np.full(n, np.nan)
    best_obj = np.full(n, np.nan)
    for u in range(n):
        local, sat = _branch_times(ctx, u, float(fixed.power[u]),
                                   float(fixed.f_leo[u]), g_axis)
        dt = float(fixed.delta_tol[u])
        ok = (np.maximum(local, sat) <= dt + _TIME_SLACK)
        if not np.any(ok):
            continue
        obj = _uav_objective(ctx, u, float(fixed.power[u]), float(fixed.f_leo[u]),
                             dt, g_axis)
        obj = np.where(ok, obj, -np.inf)
        idx = int(np.argmax(obj))
        feasible[u] = True
        best[u] = g_axis[idx]
        best_obj[u] = float(obj[idx])
    return GridResult(feasible, best, best_obj)


@dataclass
class JointResult:
    feasible: bool
    decision: SlotDecision | None
    best_obj_mbit: float        # NaN when infeasible


def grid_joint(ctx: SlotContext, grid: GridSpec) -> JointResult:
    """Exhaustive feasible-point maximization of the slot objective on the
    4-D grid, for one or two UAVs.

    Everything except the compute-pool budget separates per UAV, so each
    UAV's best (power, start, ratio) is tabulated for every compute value,
    and the compute pair is then chosen under the pool constraint. This is
    exact for the grid and keeps the evaluation count at
    points^4 * U + points^U.
    """
    grid.validate()
    n = ctx.num_uavs
    if n > 2:
        raise ValueError("joint grid oracle is limited to 2 UAVs")
    if max(grid.power_points, grid.compute_points,
           grid.start_points, grid.ratio_points) > 25:
        raise ValueError("joint grid oracle is limited to 25 points per axis")
    p_ax = grid.axis("power")
    f_ax = grid.axis("compute")
    d_ax = grid.axis("start")
    g_ax = grid.axis("ratio")
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
        ok = (np.maximum(local, sat) <= d4 + _TIME_SLACK) & _storage_masks(ctx, u, d4)
        obj = _uav_objective(ctx, u, p4, f4, d4, g4)
        obj = np.where(ok, obj, -np.inf)
        flat = obj.transpose(1, 0, 2, 3).reshape(len(f_ax), -1)  # (F, P*D*G)
        argmax_idx.append(np.argmax(flat, axis=1))
        best_over_f.append(flat[np.arange(len(f_ax)), argmax_idx[-1]])

    if n == 1:
        total = best_over_f[0]
        fi = int(np.argmax(total))
        if not np.isfinite(total[fi]):
            return JointResult(False, None, float("nan"))
        f_pick = (fi,)
    else:
        pair = best_over_f[0][:, None] + best_over_f[1][None, :]
        pool_ok = (f_ax[:, None] + f_ax[None, :]) <= ctx.leo_cpu_hz * (1 + 1e-9) + 1e-6
        pair = np.where(pool_ok, pair, -np.inf)
        flat_idx = int(np.argmax(pair))
        if not np.isfinite(pair.reshape(-1)[flat_idx]):
            return JointResult(False, None, float("nan"))
        f_pick = np.unravel_index(flat_idx, pair.shape)

    power = np.zeros(n)
    f_leo = np.zeros(n)
    dt = np.zeros(n)
    gm = np.zeros(n)
    shape_pdg = (len(p_ax), len(d_ax), len(g_ax))
    for u in range(n):
        fi = int(f_pick[u])
        pi, di, gi = np.unravel_index(int(argmax_idx[u][fi]), shape_pdg)
        power[u] = p_ax[pi]
        f_leo[u] = f_ax[fi]
        dt[u] = d_ax[di]
        gm[u] = g_ax[gi]
    decision = SlotDecision(power, f_leo, dt, gm)
    report = model.check_feasible(ctx, decision)
    if not report.ok:
        raise RuntimeError(f"oracle selected an infeasible cell: {report.violations}")
    return JointResult(True, decision, model.slot_objective_mbit(ctx, decision))
