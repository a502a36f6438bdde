"""Per-slot joint optimizer (power, compute share, forwarding start, offload
ratio) and the horizon runner.

The slot problem decomposes into four blocks solved in rotation until the
slot objective settles:

  1. DS uplink power -- the lowest power meeting the deadline, in closed
     form (energy per delivered bit rises with power),
  2. satellite compute share -- closed form at the deadline-tight minimum,
  3. DT forwarding start time -- linear program over an interval,
  4. offload ratio -- linear program over an interval.

Each block only ever replaces a UAV's value when doing so does not lower
that UAV's objective contribution (unless the incumbent has become
infeasible and must be repaired), so the per-pass objective trace is
non-decreasing up to float noise. The half-slot baseline (ATSM) runs the
same rotation with the forwarding start pinned.

The power block works in Mbit-normalized units (data / 1e6, band / 1e6);
the required rate is invariant to that scaling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import model
from .config import ScenarioConfig
from .model import SlotContext, SlotDecision

_NOISE = 1e-9          # accepted objective decrease attributable to float noise


# ---------------------------------------------------------------------------
# SP1: DS uplink power
# ---------------------------------------------------------------------------

@dataclass
class PowerSolveInfo:
    """Per-UAV outcome of the power subproblem."""

    infeasible: np.ndarray    # bool: no power can satisfy the deadline


def solve_sp1_power(ctx: SlotContext, f_leo: np.ndarray, delta_tol: np.ndarray,
                    gamma: np.ndarray):
    """Lowest transmit power that meets the satellite-branch deadline, within
    the power box.

    Energy per delivered bit, p / log2(1 + p g / N0), rises with p, so the
    fractional energy-per-rate program ends at the lowest power whose rate
    pushes the offloaded bits through the deadline slack:
    p_req = (2^(gamma D / (slack B/U)) - 1) N0 / g, clipped to pmax.

    Returns (power array, PowerSolveInfo). UAVs with nothing to offload get
    zero power. UAVs with no compute share, no slack left, or p_req above
    pmax are flagged and get zero power.
    """
    gamma = np.asarray(gamma, dtype=float)
    d_mbit = ctx.sum_d / 1e6
    live = (gamma > 0.0) & (d_mbit > 0.0)
    # no compute share makes the remote compute time, and so -slack, infinite
    slack = (delta_tol - ctx.l_off - model.remote_compute_time(ctx, f_leo, gamma)
             - 2.0 * ctx.l_prop)
    has_slack = slack > 0.0
    b_n = ctx.leo_bandwidth_hz / 1e6 / ctx.num_uavs   # per-UAV band share, MHz
    exponent = gamma * d_mbit / (np.where(has_slack, slack, 1.0) * b_n)
    # float_power rounds like the scalar libm pow (np.power's SIMD kernel can
    # differ in the last bit). A tiny band share overflows to inf, which the
    # pmax test below flags.
    with np.errstate(over="ignore"):
        p_req = (np.float_power(2.0, exponent) - 1.0) / (ctx.sat_gain / ctx.noise_w)
    infeasible = live & (~has_slack | (p_req > ctx.pmax_w * (1.0 + 1e-9)))
    power = np.where(live & ~infeasible, np.minimum(p_req, ctx.pmax_w), 0.0)
    return power, PowerSolveInfo(infeasible)


# ---------------------------------------------------------------------------
# SP2: satellite compute share
# ---------------------------------------------------------------------------

def solve_sp2_compute(ctx: SlotContext, power: np.ndarray, delta_tol: np.ndarray,
                      gamma: np.ndarray):
    """Smallest compute share finishing the offloaded bits inside the deadline
    (remote compute energy grows with the share, so the minimum is optimal).

    Returns (f array, per-UAV infeasible mask, budget_scaled flag). Shares
    are clamped to the pool size; if the shares jointly exceed the pool they
    are scaled down proportionally and flagged (the next ratio pass shrinks
    the offload loads to match).
    """
    gamma = np.asarray(gamma, dtype=float)
    active = (gamma > 0.0) & (ctx.sum_d > 0.0)
    slack = delta_tol - ctx.l_off - model.transmit_time(ctx, power, gamma) - 2.0 * ctx.l_prop
    bad = active & ((slack <= 0.0) | ~np.isfinite(slack))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_min = np.where(active & ~bad, ctx.cycles_per_bit * gamma * ctx.sum_d / slack, 0.0)
    # where f_min exceeds the pool, even the whole pool misses the deadline
    infeasible = bad | (f_min > ctx.leo_cpu_hz)
    # best effort where the deadline is missed; the ratio pass must shrink gamma
    f_out = np.where(bad, ctx.leo_cpu_hz, np.minimum(f_min, ctx.leo_cpu_hz))
    budget_scaled = False
    total = float(np.sum(f_out))
    if total > ctx.leo_cpu_hz * (1.0 + 1e-12):
        f_out *= ctx.leo_cpu_hz / total
        budget_scaled = True
    return f_out, infeasible, budget_scaled


# ---------------------------------------------------------------------------
# SP3: DT forwarding start time
# ---------------------------------------------------------------------------

def sp3_bounds(ctx: SlotContext, power: np.ndarray, f_leo: np.ndarray,
               gamma: np.ndarray, mode: str = "paper-relaxed"):
    """Feasible interval [lo, hi] for the DT forwarding start time.

    mode='strict' takes the true two-branch completion bound as the lower
    end; mode='paper-relaxed' takes the branch-average bound, which lets the
    alternation walk the start time down (final iterates still satisfy the
    true bound because the ratio pass re-tightens it). The average is only
    meaningful while both branches are live: UAVs currently offloading
    nothing keep the exact on-board bound, since their satellite constraint
    is vacuous and averaging against it would undercut the real deadline.
    At gamma = 0 both modes therefore give the on-board bound.
    """
    if mode == "strict":
        lo_deadline = model.completion_time(ctx, power, f_leo, gamma)
    else:
        local, sat = model.deadline_lower_bounds(ctx, power, f_leo, gamma)
        gamma = np.asarray(gamma, dtype=float)
        offloading = (gamma > 0.0) & (ctx.sum_d > 0.0)
        sat_ct = np.where(offloading, sat - ctx.l_off - 2.0 * ctx.l_prop, 0.0)
        relaxed = ctx.l_off + ctx.l_prop + 0.5 * ((local - ctx.l_off) + sat_ct)
        lo_deadline = np.where(offloading, relaxed, local)

    used = ctx.storage_capacity - ctx.storage_free
    denom = ctx.r_tol_leo + ctx.dt_dev_rate_sum
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        backlog_lo = np.where(denom > 0.0,
                              (ctx.r_tol_leo * ctx.slot_seconds - used) / np.maximum(denom, 1e-300),
                              -np.inf)
        storage_hi = np.where(ctx.dt_dev_rate_sum > 0.0,
                              ctx.storage_free / np.maximum(ctx.dt_dev_rate_sum, 1e-300),
                              np.inf)
    lo = np.maximum(np.maximum(0.0, backlog_lo), lo_deadline)
    hi = np.minimum(ctx.slot_seconds, storage_hi)
    return lo, hi


def solve_sp3_start_time(ctx: SlotContext, power: np.ndarray, f_leo: np.ndarray,
                         gamma: np.ndarray, mode: str = "paper-relaxed"):
    """Choose when DT forwarding starts. The objective is linear in the start
    time, so the optimum sits on an interval end:

      * collecting longer only pays when the energy price of forwarding
        exceeds the forwarding rate (then start as late as storage allows),
      * otherwise start as early as the DS deadline and the backlog bound
        admit.

    Returns (delta_tol array, empty-interval mask)."""
    lo, hi = sp3_bounds(ctx, power, f_leo, gamma, mode=mode)
    return _start_in(ctx, lo, hi)


def _start_in(ctx: SlotContext, lo: np.ndarray, hi: np.ndarray):
    """The better end of the start-time interval [lo, hi] (see
    solve_sp3_start_time); an empty interval gets the slot end."""
    empty = lo > hi + 1e-12
    gain_from_waiting = ctx.omega * ctx.dt_uplink_power_w - ctx.r_tol_leo
    delta = np.where(gain_from_waiting >= 0.0, hi, lo)
    delta = np.clip(delta, 0.0, ctx.slot_seconds)
    delta = np.where(empty, ctx.slot_seconds, delta)
    return delta, empty


# ---------------------------------------------------------------------------
# SP4: offload ratio
# ---------------------------------------------------------------------------

def solve_sp4_ratio(ctx: SlotContext, power: np.ndarray, f_leo: np.ndarray,
                    delta_tol: np.ndarray):
    """Choose the offloaded fraction. Linear objective over the interval the
    two deadline branches leave open; the sign of the per-bit saving
    (on-board compute energy versus remote compute + transmit energy)
    selects the end. Returns (gamma array, empty-interval mask)."""
    power = np.asarray(power, dtype=float)
    f_leo = np.asarray(f_leo, dtype=float)
    active = ctx.sum_d > 0.0
    rate = ctx.ds_rate(power)
    usable = active & (rate > 0.0) & (f_leo > 0.0)
    load_cycles_time = ctx.cycles_per_bit * ctx.sum_d / ctx.uav_cpu_hz
    with np.errstate(divide="ignore", invalid="ignore"):
        g_min = 1.0 + np.where(active, (ctx.l_off - delta_tol) / np.maximum(load_cycles_time, 1e-300), 0.0)
        g_min = np.clip(g_min, 0.0, 1.0)
        # the slack over the time to offload the whole load
        g_max = np.where(usable, (delta_tol - 2.0 * ctx.l_prop - ctx.l_off)
                         / ((1.0 / rate + ctx.cycles_per_bit / f_leo) * ctx.sum_d), g_min)
    g_max = np.clip(g_max, 0.0, 1.0)

    # a stream without a usable link cannot carry offload: a lower bound at
    # rounding noise means the deadline does not require one (snap the point
    # to zero); a genuinely positive lower bound leaves no feasible ratio
    unusable = active & ~usable
    noise = unusable & (g_min <= 1e-9)
    g_min = np.where(noise, 0.0, g_min)
    g_max = np.where(noise, 0.0, g_max)
    empty = active & ((g_min > g_max + 1e-12) | (unusable & ~noise))
    # per-bit objective slope: on-board compute energy saved minus remote
    # compute and transmit energy spent
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(usable & ~empty,
                         ctx.cycles_per_bit * ctx.switch_cap * (ctx.uav_cpu_hz ** 2 - f_leo ** 2)
                         - power / rate, 0.0)
    choice = np.where(slope > 0.0, g_max, g_min)
    gamma = np.where(active, np.where(empty, g_min, choice), 0.0)
    gamma = np.clip(gamma, 0.0, 1.0)
    return gamma, empty


# ---------------------------------------------------------------------------
# the alternating slot solver
# ---------------------------------------------------------------------------

@dataclass
class SlotSolveTrace:
    objective_mbit: list = field(default_factory=list)   # per pass, normalized
    iterations: int = 0
    converged: bool = False
    monotone_ok: bool = True
    fallback: bool = False
    sp1_infeasible: int = 0
    sp2_infeasible: int = 0
    sp3_empty: int = 0
    sp4_empty: int = 0
    budget_scaled: int = 0
    sp_seconds: dict = field(default_factory=lambda: {"sp1": 0.0, "sp2": 0.0,
                                                      "sp3": 0.0, "sp4": 0.0})


def _guarded(terms, incumbent_feasible, cand_terms, incumbent, candidate):
    """Per-UAV accept rule: keep the incumbent only where it is feasible and
    strictly better than the candidate. Returns the merged values and their
    objective terms."""
    keep = incumbent_feasible & (terms > cand_terms)
    return np.where(keep, incumbent, candidate), np.where(keep, terms, cand_terms)


def solve_slot_rotation(ctx: SlotContext, cfg: ScenarioConfig,
                        pinned_start: float | None = None):
    """Block rotation (power, compute share, forwarding start, offload ratio)
    until the slot objective settles. With ``pinned_start`` every UAV starts
    forwarding at that time and the start-time block is skipped.

    ``terms`` holds the per-UAV objective terms of the incumbent decision.
    Each block evaluates only its candidate and merges the two with the
    guard's mask; that is exact because the terms are elementwise per UAV.
    A decision that fails check_feasible is replaced by fallback_decision,
    keeping the pinned start if there is one. Returns (SlotDecision,
    SlotSolveTrace)."""
    tol = cfg.tol
    mode = cfg.solver_mode
    n = ctx.num_uavs
    p = np.full(n, ctx.pmax_w / 2.0)
    f = np.full(n, ctx.leo_cpu_hz / n)
    dt = np.full(n, ctx.slot_seconds / 2.0 if pinned_start is None else pinned_start)
    gm = np.full(n, 0.5)
    gm[ctx.sum_d <= 0.0] = 0.0
    terms = model.objective_terms(ctx, SlotDecision(p, f, dt, gm))

    trace = SlotSolveTrace()
    prev_obj = None
    for i in range(1, tol.i_max + 1):
        trace.iterations = i

        t0 = time.perf_counter()
        p_cand, p_info = solve_sp1_power(ctx, f, dt, gm)
        trace.sp1_infeasible += int(np.sum(p_info.infeasible))
        inc_ok = (model.completion_time(ctx, p, f, gm) <= dt + 1e-9) & (p <= ctx.pmax_w + 1e-12)
        cand = model.objective_terms(ctx, SlotDecision(p_cand, f, dt, gm))
        # keep the incumbent where it wins the guard or where SP1 gave up
        keep = (inc_ok & (terms > cand)) | p_info.infeasible
        p = np.where(keep, p, p_cand)
        terms = np.where(keep, terms, cand)
        trace.sp_seconds["sp1"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        f_cand, f_bad, scaled = solve_sp2_compute(ctx, p, dt, gm)
        trace.sp2_infeasible += int(np.sum(f_bad))
        trace.budget_scaled += int(scaled)
        inc_ok = (model.completion_time(ctx, p, f, gm) <= dt + 1e-9) & (f <= ctx.leo_cpu_hz + 1e-6)
        cand = model.objective_terms(ctx, SlotDecision(p, f_cand, dt, gm))
        f, terms = _guarded(terms, inc_ok, cand, f, f_cand)
        if np.sum(f) > ctx.leo_cpu_hz * (1.0 + 1e-9):
            f, terms = f_cand, cand  # mixing broke the pool budget; candidate honors it
        trace.sp_seconds["sp2"] += time.perf_counter() - t0

        if pinned_start is None:
            t0 = time.perf_counter()
            lo3, hi3 = sp3_bounds(ctx, p, f, gm, mode=mode)
            dt_cand, dt_empty = _start_in(ctx, lo3, hi3)
            trace.sp3_empty += int(np.sum(dt_empty))
            cand = model.objective_terms(ctx, SlotDecision(p, f, dt_cand, gm))
            inc_ok = (dt >= lo3 - 1e-9) & (dt <= hi3 + 1e-9)
            dt, terms = _guarded(terms, inc_ok, cand, dt, dt_cand)
            trace.sp_seconds["sp3"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        gm_cand, gm_empty = solve_sp4_ratio(ctx, p, f, dt)
        trace.sp4_empty += int(np.sum(gm_empty))
        inc_ok = (model.completion_time(ctx, p, f, gm) <= dt + 1e-9)
        cand = model.objective_terms(ctx, SlotDecision(p, f, dt, gm_cand))
        gm, terms = _guarded(terms, inc_ok, cand, gm, gm_cand)
        trace.sp_seconds["sp4"] += time.perf_counter() - t0

        obj = float(np.sum(terms)) / 1e6
        trace.objective_mbit.append(obj)
        if prev_obj is not None:
            if obj < prev_obj - _NOISE:
                trace.monotone_ok = False
            if abs(obj - prev_obj) <= tol.tau_outer:
                trace.converged = True
                break
        prev_obj = obj

    decision = SlotDecision(p, f, dt, gm)
    if not model.check_feasible(ctx, decision).ok:
        decision = fallback_decision(ctx)
        if pinned_start is not None:
            decision.delta_tol = dt  # the delay violation stays visible in the metrics
        trace.fallback = True
    return decision, trace


def solve_slot_jcorm(ctx: SlotContext, cfg: ScenarioConfig):
    """Joint per-slot optimization: the block rotation over all four
    decisions. Returns (SlotDecision, SlotSolveTrace)."""
    return solve_slot_rotation(ctx, cfg)


def fallback_decision(ctx: SlotContext) -> SlotDecision:
    """Deterministic safe decision: keep everything on board, start DT
    forwarding as soon as the on-board branch completes."""
    z = np.zeros(ctx.num_uavs)
    dt = np.clip(model.completion_time(ctx, z, z, z), 0.0, ctx.slot_seconds)
    return SlotDecision(z, z.copy(), dt, z.copy())


# ---------------------------------------------------------------------------
# horizon runner
# ---------------------------------------------------------------------------

@dataclass
class HorizonResult:
    slot_metrics: list                # model.SlotMetrics per slot
    decisions: list                   # SlotDecision per slot
    traces: list                      # solver traces per slot
    infeasible_slots: list            # slot indices that needed the fallback
    utility_bits: float               # accumulated over the horizon
    wall_seconds: float

    @property
    def total_uplinked_bits(self) -> float:
        return sum(m.total_uplinked_bits for m in self.slot_metrics)

    @property
    def total_energy_j(self) -> float:
        return sum(m.total_energy_j for m in self.slot_metrics)

    @property
    def mean_ds_delay_s(self) -> float:
        if not self.slot_metrics:
            return 0.0
        return float(np.mean([m.ds_delay_s for m in self.slot_metrics]))


def run_horizon(cfg: ScenarioConfig, state, slot_solver) -> HorizonResult:
    """Thread storage through the slots, solving each with ``slot_solver``
    (callable (ctx, cfg) -> (SlotDecision, trace))."""
    from .scenario import build_slot_context

    storage_free = np.full(cfg.num_uavs, cfg.storage_initial_free_bits, dtype=float)
    metrics_list, decisions, traces, infeasible = [], [], [], []
    utility = 0.0
    t_start = time.perf_counter()
    for t in range(cfg.num_slots):
        ctx = build_slot_context(cfg, state, t, storage_free)
        decision, trace = slot_solver(ctx, cfg)
        metrics = model.meter_slot(ctx, decision)
        storage_free = metrics.next_free
        utility += metrics.utility_bits
        metrics_list.append(metrics)
        decisions.append(decision)
        traces.append(trace)
        if getattr(trace, "fallback", False):
            infeasible.append(t)
    wall = time.perf_counter() - t_start
    return HorizonResult(metrics_list, decisions, traces, infeasible, utility, wall)
