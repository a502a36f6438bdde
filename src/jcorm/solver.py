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
from dataclasses import dataclass, field, fields

import numpy as np

from . import model
from .config import ScenarioConfig
from .model import SlotContext, SlotDecision

_NOISE = 1e-9          # accepted objective decrease attributable to float noise


# ---------------------------------------------------------------------------
# SP1: DS uplink power
# ---------------------------------------------------------------------------

def solve_sp1_power(ctx: SlotContext, f_leo: np.ndarray, delta_tol: np.ndarray,
                    gamma: np.ndarray, ev: model.Evaluation | None = None):
    """Lowest transmit power that meets the satellite-branch deadline, within
    the power box.

    Energy per delivered bit, p / log2(1 + p g / N0), rises with p, so the
    fractional energy-per-rate program ends at the lowest power whose rate
    pushes the offloaded bits through the deadline slack:
    p_req = (2^(gamma D / (slack B/U)) - 1) N0 / g, clipped to pmax.

    Returns (power array, per-UAV infeasible mask). UAVs with nothing to
    offload get zero power. UAVs with no compute share, no slack left, or
    p_req above pmax are flagged and get zero power. ``ev``, an evaluation
    of a decision with this compute share and ratio, lends its remote
    compute time.
    """
    gamma = np.asarray(gamma, dtype=float)
    if ev is None:
        ev = model.Evaluation(ctx, None, f_leo, None, gamma)
    d_mbit = ctx.sum_d / 1e6
    live = (gamma > 0.0) & (d_mbit > 0.0)
    # no compute share makes the remote compute time, and so -slack, infinite
    slack = delta_tol - ctx.l_off - ev.remote - 2.0 * ctx.l_prop
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
    return power, infeasible


# ---------------------------------------------------------------------------
# SP2: satellite compute share
# ---------------------------------------------------------------------------

def solve_sp2_compute(ctx: SlotContext, power: np.ndarray, delta_tol: np.ndarray,
                      gamma: np.ndarray, ev: model.Evaluation | None = None):
    """Smallest compute share finishing the offloaded bits inside the deadline
    (remote compute energy grows with the share, so the minimum is optimal).

    Returns (f array, per-UAV infeasible mask, budget_scaled flag per row).
    Shares are clamped to the pool size; if a row's shares jointly exceed
    the pool they are scaled down proportionally and flagged (the next
    ratio pass shrinks the offload loads to match). ``ev``, an evaluation
    of a decision with this power and ratio, lends its transmit time.
    """
    gamma = np.asarray(gamma, dtype=float)
    if ev is None:
        ev = model.Evaluation(ctx, power, None, None, gamma)
    active = ev.active
    slack = delta_tol - ctx.l_off - ev.transmit - 2.0 * ctx.l_prop
    bad = active & ((slack <= 0.0) | ~np.isfinite(slack))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_min = np.where(active & ~bad, ctx.cycles_per_bit * gamma * ctx.sum_d / slack, 0.0)
    # where f_min exceeds the pool, even the whole pool misses the deadline
    infeasible = bad | (f_min > ctx.leo_cpu_hz)
    # best effort where the deadline is missed; the ratio pass must shrink gamma
    f_out = np.where(bad, ctx.leo_cpu_hz, np.minimum(f_min, ctx.leo_cpu_hz))
    # per row: scale the shares down together where they overflow the pool
    total = f_out.sum(axis=-1, keepdims=True)
    over = total > ctx.leo_cpu_hz * (1.0 + 1e-12)
    budget_scaled = over.any(axis=-1)
    if budget_scaled.any():
        f_out = np.where(over, f_out * (ctx.leo_cpu_hz / np.where(over, total, 1.0)), f_out)
    return f_out, infeasible, budget_scaled


# ---------------------------------------------------------------------------
# SP3: DT forwarding start time
# ---------------------------------------------------------------------------

def sp3_bounds(ctx: SlotContext, power: np.ndarray, f_leo: np.ndarray,
               gamma: np.ndarray, mode: str = "paper-relaxed",
               ev: model.Evaluation | None = None):
    """Feasible interval [lo, hi] for the DT forwarding start time.

    mode='strict' takes the true two-branch completion bound as the lower
    end; mode='paper-relaxed' takes the branch-average bound, which lets the
    alternation walk the start time down (final iterates still satisfy the
    true bound because the ratio pass re-tightens it). The average is only
    meaningful while both branches are live: UAVs currently offloading
    nothing keep the exact on-board bound, since their satellite constraint
    is vacuous and averaging against it would undercut the real deadline.
    At gamma = 0 both modes therefore give the on-board bound. ``ev``, an
    evaluation of a decision with this power, compute share and ratio,
    lends its deadline bounds.
    """
    if ev is None:
        ev = model.Evaluation(ctx, power, f_leo, None, gamma)
    if mode == "strict":
        lo_deadline = ev.need
    else:
        local = ev.local
        sat_ct = np.where(ev.active, ev.sat - ctx.l_off - 2.0 * ctx.l_prop, 0.0)
        relaxed = ctx.l_off + ctx.l_prop + 0.5 * ((local - ctx.l_off) + sat_ct)
        lo_deadline = np.where(ev.active, relaxed, local)

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
                    delta_tol: np.ndarray, ev: model.Evaluation | None = None):
    """Choose the offloaded fraction. Linear objective over the interval the
    two deadline branches leave open; the sign of the per-bit saving
    (on-board compute energy versus remote compute + transmit energy)
    selects the end. Returns (gamma array, empty-interval mask). ``ev``,
    an evaluation of a decision with this power, lends its rate."""
    power = np.asarray(power, dtype=float)
    f_leo = np.asarray(f_leo, dtype=float)
    active = ctx.sum_d > 0.0
    rate = ctx.ds_rate(power) if ev is None else ev.rate
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
                         ctx.cycles_per_bit * ctx.switch_cap * (model.cpu_squared(ctx) - f_leo ** 2)
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
    """What one slot solve did. On a stacked context every field but
    ``sp_seconds`` holds one entry per row (``objective_mbit`` one list per
    pass), and ``row`` splits it into per-row traces. ``violations`` is the
    ``check_feasible`` dict of a decision that fell back (constraint name
    -> worst excess, or True for a flag), and {} otherwise."""

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
    violations: dict = field(default_factory=dict)
    sp_seconds: dict = field(default_factory=lambda: {"sp1": 0.0, "sp2": 0.0,
                                                      "sp3": 0.0, "sp4": 0.0})

    @classmethod
    def of(cls, objective_mbit: list, report: model.FeasibilityReport, fallback,
           sp_seconds=None, **counts) -> "SlotSolveTrace":
        """A trace from per-row numpy values: plain scalars for a 1-D
        context, lists for a stacked one. ``report`` is the decision's
        ``check_feasible`` report, whose violations are kept on the rows
        that ``fallback`` marks."""
        trace = cls(objective_mbit=[np.asarray(o).tolist() for o in objective_mbit],
                    fallback=np.asarray(fallback).tolist(),
                    violations=report.row_violations(fallback),
                    **{k: np.asarray(v).tolist() for k, v in counts.items()})
        if sp_seconds is not None:
            trace.sp_seconds = sp_seconds
        return trace

    def row(self, b: int) -> "SlotSolveTrace":
        """Row ``b`` of a stacked solve's trace. Its passes end where it
        converged; the block seconds of the stack are shared equally."""
        n = len(self.iterations)
        # fields a solver left at their defaults hold one value for all rows
        per_row = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("objective_mbit", "sp_seconds")}
        passes = self.objective_mbit[:self.iterations[b]]
        return SlotSolveTrace(objective_mbit=[o[b] for o in passes],
                              sp_seconds={k: v / n for k, v in self.sp_seconds.items()},
                              **{k: v[b] if isinstance(v, list) else v for k, v in per_row.items()})


def _held(keep, held):
    """A guard's keep mask, also keeping the incumbent on the ``held`` rows
    (None: no row is held)."""
    return keep if held is None else keep | held


def solve_slot_rotation(ctx: SlotContext, cfg: ScenarioConfig, pinned_start=None):
    """Block rotation (power, compute share, forwarding start, offload ratio)
    until the slot objective settles. With ``pinned_start`` every UAV starts
    forwarding at that time and the start-time block is skipped.

    ``ev`` is the ``model.Evaluation`` of the incumbent decision. Each block
    reads what it needs of it, evaluates its candidate by recomputing only
    the parts its variable reaches, and merges the two with the guard's
    mask: a UAV keeps its incumbent only where that is feasible and
    strictly better than the candidate. The merge is exact because every
    part is elementwise per UAV. On a stacked context every row rotates on
    its own: a row that has settled keeps its incumbent through every guard
    while the others go on, so each row ends as its 1-D solve would. A
    decision that fails check_feasible, evaluated afresh, is replaced by
    fallback_decision, keeping the pinned start if there is one. Returns
    (SlotDecision, SlotSolveTrace)."""
    tol = cfg.tol
    mode = cfg.solver_mode
    shape = ctx.sum_d.shape
    ev = model.Evaluation(
        ctx, np.full(shape, ctx.pmax_w / 2.0), np.full(shape, ctx.leo_cpu_hz / ctx.num_uavs),
        np.full(shape, ctx.slot_seconds / 2.0 if pinned_start is None else pinned_start),
        np.where(ctx.sum_d <= 0.0, 0.0, 0.5))

    # per-row state: numpy scalars for a 1-D context, (B,) arrays stacked
    rows = shape[:-1]
    active = np.ones(rows, dtype=bool)[()]      # rows still rotating
    iterations = np.zeros(rows, dtype=int)[()]
    converged = np.zeros(rows, dtype=bool)[()]
    monotone_ok = np.ones(rows, dtype=bool)[()]
    counts = {name: np.zeros(rows, dtype=int)[()] for name in
              ("sp1_infeasible", "sp2_infeasible", "sp3_empty", "sp4_empty", "budget_scaled")}
    seconds = {"sp1": 0.0, "sp2": 0.0, "sp3": 0.0, "sp4": 0.0}
    objective = []
    prev_obj = None
    for i in range(1, tol.i_max + 1):
        # counts of rows that have settled are dropped, and their guards
        # keep every incumbent, so they end the pass as they settled
        live = True if active.all() else active
        held = None if live is True else ~active[..., None]

        t0 = time.perf_counter()
        p_cand, p_bad = solve_sp1_power(ctx, ev.f_leo, ev.delta_tol, ev.gamma, ev)
        counts["sp1_infeasible"] += p_bad.sum(axis=-1) * live
        cand = ev.replace(power=p_cand)
        inc_ok = (ev.need <= ev.delta_tol + 1e-9) & (ev.power <= ctx.pmax_w + 1e-12)
        # keep the incumbent where it wins the guard or where SP1 gave up
        ev = ev.merged(_held((inc_ok & (ev.terms > cand.terms)) | p_bad, held), cand)
        seconds["sp1"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        f_cand, f_bad, scaled = solve_sp2_compute(ctx, ev.power, ev.delta_tol, ev.gamma, ev)
        counts["sp2_infeasible"] += f_bad.sum(axis=-1) * live
        counts["budget_scaled"] += scaled & live
        cand = ev.replace(f_leo=f_cand)
        inc_ok = (ev.need <= ev.delta_tol + 1e-9) & (ev.f_leo <= ctx.leo_cpu_hz + 1e-6)
        ev = ev.merged(_held(inc_ok & (ev.terms > cand.terms), held), cand)
        # where mixing broke a row's pool budget, the candidate honors it
        broke = ev.f_leo.sum(axis=-1, keepdims=True) > ctx.leo_cpu_hz * (1.0 + 1e-9)
        if held is not None:
            broke &= ~held
        if broke.any():
            ev = cand.merged(broke, ev)
        seconds["sp2"] += time.perf_counter() - t0

        if pinned_start is None:
            t0 = time.perf_counter()
            lo3, hi3 = sp3_bounds(ctx, ev.power, ev.f_leo, ev.gamma, mode, ev)
            dt_cand, dt_empty = _start_in(ctx, lo3, hi3)
            counts["sp3_empty"] += dt_empty.sum(axis=-1) * live
            cand = ev.replace(delta_tol=dt_cand)
            inc_ok = (ev.delta_tol >= lo3 - 1e-9) & (ev.delta_tol <= hi3 + 1e-9)
            ev = ev.merged(_held(inc_ok & (ev.terms > cand.terms), held), cand)
            seconds["sp3"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        gm_cand, gm_empty = solve_sp4_ratio(ctx, ev.power, ev.f_leo, ev.delta_tol, ev)
        counts["sp4_empty"] += gm_empty.sum(axis=-1) * live
        cand = ev.replace(gamma=gm_cand)
        inc_ok = ev.need <= ev.delta_tol + 1e-9
        ev = ev.merged(_held(inc_ok & (ev.terms > cand.terms), held), cand)
        seconds["sp4"] += time.perf_counter() - t0

        obj = ev.terms.sum(axis=-1) / 1e6
        objective.append(obj)
        iterations = iterations + active
        if prev_obj is not None:
            monotone_ok = monotone_ok & ~(active & (obj < prev_obj - _NOISE))
            settled = active & (abs(obj - prev_obj) <= tol.tau_outer)
            converged = converged | settled
            active = active & ~settled
            if not active.any():
                break
        prev_obj = obj

    dt = ev.delta_tol
    decision = SlotDecision(ev.power, ev.f_leo, dt, ev.gamma)
    report = model.check_feasible(ctx, decision)
    fallback = np.logical_not(report.ok)
    if np.any(fallback):
        safe = fallback_decision(ctx)
        if pinned_start is not None:
            safe.delta_tol = dt  # the delay violation stays visible in the metrics
        bad = fallback[..., None]
        decision = SlotDecision(*(np.where(bad, a, b) for a, b in
                                  zip(vars(safe).values(), vars(decision).values())))
    trace = SlotSolveTrace.of(objective, report, fallback, seconds, iterations=iterations,
                              converged=converged, monotone_ok=monotone_ok, **counts)
    return decision, trace


def solve_slot_jcorm(ctx: SlotContext, cfg: ScenarioConfig):
    """Joint per-slot optimization: the block rotation over all four
    decisions. Returns (SlotDecision, SlotSolveTrace)."""
    return solve_slot_rotation(ctx, cfg)


def fallback_decision(ctx: SlotContext) -> SlotDecision:
    """Deterministic safe decision: keep everything on board, start DT
    forwarding as soon as the on-board branch completes."""
    z = np.zeros(ctx.sum_d.shape)
    dt = np.clip(model.completion_time(ctx, z, z, z), 0.0, ctx.slot_seconds)
    return SlotDecision(z, z.copy(), dt, z.copy())


# ---------------------------------------------------------------------------
# horizon runner
# ---------------------------------------------------------------------------

# the CSV figures of a slot, in the column order of HorizonResult.figures
FIGURES = ("utility_bits", "uplinked_bits", "energy_j", "ds_delay_s")


@dataclass
class SlotRecords:
    """Per slot, the decision, solver trace and SlotMetrics of a horizon
    run as the solver and ``model.meter_slot`` returned them: 1-D for a
    single cell, stacked (B, U) and shared by the B cells of a stack."""

    decisions: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    metrics: list = field(default_factory=list)


@dataclass
class HorizonResult:
    """One cell's run over the horizon.

    ``figures`` holds the cell's per-slot CSV figures, which a stacked run
    reduces for all its cells at once. The per-slot decisions, metrics and
    traces stay in ``records`` as the run produced them. For a cell of a
    stack (``row`` is its row), ``decisions``, ``slot_metrics`` and
    ``traces`` split them out each time they are read, and only then."""

    figures: np.ndarray               # (T, 4): the FIGURES of each slot
    infeasible_slots: list            # slot indices that needed the fallback
    mean_ds_delay_s: float            # over every UAV and slot
    wall_seconds: float
    records: SlotRecords | None       # None for a run that kept none
    row: int | None                   # the cell's row of stacked records

    @property
    def utility_bits(self) -> float:
        """Accumulated over the horizon."""
        return self._total("utility_bits")

    @property
    def total_uplinked_bits(self) -> float:
        return self._total("uplinked_bits")

    @property
    def total_energy_j(self) -> float:
        return self._total("energy_j")

    def _total(self, figure: str) -> float:
        # slot by slot from zero, as the slots accumulate
        return sum(self.figures[:, FIGURES.index(figure)].tolist(), 0.0)

    @property
    def decisions(self) -> list:
        return self._split(self.records.decisions)

    @property
    def slot_metrics(self) -> list:
        return self._split(self.records.metrics)

    @property
    def traces(self) -> list:
        return self._split(self.records.traces)

    def _split(self, records: list) -> list:
        if self.row is None:
            return list(records)
        return [record.row(self.row) for record in records]


def run_horizons(cfgs: list, states: list, slot_solver, keep_records: bool = True) -> list:
    """Thread storage through the slots of B cells that share num_uavs,
    num_slots, solver_mode and tol, solving slot t of all of them with one
    ``slot_solver`` call (callable (ctx, cfg) -> (SlotDecision, trace)) on
    their stacked context (``scenario.ContextStack``); a single cell gets
    its 1-D context from ``scenario.build_slot_context``. Slot t is metered
    with one ``model.meter_slot`` call on the same context, and its CSV
    figures and fallback flags are reduced for all cells at once. Returns
    one HorizonResult per cell, all sharing the stacked slot records; the
    group's wall time is shared equally. Without ``keep_records`` the
    results hold only their figures (``records`` is None), and the run
    holds no per-slot record that grows with B x U x T."""
    from . import scenario

    t_start = time.perf_counter()
    cfg = cfgs[0]
    cells, slots = len(cfgs), cfg.num_slots
    stack = scenario.ContextStack(cfgs, states) if cells > 1 and slots else None
    free = (np.full(cfg.num_uavs, cfg.storage_initial_free_bits, dtype=float)
            if stack is None else stack.initial_free)
    records = SlotRecords() if keep_records else None
    delays = []
    figures = np.empty((cells, slots, len(FIGURES)))
    fallback = np.zeros((cells, slots), dtype=bool)
    for t in range(slots):
        if stack is None:
            ctx = scenario.build_slot_context(cfg, states[0], t, free)
        else:
            ctx = stack.slot(t, free)
        decision, trace = slot_solver(ctx, cfg)
        metrics = model.meter_slot(ctx, decision)
        free = metrics.next_free
        figures[:, t] = np.stack([metrics.utility_bits, metrics.total_uplinked_bits,
                                  metrics.total_energy_j, metrics.mean_ds_delay_s], axis=-1)
        fallback[:, t] = getattr(trace, "fallback", False)
        delays.append(metrics.ds_delay_s)
        if keep_records:
            records.decisions.append(decision)
            records.traces.append(trace)
            records.metrics.append(metrics)
    if slots:
        # (B, T, U) or (T, U), reduced in one call as each cell's (T, U) would be
        mean_delay = np.mean(np.stack(delays, axis=-2), axis=(-2, -1)).reshape(cells)
    else:
        mean_delay = np.zeros(cells)
    wall = (time.perf_counter() - t_start) / cells
    return [HorizonResult(figures[b], np.flatnonzero(fallback[b]).tolist(),
                          float(mean_delay[b]), wall, records, None if stack is None else b)
            for b in range(cells)]


def run_horizon(cfg: ScenarioConfig, state, slot_solver) -> HorizonResult:
    """Thread storage through the slots of one cell, solving each with
    ``slot_solver`` (callable (ctx, cfg) -> (SlotDecision, trace))."""
    return run_horizons([cfg], [state], slot_solver)[0]
