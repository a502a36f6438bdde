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

import operator
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import model
from .config import ScenarioConfig
from .model import TIME_SLACK, SlotContext, SlotDecision

_NOISE = 1e-9          # accepted objective decrease attributable to float noise


# ---------------------------------------------------------------------------
# SP1: DS uplink power
# ---------------------------------------------------------------------------

def solve_sp1_power(ctx: SlotContext, ev: model.Evaluation):
    """Lowest transmit power that meets the satellite-branch deadline, within
    the power box.

    Energy per delivered bit, p / log2(1 + p g / N0), rises with p, so the
    fractional energy-per-rate program ends at the lowest power whose rate
    pushes the offloaded bits through the deadline slack:
    p_req = (2^(gamma D / (slack B/U)) - 1) N0 / g, clipped to pmax.

    Returns (power array, per-UAV infeasible mask). UAVs with nothing to
    offload get zero power. UAVs with no compute share, no slack left, or
    p_req above pmax are flagged and get zero power. ``ev`` evaluates the
    decision; its power is not read.
    """
    live = (ev.gamma > 0.0) & ctx.loaded_mbit
    # no compute share makes the remote compute time, and so -slack, infinite
    slack = ev.delta_tol - ctx.l_off - ev.remote - 2.0 * ctx.l_prop
    has_slack = slack > 0.0
    b_n = ctx.leo_bandwidth_hz / 1e6 / ctx.num_uavs   # per-UAV band share, MHz
    exponent = ev.gamma * ctx.sum_d_mbit / (np.where(has_slack, slack, 1.0) * b_n)
    # float_power rounds like the scalar libm pow (np.power's SIMD kernel can
    # differ in the last bit). A tiny band share overflows to inf, which the
    # pmax test below flags.
    with np.errstate(over="ignore"):
        p_req = (np.float_power(2.0, exponent) - 1.0) / ctx.sat_gain_per_noise
    infeasible = live & (~has_slack | (p_req > ctx.pmax_w * (1.0 + 1e-9)))
    power = np.where(live & ~infeasible, np.minimum(p_req, ctx.pmax_w), 0.0)
    return power, infeasible


# ---------------------------------------------------------------------------
# SP2: satellite compute share
# ---------------------------------------------------------------------------

def solve_sp2_compute(ctx: SlotContext, ev: model.Evaluation):
    """Smallest compute share finishing the offloaded bits inside the deadline
    (remote compute energy grows with the share, so the minimum is optimal).

    Returns (f array, per-UAV infeasible mask, budget_scaled flag per row).
    Shares are clamped to the pool size; if a row's shares jointly exceed
    the pool they are scaled down proportionally and flagged (the next
    ratio pass shrinks the offload loads to match). ``ev`` evaluates the
    decision; its compute share is not read.
    """
    active = ev.active
    slack = ev.delta_tol - ctx.l_off - ev.transmit - 2.0 * ctx.l_prop
    bad = active & ((slack <= 0.0) | ~np.isfinite(slack))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_min = np.where(active & ~bad, ctx.cycles_per_bit * ev.gamma * ctx.sum_d / slack, 0.0)
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

def sp3_bounds(ctx: SlotContext, ev: model.Evaluation, mode: str = "paper-relaxed"):
    """Feasible interval [lo, hi] for the DT forwarding start time.

    mode='strict' takes the true two-branch completion bound as the lower
    end; mode='paper-relaxed' takes the branch-average bound, which lets the
    alternation walk the start time down (final iterates still satisfy the
    true bound because the ratio pass re-tightens it). The average is only
    meaningful while both branches are live: UAVs currently offloading
    nothing keep the exact on-board bound, since their satellite constraint
    is vacuous and averaging against it would undercut the real deadline.
    At gamma = 0 both modes therefore give the on-board bound. ``ev``
    evaluates the decision; its start time is not read. The buffer's part
    of the interval is ``ctx.storage_bounds``.
    """
    if mode == "strict":
        lo_deadline = ev.need
    else:
        local = ev.local
        sat_ct = np.where(ev.active, ev.sat - ctx.l_off - 2.0 * ctx.l_prop, 0.0)
        relaxed = ctx.l_off_prop + 0.5 * ((local - ctx.l_off) + sat_ct)
        lo_deadline = np.where(ev.active, relaxed, local)

    floor, ceiling = ctx.storage_bounds
    return np.maximum(floor, lo_deadline), ceiling


def solve_sp3_start_time(ctx: SlotContext, ev: model.Evaluation,
                         mode: str = "paper-relaxed"):
    """Choose when DT forwarding starts. The objective is linear in the start
    time, so the optimum sits on an interval end:

      * collecting longer only pays when the energy price of forwarding
        exceeds the forwarding rate (then start as late as storage allows),
      * otherwise start as early as the DS deadline and the backlog bound
        admit.

    Returns (delta_tol array, empty-interval mask)."""
    lo, hi = sp3_bounds(ctx, ev, mode)
    return _start_in(ctx, lo, hi)


def _start_in(ctx: SlotContext, lo: np.ndarray, hi: np.ndarray):
    """The better end of the start-time interval [lo, hi] (see
    solve_sp3_start_time); an empty interval gets the slot end."""
    empty = lo > hi + 1e-12
    delta = np.where(ctx.waiting_pays, hi, lo)
    delta = np.clip(delta, 0.0, ctx.slot_seconds)
    delta = np.where(empty, ctx.slot_seconds, delta)
    return delta, empty


# ---------------------------------------------------------------------------
# SP4: offload ratio
# ---------------------------------------------------------------------------

def solve_sp4_ratio(ctx: SlotContext, ev: model.Evaluation):
    """Choose the offloaded fraction. Linear objective over the interval the
    two deadline branches leave open; the sign of the per-bit saving
    (on-board compute energy versus remote compute + transmit energy)
    selects the end. Returns (gamma array, empty-interval mask). ``ev``
    evaluates the decision; its ratio is not read."""
    power, f_leo, delta_tol, rate = ev.power, ev.f_leo, ev.delta_tol, ev.rate
    active = ctx.loaded
    usable = active & (rate > 0.0) & (f_leo > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_min = 1.0 + np.where(active, (ctx.l_off - delta_tol) / ctx.load_seconds_floor, 0.0)
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
                         ctx.cycle_cap * (ctx.cpu_squared - f_leo ** 2)
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
        converged. Its block seconds stay at the default zeros: the stack
        timed its blocks for all rows at once."""
        # fields a solver left at their defaults hold one value for all rows
        per_row = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("objective_mbit", "sp_seconds")}
        passes = self.objective_mbit[:self.iterations[b]]
        return SlotSolveTrace(objective_mbit=[o[b] for o in passes],
                              **{k: v[b] if isinstance(v, list) else v for k, v in per_row.items()})


@dataclass
class Solved:
    """What a slot solver's solve step decided on each row of the context
    it ran on, before its settle step checks the decision on the slot's
    own context: the decision, the objective after each pass ((passes,),
    or (passes, rows) stacked), the per-row counts of its SlotSolveTrace,
    and the seconds in each block of the call (None where the solver does
    not time its blocks, and on rows joined from calls)."""

    decision: SlotDecision
    objective: np.ndarray
    counts: dict
    seconds: dict | None = None


class SlotSteps:
    """A slot solver in two steps, which ``run_horizons`` runs apart on a
    stack. ``solve(ctx, cfg) -> Solved`` decides every row of ``ctx`` and
    reads the buffer state only through ``ctx.storage_bounds``;
    ``settle(ctx, cfg, solved) -> (SlotDecision, SlotSolveTrace)`` checks
    the decision on the slot's own context and falls back where it fails.
    Called as ``solver(ctx, cfg)``, it settles what it solves."""

    def __init__(self, name: str, solve: Callable, settle: Callable):
        self.__name__ = name
        self.solve = solve
        self.settle = settle

    def __call__(self, ctx: SlotContext, cfg: ScenarioConfig):
        return self.settle(ctx, cfg, self.solve(ctx, cfg))


def _held(keep, held):
    """A guard's keep mask, also keeping the incumbent on the ``held`` rows
    (None: no row is held)."""
    return keep if held is None else keep | held


def rotate(ctx: SlotContext, cfg: ScenarioConfig, pinned: bool = False) -> Solved:
    """Block rotation (power, compute share, forwarding start, offload
    ratio) until the slot objective settles: the solve step of the jcorm
    and ATSM solvers. Forwarding starts at half the slot, and stays there
    where ``pinned``, which skips the start-time block. The buffer state
    enters only the start-time block, through ``ctx.storage_bounds``.

    ``ev`` is the ``model.Evaluation`` of the incumbent decision. Each block
    reads what it needs of it, evaluates its candidate by recomputing only
    the parts its variable reaches, and merges the two with the guard's
    mask: a UAV keeps its incumbent only where that is feasible and
    strictly better than the candidate. The merge is exact because every
    part is elementwise per UAV. On a stacked context every row rotates on
    its own: a row that has settled keeps its incumbent through every guard
    while the others go on, so each row ends as its 1-D solve would."""
    tol = cfg.tol
    mode = cfg.solver_mode
    shape = ctx.sum_d.shape
    ev = model.Evaluation(
        ctx, np.full(shape, ctx.pmax_w / 2.0), np.full(shape, ctx.leo_cpu_hz / ctx.num_uavs),
        np.full(shape, ctx.slot_seconds / 2.0),
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
        p_cand, p_bad = solve_sp1_power(ctx, ev)
        counts["sp1_infeasible"] += p_bad.sum(axis=-1) * live
        # the incumbent's need, read first, is inherited by the candidate
        inc_ok = (ev.need <= ev.delta_tol + TIME_SLACK) & (ev.power <= ctx.pmax_w + 1e-12)
        cand = ev.replace(power=p_cand)
        # keep the incumbent where it wins the guard or where SP1 gave up
        ev = ev.merged(_held((inc_ok & (ev.terms > cand.terms)) | p_bad, held), cand)
        seconds["sp1"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        f_cand, f_bad, scaled = solve_sp2_compute(ctx, ev)
        counts["sp2_infeasible"] += f_bad.sum(axis=-1) * live
        counts["budget_scaled"] += scaled & live
        inc_ok = (ev.need <= ev.delta_tol + TIME_SLACK) & (ev.f_leo <= ctx.leo_cpu_hz + 1e-6)
        cand = ev.replace(f_leo=f_cand)
        ev = ev.merged(_held(inc_ok & (ev.terms > cand.terms), held), cand)
        seconds["sp2"] += time.perf_counter() - t0

        if not pinned:
            t0 = time.perf_counter()
            lo3, hi3 = sp3_bounds(ctx, ev, mode)
            dt_cand, dt_empty = _start_in(ctx, lo3, hi3)
            counts["sp3_empty"] += dt_empty.sum(axis=-1) * live
            cand = ev.replace(delta_tol=dt_cand)
            inc_ok = (ev.delta_tol >= lo3 - TIME_SLACK) & (ev.delta_tol <= hi3 + TIME_SLACK)
            ev = ev.merged(_held(inc_ok & (ev.terms > cand.terms), held), cand)
            seconds["sp3"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        gm_cand, gm_empty = solve_sp4_ratio(ctx, ev)
        counts["sp4_empty"] += gm_empty.sum(axis=-1) * live
        inc_ok = ev.need <= ev.delta_tol + TIME_SLACK
        cand = ev.replace(gamma=gm_cand)
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

    counts.update(iterations=iterations, converged=converged, monotone_ok=monotone_ok)
    return Solved(SlotDecision(ev.power, ev.f_leo, ev.delta_tol, ev.gamma),
                  np.array(objective), counts, seconds)


def settle_rotation(ctx: SlotContext, cfg: ScenarioConfig, solved: Solved,
                    keep_start: bool = False):
    """The rotation's decision where it passes check_feasible on ``ctx``,
    evaluated afresh, and fallback_decision elsewhere, with the rotation's
    start kept where ``keep_start`` (the delay violation stays visible in
    the metrics). Returns (SlotDecision, SlotSolveTrace)."""
    decision = solved.decision
    report = model.check_feasible(ctx, decision)
    fallback = np.logical_not(report.ok)
    if np.any(fallback):
        safe = fallback_decision(ctx)
        if keep_start:
            safe.delta_tol = decision.delta_tol
        bad = fallback[..., None]
        decision = SlotDecision(*(np.where(bad, a, b) for a, b in
                                  zip(vars(safe).values(), vars(decision).values())))
    trace = SlotSolveTrace.of(list(solved.objective), report, fallback, solved.seconds,
                              **solved.counts)
    return decision, trace


# joint per-slot optimization: the rotation over all four blocks
solve_slot_jcorm = SlotSteps("solve_slot_jcorm", rotate, settle_rotation)


def fallback_decision(ctx: SlotContext) -> SlotDecision:
    """Deterministic safe decision: keep everything on board, start DT
    forwarding as soon as the on-board branch completes."""
    z = np.zeros(ctx.sum_d.shape)
    dt = np.clip(model.Evaluation(ctx, z, z, None, z).need, 0.0, ctx.slot_seconds)
    return SlotDecision(z, z.copy(), dt, z.copy())


# ---------------------------------------------------------------------------
# horizon runner
# ---------------------------------------------------------------------------

# the CSV figures of a slot, in the column order of HorizonResult.figures
FIGURES = ("utility_bits", "uplinked_bits", "energy_j", "ds_delay_s")


@dataclass
class HorizonResult:
    """One cell's run over the horizon: its per-slot CSV figures, which a
    stacked run reduces for all its cells at once, and its own per-slot
    decisions, solver traces and SlotMetrics (None for a run that kept
    none)."""

    figures: np.ndarray               # (T, 4): the FIGURES of each slot
    infeasible_slots: list            # slot indices that needed the fallback
    mean_ds_delay_s: float            # over every UAV and slot
    wall_seconds: float
    decisions: list | None
    traces: list | None
    slot_metrics: list | None

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


# most UAV-rows (rows x U) a stack's solve call holds when it takes later
# slots' rows along: a pass costs about the same from 120 to 1,200
# UAV-rows and grows with the rows beyond that (the README gives the curve)
AHEAD_UAV_ROWS = 1 << 11


# the array shapes and solver settings that a stack reads from its first
# cell: cells whose stack_key values are equal may run as one stack
STACK_FIELDS = ("num_uavs", "num_slots", "solver_mode", "tol.i_max", "tol.tau_outer")
stack_key = operator.attrgetter(*STACK_FIELDS)


def run_horizons(cfgs: list, states: list, slot_solver, keep_records: bool = True) -> list:
    """Thread storage through the slots of B cells that share
    ``STACK_FIELDS`` (ValueError otherwise), and meter slot t of all of
    them with one ``model.meter_slot`` call on their stacked context
    (``scenario.ContextStack``). A ``SlotSteps`` solver (called, it solves
    and settles a slot; its ``solve`` and ``settle`` are the two steps)
    runs a single cell as a stack of one. A stack whose solver is a
    ``SlotSteps`` and whose solve call can hold two of its slots within
    ``AHEAD_UAV_ROWS`` (a stack of one always can) is solved ahead of its
    buffer chain (see ``_solve_ahead``); any other solves slot t of all
    cells with one call. A single cell with a plain ``slot_solver``
    (callable (ctx, cfg) -> (SlotDecision, trace)) gets one call per slot
    on its 1-D contexts from ``scenario.build_slot_context``. Each slot's
    CSV figures and fallback flags are reduced for all cells at once.
    Returns one HorizonResult per cell, with its own rows of the slot
    records, split at the end; the group's wall time is shared equally.
    Without ``keep_records`` the run keeps no per-slot record that grows
    with B x U x T."""
    from . import scenario

    t_start = time.perf_counter()
    cfg = cfgs[0]
    for other in cfgs[1:]:
        differ = [f for f, a, b in zip(STACK_FIELDS, stack_key(cfg), stack_key(other)) if a != b]
        if differ:
            raise ValueError(f"the cells of one stack differ in {', '.join(differ)}")
    cells, slots = len(cfgs), cfg.num_slots
    steps = isinstance(slot_solver, SlotSteps)
    stack = scenario.ContextStack(cfgs, states) if (cells > 1 or steps) and slots else None
    decisions, traces, metered = [], [], []
    delays = []
    figures = np.empty((cells, slots, len(FIGURES)))
    fallback = np.zeros((cells, slots), dtype=bool)

    def meter(t, ctx, decision, trace):
        # slot t's figures and records; returns the next buffer state
        metrics = model.meter_slot(ctx, decision)
        figures[:, t] = np.stack([metrics.utility_bits, metrics.total_uplinked_bits,
                                  metrics.total_energy_j, metrics.mean_ds_delay_s], axis=-1)
        fallback[:, t] = getattr(trace, "fallback", False)
        delays.append(metrics.ds_delay_s)
        if keep_records:
            decisions.append(decision)
            traces.append(trace)
            metered.append(metrics)
        return metrics.next_free

    # a call that cannot hold two slots' rows would take a part of one
    # slot along at most, which saves less than the driver's checks cost
    if stack is not None and steps and 2 * cells * cfg.num_uavs <= AHEAD_UAV_ROWS:
        _solve_ahead(stack, cfg, slot_solver, meter)
    else:
        free = (np.full(cfg.num_uavs, cfg.storage_initial_free_bits, dtype=float)
                if stack is None else stack.initial_free)
        for t in range(slots):
            ctx = (scenario.build_slot_context(cfg, states[0], t, free) if stack is None
                   else stack.slot(t, free))
            free = meter(t, ctx, *slot_solver(ctx, cfg))
    if slots:
        # (B, T, U) or (T, U), reduced in one call as each cell's (T, U) would be
        mean_delay = np.mean(np.stack(delays, axis=-2), axis=(-2, -1)).reshape(cells)
    else:
        mean_delay = np.zeros(cells)
    wall = (time.perf_counter() - t_start) / cells

    def kept(records, b):
        # cell b's records: its rows of a stack's, a 1-D run's as they are
        if not keep_records:
            return None
        return list(records) if stack is None else [record.row(b) for record in records]

    return [HorizonResult(figures[b], np.flatnonzero(fallback[b]).tolist(), float(mean_delay[b]),
                          wall, kept(decisions, b), kept(traces, b), kept(metered, b))
            for b in range(cells)]


def _unbound(ctx: SlotContext) -> np.ndarray:
    """Per row of a stacked context: whether its storage bounds are, bit
    for bit, the ones that never bind, a zero floor and the slot end."""
    floor, ceiling = ctx.storage_bounds
    end = np.asarray(ctx.slot_seconds, dtype=float).view(np.uint64)
    return ((floor.view(np.uint64) == 0) & (ceiling.view(np.uint64) == end)).all(axis=-1)


def _joined(parts: list, cells: int) -> Solved:
    """One stacked solve of ``cells`` rows from the (rows, solved, columns)
    parts they were solved in: ``solved`` decided the part's ``rows`` in
    its ``columns``. The parts are written in order, so a row solved again
    takes its last part. A row that has settled repeats its objective in
    every later pass of its call, so each part's objective is cut, or
    padded with its last pass, to the most passes a joined row took, as one
    solve of the rows would leave it. Joined rows keep no block seconds."""
    first = parts[0][1]
    decision = SlotDecision(*(np.empty((cells,) + a.shape[1:], dtype=a.dtype)
                              for a in vars(first.decision).values()))
    counts = {name: np.empty(cells, dtype=v.dtype) for name, v in first.counts.items()}
    for rows, solved, columns in parts:
        for name, out in vars(decision).items():
            out[rows] = getattr(solved.decision, name)[columns]
        for name, out in counts.items():
            out[rows] = solved.counts[name][columns]
    objective = np.empty((int(counts["iterations"].max()), cells))
    for rows, solved, columns in parts:
        passes = solved.objective[:len(objective), columns]
        objective[:len(passes), rows] = passes
        objective[len(passes):, rows] = passes[-1]
    return Solved(decision, objective, counts)


def _solve_ahead(stack, cfg: ScenarioConfig, steps: SlotSteps, meter) -> None:
    """Solve and meter the slots of a stack in order, each solve call also
    taking later slots' rows along, ahead of the buffer state they start
    from.

    A slot's solve reads the buffer only through its storage bounds, so a
    row solved at the bounds that never bind, (0, slot end), is the row's
    own solve wherever its true bounds are those, bit for bit. Slot t's
    call holds its rows without such a solve at their true bounds: rows
    never solved, and rows solved ahead whose true bounds differ, whose
    part replaces the earlier one (``_joined``). While the call stays
    within ``AHEAD_UAV_ROWS`` it takes whole later slots' unsolved rows of
    the cells whose bounds do not bind in slot t along, at the unbinding
    bounds, on one ``ContextStack.rows`` context. The slot is then settled
    and metered on its own context, which gives the next slot's buffer
    state; ``meter(t, ctx, decision, trace)`` returns it."""
    slots, cells = cfg.num_slots, len(stack.initial_free)
    per_call = AHEAD_UAV_ROWS // cfg.num_uavs
    ahead = np.zeros((slots, cells), dtype=bool)      # solved ahead, bounds unchecked
    parts = [[] for _ in range(slots)]                # per slot, (rows, Solved, columns)
    free = stack.initial_free
    for t in range(slots):
        ctx = stack.slot(t, free)
        unbound = _unbound(ctx)
        now = np.flatnonzero(~(ahead[t] & unbound))
        if len(now):
            batch, size = [(t, now)], len(now)
            # a buffer that binds now mostly binds in the next slots too, so
            # only the cells whose bounds do not bind now are taken along
            along = ~ahead[t + 1:] & unbound
            for s in (t + 1 + np.flatnonzero(along.any(axis=1))).tolist():
                rows = np.flatnonzero(along[s - t - 1])
                if size + len(rows) > per_call:
                    break
                batch.append((s, rows))
                ahead[s, rows] = True
                size += len(rows)
            if size == len(now) == cells:
                solved = steps.solve(ctx, cfg)
            else:
                call = stack.rows(np.repeat([s for s, _ in batch], [len(r) for _, r in batch]),
                                  np.concatenate([rows for _, rows in batch]))
                floor = np.zeros(call.sum_d.shape)
                ceiling = np.broadcast_to(call.slot_seconds, floor.shape).copy()
                floor[:len(now)], ceiling[:len(now)] = (b[now] for b in ctx.storage_bounds)
                call.storage_bounds = floor, ceiling
                solved = steps.solve(call, cfg)
            start = 0
            for s, rows in batch:
                parts[s].append((rows, solved, slice(start, start + len(rows))))
                start += len(rows)
        free = meter(t, ctx, *steps.settle(ctx, cfg, _joined(parts[t], cells)))
        parts[t] = None


def run_horizon(cfg: ScenarioConfig, state, slot_solver) -> HorizonResult:
    """Thread storage through the slots of one cell: a ``SlotSteps`` solver
    runs it as a stack of one, ahead of its buffer chain, and any other
    ``slot_solver`` (callable (ctx, cfg) -> (SlotDecision, trace)) is
    called once per slot on the cell's 1-D context (``run_horizons``)."""
    return run_horizons([cfg], [state], slot_solver)[0]
