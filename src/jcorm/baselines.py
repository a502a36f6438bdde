"""Comparison schemes run through the same model and metering pipeline:

  * ATSM: the forwarding start is pinned to half the slot; power, compute
    share, and offload ratio are still optimized by the same block passes.
    A slot whose DS load cannot finish by then is flagged, and degrades to
    no-offload with the start kept (the delay violation stays visible in
    the metrics).
  * GA: a genetic algorithm over the raw (p, f, start, ratio) boxes of
    every slot at once, with penalized constraint violations.
  * No-Offloading: everything is computed on board; only the forwarding
    start is optimized against the on-board completion bound. A slot whose
    start interval is empty, or whose decision fails check_feasible, is
    flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import model
from .config import ScenarioConfig
from .model import SlotContext, SlotDecision
from .scenario import ContextStack
from .solver import (FIGURES, HorizonResult, SlotSolveTrace, SlotSteps, Solved, rotate,
                     run_horizon, settle_rotation, solve_sp3_start_time)


# ---------------------------------------------------------------------------
# ATSM
# ---------------------------------------------------------------------------

solve_slot_atsm = SlotSteps("solve_slot_atsm", partial(rotate, pinned=True),
                            partial(settle_rotation, keep_start=True))


# ---------------------------------------------------------------------------
# genetic algorithm
# ---------------------------------------------------------------------------

@dataclass
class GaTrace:
    best_fitness: list = field(default_factory=list)
    sanitized: bool = False


def _split_genes(g, n):
    """View a (..., 4n) genome block as (power, compute, start, ratio)."""
    return g[..., :n], g[..., n:2 * n], g[..., 2 * n:3 * n], g[..., 3 * n:]


def _evolve(rng, ga, hi, fitness_fn, trace: GaTrace) -> np.ndarray:
    """Generic real-coded GA over box [0, hi]: tournament selection, uniform
    crossover, Gaussian mutation clipped to the boxes, elitism. Returns the
    best genome ever evaluated."""
    pop = ga.population
    dim = len(hi)
    genomes = rng.uniform(0.0, 1.0, size=(pop, dim)) * hi
    fitness = fitness_fn(genomes)
    for _ in range(ga.generations):
        order = np.argsort(fitness)[::-1]
        elite = genomes[order[:ga.elitism]].copy()

        contenders = rng.integers(0, pop, size=(2 * pop, ga.tournament))
        winners = contenders[np.arange(2 * pop), np.argmax(fitness[contenders], axis=1)]
        # peak memory at large genomes: drop each (pop, dim) block once used
        parents = genomes[winners].reshape(2, pop, dim)
        del genomes

        children = np.where(rng.random((pop, dim)) < 0.5, parents[0], parents[1])
        no_cross = rng.random(pop) >= ga.crossover_rate
        children[no_cross] = parents[0][no_cross]
        del parents

        keep = rng.random((pop, dim)) >= ga.mutation_rate
        noise = rng.normal(0.0, ga.mutation_sigma_frac, size=(pop, dim))
        noise *= hi
        np.copyto(noise, 0.0, where=keep)
        del keep
        children += noise
        del noise
        np.clip(children, 0.0, hi, out=children)

        children[:ga.elitism] = elite
        genomes = children
        fitness = fitness_fn(genomes)
        trace.best_fitness.append(float(np.max(fitness)))
    return genomes[int(np.argmax(fitness))]


def run_horizon_ga(cfg: ScenarioConfig, state):
    """Genetic algorithm over the whole horizon at once: one genome carries
    (power, compute, start, ratio) for every UAV of every slot, and fitness
    threads the storage state through the slots exactly as the metering
    does. This matches reading the heuristic as solving the full problem
    directly rather than slot by slot.

    Fitness scores a whole generation at once: the genomes are viewed as
    (pop, T, 4, U), and the penalties of all slots come from one pass
    against the cell's ``ContextStack.rows`` of the T slots, whose NaN
    buffer state the GA never reads; the storage and backlog penalties
    reuse the products that thread the storage chain. Only the chain (each
    slot's starting free space) and the objective, on each slot's (1, U)
    context, run slot by slot. The per-slot terms are then added in slot
    order, so the sums round as a slot-by-slot fitness would.

    The best genome is sanitized once as a (T, U) decision on the rows
    context: offloading with no link or no compute share cannot execute,
    so those UAVs switch to on-board processing, and a UAV without a DS
    load offloads nothing. Its rows are then replayed slot by slot through
    solver.run_horizon. Returns a solver.HorizonResult; the single GaTrace
    is shared by all slots."""
    import time as _time

    ga = cfg.ga
    n = cfg.num_uavs
    t_slots = cfg.num_slots
    rng = np.random.default_rng(ga.seed if ga.seed is not None else cfg.seed)
    t_start = _time.perf_counter()
    if t_slots == 0:
        return HorizonResult(np.empty((0, len(FIGURES))), [], 0.0,
                             _time.perf_counter() - t_start, [], [], [])

    stack = ContextStack([cfg], [state])
    base_free = stack.initial_free
    ctxs = [stack.slot(t, base_free) for t in range(t_slots)]
    stacked = stack.rows(np.arange(t_slots), np.zeros(t_slots, dtype=int))
    cap = cfg.storage_capacity_bits
    hi_slot = np.concatenate([np.full(n, cfg.pmax_w), np.full(n, cfg.leo_cpu_hz),
                              np.full(n, cfg.slot_seconds), np.ones(n)])
    hi = np.tile(hi_slot, t_slots)
    trace = GaTrace()

    def fitness(genomes):
        pop = len(genomes)
        p, f, dt, gm = _split_genes(genomes.reshape(pop, t_slots, 4 * n), n)
        obj_bits = np.empty((pop, t_slots))
        for t, ctx in enumerate(ctxs):
            # one objective_terms call per slot: the benchmark's trace
            # (bench/tracing.py) counts the genomes the GA scores as these
            # calls over the slot count
            dec = SlotDecision(p[:, t], f[:, t], dt[:, t], gm[:, t])
            obj_bits[:, t] = np.sum(model.objective_terms(ctx, dec), axis=-1)
        # physical storage threading, as dt_collection_step meters it: each
        # slot starts from the last one's end
        requested = stacked.dt_dev_rate_sum * dt
        nominal_up = stacked.r_tol_leo * (cfg.slot_seconds - dt)
        free = np.empty((pop, t_slots, n))
        free[:, 0] = base_free
        for t in range(t_slots - 1):
            free[:, t + 1] = model.buffer_transition(requested[:, t], nominal_up[:, t],
                                                     free[:, t], cap)[2]
        model.check_buffer_ranges(dt, cfg.slot_seconds, free, cap)
        # the slot objective in Mbit minus the weighted violations, each on a
        # unit scale (seconds for deadlines, Mbit for storage terms, GHz for
        # the pool); with every start in the slot, the chain's products are
        # the nominal storage terms
        need = model.Evaluation(stacked, p, f, None, gm).need
        v_deadline = np.sum(np.minimum(np.maximum(need - dt, 0.0), 1e6), axis=-1)
        v_storage = np.sum(np.maximum(requested - free, 0.0), axis=-1) / 1e6
        v_backlog = np.sum(np.maximum(nominal_up - (requested + (cap - free)), 0.0), axis=-1) / 1e6
        # keepdims: the (pop, T, 1) pool sums line up with the (T, 1) pool column
        pool = np.sum(f, axis=-1, keepdims=True) - stacked.leo_cpu_hz
        v_budget = np.maximum(pool, 0.0)[..., 0] / 1e9
        terms = obj_bits / 1e6 - ga.penalty_weight * (v_deadline + v_storage + v_backlog + v_budget)
        # slot by slot from zero: np.sum over T >= 8 would sum pairwise
        fit = np.zeros(pop)
        for t in range(t_slots):
            fit += terms[:, t]
        return fit

    best = _evolve(rng, ga, hi, fitness, trace)
    # copies, since the sanitize writes in place
    p, f, dt, gm = (a.copy() for a in _split_genes(best.reshape(t_slots, 4 * n), n))
    # a zero power has a zero rate
    dead = (gm > 0.0) & ((f <= 0.0) | (stacked.ds_rate(p) <= 0.0))
    for a in (gm, p, f):
        a[dead] = 0.0
    gm[stacked.sum_d <= 0.0] = 0.0
    trace.sanitized = bool(dead.any())
    rows = zip(p, f, dt, gm)
    result = run_horizon(cfg, state, lambda ctx, c: (SlotDecision(*next(rows)), trace))
    result.wall_seconds = _time.perf_counter() - t_start
    return result


# ---------------------------------------------------------------------------
# no offloading
# ---------------------------------------------------------------------------

def _solve_no_offload(ctx: SlotContext, cfg: ScenarioConfig) -> Solved:
    zeros = np.zeros(ctx.sum_d.shape)
    dt, empty = solve_sp3_start_time(ctx, model.Evaluation(ctx, zeros, zeros, None, zeros))
    decision = SlotDecision(zeros, zeros.copy(), dt, zeros.copy())
    rows = ctx.sum_d.shape[:-1]
    return Solved(decision, np.array([model.slot_objective_mbit(ctx, decision)]),
                  dict(iterations=np.ones(rows, dtype=int), converged=np.ones(rows, dtype=bool),
                       sp3_empty=np.sum(empty, axis=-1)))


def _settle_no_offload(ctx: SlotContext, cfg: ScenarioConfig, solved: Solved):
    report = model.check_feasible(ctx, solved.decision)
    fallback = (solved.counts["sp3_empty"] > 0) | np.logical_not(report.ok)
    trace = SlotSolveTrace.of(list(solved.objective), report, fallback, **solved.counts)
    return solved.decision, trace


solve_slot_no_offload = SlotSteps("solve_slot_no_offload", _solve_no_offload,
                                  _settle_no_offload)
