"""Comparison schemes run through the same model and metering pipeline:

  * ATSM: the forwarding start is pinned to half the slot; power, compute
    share, and offload ratio are still optimized by the same block passes.
  * GA: a genetic algorithm over the raw (p, f, start, ratio) boxes of
    every slot at once, with penalized constraint violations.
  * No-Offloading: everything is computed on board; only the forwarding
    start is optimized against the on-board completion bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .config import ScenarioConfig
from .model import SlotContext, SlotDecision
from .solver import (FIGURES, HorizonResult, SlotRecords, SlotSolveTrace, run_horizon,
                     solve_slot_rotation, solve_sp3_start_time)


# ---------------------------------------------------------------------------
# ATSM
# ---------------------------------------------------------------------------

def solve_slot_atsm(ctx: SlotContext, cfg: ScenarioConfig):
    """Half-slot split baseline: forwarding starts at slot/2 for every UAV;
    the remaining blocks run the main solver's guarded rotation.
    Returns (SlotDecision, SlotSolveTrace). An instance whose DS load cannot
    finish by slot/2 is flagged, and the decision degrades to no-offload
    with the start kept at slot/2 (the delay violation stays visible in the
    metrics)."""
    return solve_slot_rotation(ctx, cfg, pinned_start=ctx.slot_seconds / 2.0)


# ---------------------------------------------------------------------------
# genetic algorithm
# ---------------------------------------------------------------------------

@dataclass
class GaTrace:
    generations: int = 0
    best_fitness: list = field(default_factory=list)
    sanitized: bool = False


def _ga_fitness(ctx: SlotContext, p, f, dt, gm, penalty_weight: float,
                free, obj_bits) -> np.ndarray:
    """Penalized fitness terms of a population over T slots, against the
    stacked (T, U) context of those slots: genes and ``free`` (the storage
    free at each slot start) are (pop, T, U) arrays, ``obj_bits`` the
    (pop, T) slot objectives in bits, and the result is (pop, T), one term
    per genome and slot.

    A term is the slot objective on the Mbit scale minus penalty_weight
    times the summed constraint violations, each measured on a unit scale
    (seconds for deadlines, Mbit for storage terms, GHz for the pool)."""
    need = model.completion_time(ctx, p, f, gm)
    v_deadline = np.sum(np.minimum(np.maximum(need - dt, 0.0), 1e6), axis=-1)

    collected, nominal_up, available = model.storage_terms(ctx, dt, free)
    v_storage = np.sum(np.maximum(collected - free, 0.0), axis=-1) / 1e6
    v_backlog = np.sum(np.maximum(nominal_up - available, 0.0), axis=-1) / 1e6

    # keepdims: the (pop, T, 1) pool sums line up with the (T, 1) pool column
    pool = np.sum(f, axis=-1, keepdims=True) - ctx.leo_cpu_hz
    v_budget = np.maximum(pool, 0.0)[..., 0] / 1e9

    return obj_bits / 1e6 - penalty_weight * (v_deadline + v_storage + v_backlog + v_budget)


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
    for gen in range(ga.generations):
        trace.generations = gen + 1
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


def _sanitize_slot(ctx, p, f, dt, gm, trace):
    """Offloading with no link or no compute share cannot execute; switch
    those UAVs to on-board processing."""
    rate = ctx.ds_rate(p)
    dead = (gm > 0.0) & ((p <= 0.0) | (f <= 0.0) | (rate <= 0.0))
    if np.any(dead):
        trace.sanitized = True
        gm[dead] = 0.0
        p[dead] = 0.0
        f[dead] = 0.0
    gm[ctx.sum_d <= 0.0] = 0.0
    return SlotDecision(p, f, dt, gm)


def run_horizon_ga(cfg: ScenarioConfig, state):
    """Genetic algorithm over the whole horizon at once: one genome carries
    (power, compute, start, ratio) for every UAV of every slot, and fitness
    threads the storage state through the slots exactly as the metering
    does. This matches reading the heuristic as solving the full problem
    directly rather than slot by slot.

    Fitness scores a whole generation at once: the genomes are viewed as
    (pop, T, 4, U), and the deadline, storage and pool penalties of all
    slots come from one call against the stacked context of the T slots.
    Only the storage chain (each slot's starting free space) and the
    objective run slot by slot. The per-slot terms are then added in slot
    order, so the sums round as a slot-by-slot fitness would.

    The best genome is replayed slot by slot through solver.run_horizon.
    Returns a solver.HorizonResult; the single GaTrace is shared by all
    slots."""
    import time as _time

    from .scenario import build_slot_context

    ga = cfg.ga
    n = cfg.num_uavs
    t_slots = cfg.num_slots
    rng = np.random.default_rng(ga.seed if ga.seed is not None else cfg.seed)
    t_start = _time.perf_counter()
    if t_slots == 0:
        return HorizonResult(np.empty((0, len(FIGURES))), [], 0.0,
                             _time.perf_counter() - t_start, SlotRecords(), None)

    base_free = np.full(n, cfg.storage_initial_free_bits, dtype=float)
    ctxs = [build_slot_context(cfg, state, t, base_free) for t in range(t_slots)]
    stacked = SlotContext.stack(ctxs)
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
        if not (dt.min() >= 0.0 and dt.max() <= cfg.slot_seconds + 1e-12):
            raise ValueError("delta_tol must lie in [0, slot length]")
        requested = stacked.dt_dev_rate_sum * dt
        nominal_up = stacked.r_tol_leo * (cfg.slot_seconds - dt)
        free = np.empty((pop, t_slots, n))
        free[:, 0] = base_free
        for t in range(t_slots - 1):
            free[:, t + 1] = model.buffer_transition(requested[:, t], nominal_up[:, t],
                                                     free[:, t], cap)[2]
        if not (free.min() >= 0.0 and free.max() <= cap + 1e-9):
            raise ValueError("storage_free must lie in [0, capacity]")
        terms = _ga_fitness(stacked, p, f, dt, gm, ga.penalty_weight, free, obj_bits)
        # slot by slot from zero: np.sum over T >= 8 would sum pairwise
        fit = np.zeros(pop)
        for t in range(t_slots):
            fit += terms[:, t]
        return fit

    best = _evolve(rng, ga, hi, fitness, trace)
    genes = iter(np.split(best, t_slots))

    def replay(ctx, cfg):
        p, f, dt, gm = (np.array(a, dtype=float) for a in _split_genes(next(genes), n))
        return _sanitize_slot(ctx, p, f, dt, gm, trace), trace

    result = run_horizon(cfg, state, replay)
    result.wall_seconds = _time.perf_counter() - t_start
    return result


# ---------------------------------------------------------------------------
# no offloading
# ---------------------------------------------------------------------------

def solve_slot_no_offload(ctx: SlotContext, cfg: ScenarioConfig):
    """Everything computed on board: zero power, zero compute share, zero
    ratio; the forwarding start solves the start-time block against the
    on-board completion bound. Returns (SlotDecision, SlotSolveTrace)."""
    zeros = np.zeros(ctx.sum_d.shape)
    dt, empty = solve_sp3_start_time(ctx, zeros, zeros, zeros)
    decision = SlotDecision(zeros, zeros.copy(), dt, zeros.copy())
    rows = ctx.sum_d.shape[:-1]
    report = model.check_feasible(ctx, decision)
    fallback = np.any(empty, axis=-1) | np.logical_not(report.ok)
    trace = SlotSolveTrace.of([model.slot_objective_mbit(ctx, decision)], report, fallback,
                              iterations=np.ones(rows, dtype=int),
                              converged=np.ones(rows, dtype=bool),
                              sp3_empty=np.sum(empty, axis=-1))
    return decision, trace
