"""Comparison schemes run through the same model and metering pipeline:

  * ATSM: the forwarding start is pinned to half the slot; power, compute
    share, and offload ratio are still optimized by the same block passes.
  * GA: a genetic algorithm over the raw (p, f, start, ratio) boxes with
    penalized constraint violations, solving each slot directly.
  * No-Offloading: everything is computed on board; only the forwarding
    start is optimized against the on-board completion bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .config import ScenarioConfig
from .model import SlotContext, SlotDecision
from .solver import (HorizonResult, SlotSolveTrace, run_horizon, solve_slot_rotation,
                     solve_sp3_start_time)


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
    fallback: bool = False
    sanitized: bool = False


def _ga_fitness(ctx: SlotContext, p, f, dt, gm, penalty_weight: float,
                free) -> np.ndarray:
    """Penalized fitness of a population, arrays shaped (pop, U).

    Fitness is the slot objective on the Mbit scale minus penalty_weight
    times the summed constraint violations, each measured on a unit scale
    (seconds for deadlines, Mbit for storage terms, GHz for the pool).
    ``free`` is the storage free at the slot start."""
    dec = SlotDecision(p, f, dt, gm)
    obj = np.sum(model.objective_terms(ctx, dec), axis=-1) / 1e6

    need = model.completion_time(ctx, p, f, gm)
    v_deadline = np.sum(np.minimum(np.maximum(need - dt, 0.0), 1e6), axis=-1)

    collected, nominal_up, available = model.storage_terms(ctx, dt, free)
    v_storage = np.sum(np.maximum(collected - free, 0.0), axis=-1) / 1e6
    v_backlog = np.sum(np.maximum(nominal_up - available, 0.0), axis=-1) / 1e6

    v_budget = np.maximum(np.sum(f, axis=-1) - ctx.leo_cpu_hz, 0.0) / 1e9

    return obj - penalty_weight * (v_deadline + v_storage + v_backlog + v_budget)


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
        parents = genomes[winners].reshape(2, pop, dim)

        cross = rng.random((pop, dim)) < 0.5
        children = np.where(cross, parents[0], parents[1])
        no_cross = rng.random(pop) >= ga.crossover_rate
        children[no_cross] = parents[0][no_cross]

        mutate = rng.random((pop, dim)) < ga.mutation_rate
        noise = rng.normal(0.0, ga.mutation_sigma_frac, size=(pop, dim)) * hi
        children = np.clip(children + np.where(mutate, noise, 0.0), 0.0, hi)

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


def solve_slot_ga(ctx: SlotContext, cfg: ScenarioConfig):
    """Direct per-slot search with the genetic algorithm. Returns
    (SlotDecision, GaTrace); always returns the best individual found,
    sanitized so that offloading without power or compute is turned off."""
    ga = cfg.ga
    n = ctx.num_uavs
    rng = np.random.default_rng(ga.seed if ga.seed is not None else cfg.seed)
    hi = np.concatenate([np.full(n, ctx.pmax_w), np.full(n, ctx.leo_cpu_hz),
                         np.full(n, ctx.slot_seconds), np.ones(n)])
    trace = GaTrace()

    def fitness(genomes):
        return _ga_fitness(ctx, *_split_genes(genomes, n), ga.penalty_weight,
                           ctx.storage_free)

    best = _evolve(rng, ga, hi, fitness, trace)
    p, f, dt, gm = (np.array(a, dtype=float) for a in _split_genes(best, n))
    return _sanitize_slot(ctx, p, f, dt, gm, trace), trace


def run_horizon_ga(cfg: ScenarioConfig, state):
    """Genetic algorithm over the whole horizon at once: one genome carries
    (power, compute, start, ratio) for every UAV of every slot, and fitness
    threads the storage state through the slots exactly as the metering
    does. This matches reading the heuristic as solving the full problem
    directly rather than slot by slot.

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

    base_free = np.full(n, cfg.storage_initial_free_bits, dtype=float)
    ctxs = [build_slot_context(cfg, state, t, base_free) for t in range(t_slots)]
    hi_slot = np.concatenate([np.full(n, cfg.pmax_w), np.full(n, cfg.leo_cpu_hz),
                              np.full(n, cfg.slot_seconds), np.ones(n)])
    hi = np.tile(hi_slot, max(t_slots, 1))
    trace = GaTrace()

    def fitness(genomes):
        free = base_free
        fit = np.zeros(genomes.shape[0])
        for t, ctx in enumerate(ctxs):
            p, f, dt, gm = _split_genes(genomes[:, t * 4 * n:(t + 1) * 4 * n], n)
            fit += _ga_fitness(ctx, p, f, dt, gm, ga.penalty_weight, free)
            # physical storage threading for the next slot's bounds
            free = model.dt_collection_step(ctx.dt_dev_rate_sum, dt, ctx.slot_seconds,
                                            ctx.r_tol_leo, free, ctx.storage_capacity).next_free
        return fit

    if t_slots == 0:
        return HorizonResult([], [], [], [], 0.0, _time.perf_counter() - t_start)

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
    n = ctx.num_uavs
    zeros = np.zeros(n)
    dt, empty = solve_sp3_start_time(ctx, zeros, zeros, zeros)
    trace = SlotSolveTrace()
    trace.iterations = 1
    trace.converged = True
    trace.sp3_empty = int(np.sum(empty))
    decision = SlotDecision(zeros, zeros.copy(), dt, zeros.copy())
    obj = model.slot_objective_mbit(ctx, decision)
    trace.objective_mbit.append(obj)
    if np.any(empty) or not model.check_feasible(ctx, decision).ok:
        trace.fallback = True
    return decision, trace
