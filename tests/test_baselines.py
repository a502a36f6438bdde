"""Baseline solver tests: half-slot split, genetic search over the whole
horizon, and the on-board-only policy."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jcorm import baselines, model
from jcorm.baselines import (GaTrace, run_horizon_ga, solve_slot_atsm,
                             solve_slot_no_offload)
from jcorm.config import GaConfig, ScenarioConfig
from jcorm.model import SlotDecision
from jcorm.scenario import build_slot_context, generate_scenario
from jcorm.solver import run_horizon, solve_slot_jcorm

from conftest import make_ctx, scenario_ctx
from test_batch import CPU_HZ_POW_DIFFERS, TIGHT_BUFFER
from test_properties import configs


# ---------------------------------------------------------------------------
# half-slot split
# ---------------------------------------------------------------------------

class TestHalfSlot:
    def test_start_pinned_to_half_slot(self):
        for seed in range(3):
            ctx, cfg = scenario_ctx(seed=seed)
            decision, _ = solve_slot_atsm(ctx, cfg)
            assert np.all(decision.delta_tol == ctx.slot_seconds / 2.0)

    def test_never_beats_main_solver(self):
        for seed in range(3):
            cfg = ScenarioConfig(seed=seed)
            state = generate_scenario(cfg, seed)
            main = run_horizon(cfg, state, solve_slot_jcorm)
            half = run_horizon(cfg, state, solve_slot_atsm)
            assert main.utility_bits >= half.utility_bits

    def test_decision_feasible_on_defaults(self):
        ctx, cfg = scenario_ctx(seed=1)
        decision, trace = solve_slot_atsm(ctx, cfg)
        assert not trace.fallback
        assert model.check_feasible(ctx, decision).ok

    def test_unreachable_split_degrades_to_onboard(self):
        # device upload exceeds the half-slot start: offloading cannot finish
        ctx = make_ctx(l_off=np.array([6.0, 6.0]))
        cfg = ScenarioConfig(num_uavs=2)
        decision, trace = solve_slot_atsm(ctx, cfg)
        assert trace.fallback
        assert np.all(decision.gamma == 0.0)
        assert np.all(decision.delta_tol == ctx.slot_seconds / 2.0)


# ---------------------------------------------------------------------------
# genetic search, whole horizon
# ---------------------------------------------------------------------------

class TestHorizonGa:
    def test_empty_horizon(self):
        cfg = ScenarioConfig(num_slots=0, seed=0)
        state = generate_scenario(cfg, 0)
        result = run_horizon_ga(cfg, state)
        assert result.slot_metrics == [] and result.utility_bits == 0.0

    def test_deterministic(self):
        cfg = ScenarioConfig(seed=4, num_slots=3,
                             ga=GaConfig(population=20, generations=10))
        state = generate_scenario(cfg, 4)
        r1 = run_horizon_ga(cfg, state)
        r2 = run_horizon_ga(cfg, state)
        assert r1.utility_bits == r2.utility_bits
        for d1, d2 in zip(r1.decisions, r2.decisions):
            assert np.array_equal(d1.power, d2.power)

    def test_storage_metering_is_physical(self):
        cfg = ScenarioConfig(seed=5, num_slots=4,
                             ga=GaConfig(population=20, generations=10))
        state = generate_scenario(cfg, 5)
        result = run_horizon_ga(cfg, state)
        assert result.infeasible_slots == []
        for m in result.slot_metrics:
            assert np.all(m.next_free >= 0.0)
            assert np.all(m.next_free <= cfg.storage_capacity_bits + 1e-6)

    def test_population_one_no_generations_returns_seeded_draw(self):
        cfg = ScenarioConfig(num_uavs=2, num_slots=3,
                             ga=GaConfig(population=1, generations=0, seed=123))
        result = run_horizon_ga(cfg, generate_scenario(cfg, 0))
        n, t_slots = cfg.num_uavs, cfg.num_slots
        raw = (np.random.default_rng(123).uniform(0.0, 1.0, (1, 4 * n * t_slots))[0]
               * gene_box(cfg))
        for t, decision in enumerate(result.decisions):
            genes = raw[4 * n * t:4 * n * (t + 1)]
            assert np.array_equal(decision.power, genes[:n])
            assert np.array_equal(decision.f_leo, genes[n:2 * n])
            assert np.array_equal(decision.delta_tol, genes[2 * n:3 * n])
            assert np.array_equal(decision.gamma, genes[3 * n:])
        assert result.traces[0].best_fitness == []

    def test_scenario_seed_reused_when_ga_seed_unset(self):
        cfg_a = ScenarioConfig(num_uavs=2, num_slots=3, seed=7,
                               ga=GaConfig(population=1, generations=0))
        cfg_b = ScenarioConfig(num_uavs=2, num_slots=3, seed=7,
                               ga=GaConfig(population=1, generations=0, seed=7))
        state = generate_scenario(cfg_a, 7)
        r_a = run_horizon_ga(cfg_a, state)
        r_b = run_horizon_ga(cfg_b, state)
        for d_a, d_b in zip(r_a.decisions, r_b.decisions):
            assert np.array_equal(d_a.power, d_b.power)
            assert np.array_equal(d_a.gamma, d_b.gamma)

    def test_best_fitness_never_regresses(self):
        cfg = ScenarioConfig(seed=3, num_slots=3,
                             ga=GaConfig(population=20, generations=30))
        result = run_horizon_ga(cfg, generate_scenario(cfg, 3))
        fit = np.array(result.traces[0].best_fitness)
        assert len(fit) == cfg.ga.generations
        assert np.all(np.diff(fit) >= -1e-9)

    def test_sanitizer_disables_unpowered_offloading(self):
        cfg = ScenarioConfig(num_uavs=2, num_slots=3,
                             ga=GaConfig(population=4, generations=2, seed=5))
        result = run_horizon_ga(cfg, generate_scenario(cfg, 0))
        for decision in result.decisions:
            on = decision.gamma > 0
            assert np.all(decision.power[on] > 0.0)
            assert np.all(decision.f_leo[on] > 0.0)

    @pytest.mark.parametrize("overrides", [{}, dict(ds_size_min_bits=0.0, ds_size_max_bits=0.0)],
                             ids=["default-load", "no-load"])
    def test_block_sanitize_equals_per_slot_rule(self, overrides):
        # a crafted best genome: offloading at zero power, at a zero compute
        # share, and at a power whose DS rate rounds to 0 on the default link
        cfg = ScenarioConfig(num_uavs=3, num_slots=3, seed=2,
                             ga=GaConfig(population=2, generations=0), **overrides)
        state = generate_scenario(cfg, cfg.seed)
        n = cfg.num_uavs
        hi = gene_box(cfg)
        genome = np.random.default_rng(9).uniform(0.05, 1.0, len(hi)) * hi
        slots = genome.reshape(cfg.num_slots, 4, n)    # (power, compute, start, ratio)
        slots[0, 0, 0] = 0.0
        slots[1, 1, 1] = 0.0
        slots[2, 0, 2] = 1e-20
        assert build_slot_context(cfg, state, 2, np.zeros(n)).ds_rate(1e-20)[2] == 0.0
        want, sanitized = per_slot_sanitized(cfg, state, genome)
        with mock.patch.object(baselines, "_evolve", lambda *args: genome):
            result = run_horizon_ga(cfg, state)
        assert sanitized and result.traces[0].sanitized is True
        for got, ref in zip(result.decisions, want, strict=True):
            for name in vars(ref):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_loses_to_decomposed_solver(self):
        cfg = ScenarioConfig(seed=0)
        state = generate_scenario(cfg, 0)
        main = run_horizon(cfg, state, solve_slot_jcorm)
        whole = run_horizon_ga(cfg, state)
        assert main.utility_bits >= whole.utility_bits


# ---------------------------------------------------------------------------
# the GA's block fitness against a slot-by-slot reference
# ---------------------------------------------------------------------------

def gene_box(cfg):
    """Upper corner of the GA's search box: (power, compute, start, ratio)
    per UAV, slot after slot."""
    n = cfg.num_uavs
    return np.tile(np.concatenate([np.full(n, cfg.pmax_w), np.full(n, cfg.leo_cpu_hz),
                                   np.full(n, cfg.slot_seconds), np.ones(n)]),
                   cfg.num_slots)


def per_slot_sanitized(cfg, state, genome):
    """The best genome's decisions under the per-slot rule on each slot's
    1-D context: offloading at zero power, zero compute share or zero DS
    rate switches to on board, and a UAV without a DS load offloads
    nothing. Returns (decisions, whether any UAV was switched)."""
    n = cfg.num_uavs
    decisions, sanitized = [], False
    for t, genes in enumerate(np.split(genome, cfg.num_slots)):
        ctx = build_slot_context(cfg, state, t, np.full(n, cfg.storage_initial_free_bits))
        p, f, dt, gm = (np.array(genes[i * n:(i + 1) * n]) for i in range(4))
        dead = (gm > 0.0) & ((p <= 0.0) | (f <= 0.0) | (ctx.ds_rate(p) <= 0.0))
        sanitized |= bool(dead.any())
        gm[dead] = 0.0
        p[dead] = 0.0
        f[dead] = 0.0
        gm[ctx.sum_d <= 0.0] = 0.0
        decisions.append(SlotDecision(p, f, dt, gm))
    return decisions, sanitized


def per_slot_fitness(cfg, state):
    """The GA fitness evaluated one slot at a time on (pop, U) arrays, with
    the storage state threaded from each slot into the next: the reference
    that the block evaluation must match bit for bit."""
    n = cfg.num_uavs
    base_free = np.full(n, cfg.storage_initial_free_bits)
    ctxs = [build_slot_context(cfg, state, t, base_free) for t in range(cfg.num_slots)]
    weight = cfg.ga.penalty_weight

    def slot_terms(ctx, p, f, dt, gm, free):
        obj = np.sum(model.objective_terms(ctx, SlotDecision(p, f, dt, gm)), axis=-1) / 1e6
        need = model.Evaluation(ctx, p, f, None, gm).need
        v_deadline = np.sum(np.minimum(np.maximum(need - dt, 0.0), 1e6), axis=-1)
        collected, nominal_up, available = model.storage_terms(ctx, dt, free)
        v_storage = np.sum(np.maximum(collected - free, 0.0), axis=-1) / 1e6
        v_backlog = np.sum(np.maximum(nominal_up - available, 0.0), axis=-1) / 1e6
        v_budget = np.maximum(np.sum(f, axis=-1) - ctx.leo_cpu_hz, 0.0) / 1e9
        return obj - weight * (v_deadline + v_storage + v_backlog + v_budget)

    def fitness(genomes):
        free = base_free
        fit = np.zeros(len(genomes))
        for t, ctx in enumerate(ctxs):
            g = genomes[:, 4 * n * t:4 * n * (t + 1)]
            p, f, dt, gm = g[:, :n], g[:, n:2 * n], g[:, 2 * n:3 * n], g[:, 3 * n:]
            fit += slot_terms(ctx, p, f, dt, gm, free)
            free = model.dt_collection_step(ctx.dt_dev_rate_sum, dt, ctx.slot_seconds,
                                            ctx.r_tol_leo, free, ctx.storage_capacity).next_free
        return fit

    return fitness


def reference_evolve(rng, ga, hi, fitness_fn, trace):
    """The GA loop written with a fresh array per step: the same draws in
    the same order as baselines._evolve, which works in place."""
    pop, dim = ga.population, len(hi)
    genomes = rng.uniform(0.0, 1.0, size=(pop, dim)) * hi
    fitness = fitness_fn(genomes)
    for _ in range(ga.generations):
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


def assert_block_fitness_matches(cfg):
    """Run the GA with every fitness call checked against the slot-by-slot
    reference, on the evolving populations and on the box's corners; then
    check the best genome and the best-fitness trace against a reference
    run."""
    state = generate_scenario(cfg, cfg.seed)
    reference = per_slot_fitness(cfg, state)
    hi = gene_box(cfg)
    corners = np.stack([np.zeros_like(hi), hi, np.where(np.arange(len(hi)) % 3, hi, 0.0)])
    evolve = baselines._evolve
    got = {}

    def checked_evolve(rng, ga, box, fitness_fn, trace):
        assert np.array_equal(box, hi)

        def checked(genomes):
            fit = fitness_fn(genomes)
            assert np.array_equal(fit, reference(genomes))
            return fit

        got["best"] = evolve(rng, ga, box, checked, trace)
        assert np.array_equal(fitness_fn(corners), reference(corners))
        return got["best"]

    with mock.patch.object(baselines, "_evolve", checked_evolve):
        result = run_horizon_ga(cfg, state)
    want = GaTrace()
    seed = cfg.ga.seed if cfg.ga.seed is not None else cfg.seed
    best = reference_evolve(np.random.default_rng(seed), cfg.ga, hi, reference, want)
    assert np.array_equal(got["best"], best)
    assert result.traces[0].best_fitness == want.best_fitness


SHORT_GA = GaConfig(generations=15)


class TestBlockFitness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("overrides", [
        {}, dict(num_uavs=13), dict(omega=1e3), TIGHT_BUFFER,
        dict(num_uavs=1, num_slots=1),
        dict(num_uavs=2, num_slots=3, ga=GaConfig(population=1, generations=0)),
        dict(uav_cpu_hz=CPU_HZ_POW_DIFFERS),
    ], ids=["default", "U=13", "omega-1e3", "tight-buffer", "U=1-T=1", "pop-1-gen-0",
            "pow-clock"])
    def test_equals_per_slot_loop(self, overrides, seed):
        assert_block_fitness_matches(ScenarioConfig(seed=seed, **{"ga": SHORT_GA, **overrides}))

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=configs(), population=st.integers(1, 8), generations=st.integers(0, 3),
           mutation_rate=st.floats(0.0, 1.0), ga_seed=st.integers(0, 2 ** 32))
    def test_property_equals_per_slot_loop(self, cfg, population, generations,
                                           mutation_rate, ga_seed):
        cfg.ga = GaConfig(population=population, generations=generations,
                          mutation_rate=mutation_rate, seed=ga_seed)
        cfg.validate()
        assert_block_fitness_matches(cfg)


# ---------------------------------------------------------------------------
# on-board only
# ---------------------------------------------------------------------------

class TestNoOffload:
    def test_everything_stays_on_board(self):
        for seed in range(3):
            ctx, cfg = scenario_ctx(seed=seed)
            decision, trace = solve_slot_no_offload(ctx, cfg)
            assert np.all(decision.gamma == 0.0)
            assert np.all(decision.power == 0.0)
            assert np.all(decision.f_leo == 0.0)
            assert not trace.fallback
            assert model.check_feasible(ctx, decision).ok

    def test_start_respects_onboard_completion(self):
        ctx, cfg = scenario_ctx(seed=2)
        decision, _ = solve_slot_no_offload(ctx, cfg)
        local = model.Evaluation.of(ctx, decision).local
        assert np.all(decision.delta_tol >= local - 1e-9)

    def test_impossible_onboard_deadline_flagged(self):
        ctx = make_ctx(l_off=np.array([50.0, 50.0]))
        cfg = ScenarioConfig(num_uavs=2)
        _, trace = solve_slot_no_offload(ctx, cfg)
        assert trace.fallback
