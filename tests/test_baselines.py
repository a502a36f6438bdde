"""Baseline solver tests: half-slot split, genetic search over the whole
horizon, and the on-board-only policy."""

import numpy as np
import pytest

from jcorm import model
from jcorm.baselines import run_horizon_ga, solve_slot_atsm, solve_slot_no_offload
from jcorm.config import GaConfig, ScenarioConfig
from jcorm.scenario import generate_scenario
from jcorm.solver import run_horizon, solve_slot_jcorm

from conftest import make_ctx, scenario_ctx


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
        hi = np.tile(np.concatenate([np.full(n, cfg.pmax_w), np.full(n, cfg.leo_cpu_hz),
                                     np.full(n, cfg.slot_seconds), np.ones(n)]), t_slots)
        raw = np.random.default_rng(123).uniform(0.0, 1.0, (1, 4 * n * t_slots))[0] * hi
        for t, decision in enumerate(result.decisions):
            genes = raw[4 * n * t:4 * n * (t + 1)]
            assert np.array_equal(decision.power, genes[:n])
            assert np.array_equal(decision.f_leo, genes[n:2 * n])
            assert np.array_equal(decision.delta_tol, genes[2 * n:3 * n])
            assert np.array_equal(decision.gamma, genes[3 * n:])
        assert result.traces[0].generations == 0

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

    def test_loses_to_decomposed_solver(self):
        cfg = ScenarioConfig(seed=0)
        state = generate_scenario(cfg, 0)
        main = run_horizon(cfg, state, solve_slot_jcorm)
        whole = run_horizon_ga(cfg, state)
        assert main.utility_bits >= whole.utility_bits


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
        local, _ = model.deadline_lower_bounds(ctx, decision.power,
                                               decision.f_leo, decision.gamma)
        assert np.all(decision.delta_tol >= local - 1e-9)

    def test_impossible_onboard_deadline_flagged(self):
        ctx = make_ctx(l_off=np.array([50.0, 50.0]))
        cfg = ScenarioConfig(num_uavs=2)
        _, trace = solve_slot_no_offload(ctx, cfg)
        assert trace.fallback
