"""Grid-search reference tests: the per-coordinate grids agree with the
closed-form solver blocks, and the joint grid dominates random feasible
points on its own lattice."""

import numpy as np
import pytest

from jcorm import model
from jcorm.config import ToleranceConfig
from jcorm.model import SlotDecision
from jcorm.oracle import grid_axes, grid_joint, grid_sp1, grid_sp2, grid_sp3, grid_sp4
from jcorm.solver import (solve_sp1_power, solve_sp2_compute,
                          solve_sp3_start_time, solve_sp4_ratio)

from conftest import make_ctx, random_fixed_decision, scenario_ctx


TOL = ToleranceConfig()


def draw_instances(num, gamma_hi=0.9, rng_seed=0):
    """(ctx, decision) pairs with enough deadline slack for a nonempty
    feasible set on every coordinate."""
    rng = np.random.default_rng(rng_seed)
    out = []
    seed = 0
    while len(out) < num:
        ctx, _ = scenario_ctx(seed=seed, slot=seed % 10)
        out.append((ctx, random_fixed_decision(ctx, rng, gamma_hi=gamma_hi)))
        seed += 1
    return out


# ---------------------------------------------------------------------------
# single-coordinate grids
# ---------------------------------------------------------------------------

class TestPowerGrid:
    def test_zero_ratio_prefers_zero_power(self):
        ctx = make_ctx()
        fixed = SlotDecision(np.full(2, 0.5), np.full(2, 1e9), np.full(2, 8.0),
                             np.zeros(2))
        res = grid_sp1(ctx, fixed)
        assert np.all(res.feasible)
        assert np.all(res.best == 0.0)
        assert np.all(res.best_obj == 0.0)

    def test_impossible_deadline_reports_infeasible(self):
        ctx = make_ctx()
        fixed = SlotDecision(np.full(2, 0.5), np.full(2, 5e9),
                             ctx.l_off + 1e-6, np.ones(2))
        res = grid_sp1(ctx, fixed)
        assert not np.any(res.feasible)
        assert np.all(np.isnan(res.best))

    def test_matches_closed_form(self):
        hits = 0
        for ctx, fixed in draw_instances(8):
            p, bad = solve_sp1_power(ctx, model.Evaluation.of(ctx, fixed))
            res = grid_sp1(ctx, fixed)
            rate = ctx.ds_rate(p)
            live = res.feasible & ~bad & (fixed.gamma > 0)
            obj = np.where(rate > 0,
                           ctx.omega * fixed.gamma * ctx.sum_d * p
                           / np.maximum(rate, 1e-300), 0.0)
            assert np.all(obj[live] <= res.best_obj[live] + 1e-3)
            hits += int(np.sum(live))
        assert hits >= 25


class TestComputeGrid:
    def test_matches_closed_form(self):
        hits = 0
        for ctx, fixed in draw_instances(8, rng_seed=1):
            f, bad, scaled = solve_sp2_compute(ctx, model.Evaluation.of(ctx, fixed))
            res = grid_sp2(ctx, fixed)
            live = res.feasible & ~bad & (fixed.gamma > 0)
            if scaled:
                continue
            obj = (ctx.omega * ctx.cycles_per_bit * ctx.switch_cap
                   * fixed.gamma * ctx.sum_d * f ** 2)
            assert np.all(obj[live] <= res.best_obj[live] + 1e-3)
            hits += int(np.sum(live))
        assert hits >= 25

    def test_grid_minimum_is_feasible_point(self):
        ctx, _ = scenario_ctx(seed=11)
        rng = np.random.default_rng(3)
        fixed = random_fixed_decision(ctx, rng)
        res = grid_sp2(ctx, fixed)
        for u in np.flatnonzero(res.feasible):
            f_try = fixed.f_leo.copy()
            f_try[u] = res.best[u]
            sat = model.Evaluation(ctx, fixed.power, f_try, None, fixed.gamma).sat
            assert sat[u] <= fixed.delta_tol[u] + 1e-6


class TestStartGrid:
    def test_solver_at_least_as_good(self):
        hits = 0
        for ctx, fixed in draw_instances(8, rng_seed=2):
            dt, empty = solve_sp3_start_time(ctx, model.Evaluation.of(ctx, fixed))
            res = grid_sp3(ctx, fixed)
            cand = SlotDecision(fixed.power, fixed.f_leo, dt, fixed.gamma)
            terms = model.objective_terms(ctx, cand)
            live = res.feasible & ~empty
            assert np.all(terms[live] / 1e6 >= res.best_obj[live] / 1e6 - 1e-3)
            hits += int(np.sum(live))
        assert hits >= 25


class TestRatioGrid:
    def test_solver_at_least_as_good(self):
        hits = 0
        for ctx, fixed in draw_instances(8, rng_seed=4):
            gm, empty = solve_sp4_ratio(ctx, model.Evaluation.of(ctx, fixed))
            res = grid_sp4(ctx, fixed)
            cand = SlotDecision(fixed.power, fixed.f_leo, fixed.delta_tol, gm)
            terms = model.objective_terms(ctx, cand)
            live = res.feasible & ~empty
            assert np.all(terms[live] / 1e6 >= res.best_obj[live] / 1e6 - 1e-3)
            hits += int(np.sum(live))
        assert hits >= 25

    def test_deterministic(self):
        ctx, _ = scenario_ctx(seed=13)
        rng = np.random.default_rng(8)
        fixed = random_fixed_decision(ctx, rng)
        r1 = grid_sp4(ctx, fixed)
        r2 = grid_sp4(ctx, fixed)
        assert np.array_equal(r1.best, r2.best, equal_nan=True)
        assert np.array_equal(r1.best_obj, r2.best_obj, equal_nan=True)


# ---------------------------------------------------------------------------
# joint grid
# ---------------------------------------------------------------------------

def tiny_ctx(**overrides):
    base = dict(sum_d=np.array([8e5]), l_off=np.array([0.3]),
                dt_dev_rate_sum=np.array([2e7]), r_tol_leo=np.array([5e7]),
                sat_gain=np.array([3.33390087e-9]), l_prop=0.005773,
                storage_free=np.array([8e9]))
    base.update(overrides)
    return make_ctx(**base)


class TestJointGrid:
    def test_idle_network_scores_zero(self):
        ctx = make_ctx(sum_d=np.zeros(2), dt_dev_rate_sum=np.zeros(2),
                       l_off=np.zeros(2), storage_free=np.full(2, 1.2e10))
        res = grid_joint(ctx, 5)
        assert res.feasible
        assert res.best_obj_mbit == pytest.approx(0.0, abs=1e-9)

    def test_rejects_large_fleets(self):
        ctx, _ = scenario_ctx(seed=0)
        with pytest.raises(ValueError):
            grid_joint(ctx, 5)

    def test_rejects_oversized_grids(self):
        ctx = tiny_ctx()
        with pytest.raises(ValueError):
            grid_joint(ctx, 26)

    def test_deterministic(self):
        ctx = tiny_ctx()
        r1 = grid_joint(ctx, 8)
        r2 = grid_joint(ctx, 8)
        assert r1.best_obj_mbit == r2.best_obj_mbit
        assert np.array_equal(r1.decision.power, r2.decision.power)

    def test_best_point_is_feasible(self):
        ctx = tiny_ctx()
        res = grid_joint(ctx, 10)
        assert res.feasible
        report = model.check_feasible(ctx, res.decision)
        assert report.ok, report.violations

    def test_dominates_lattice_samples(self):
        # independent cross-check: the reported optimum beats random feasible
        # cells drawn from the same axes
        ctx = tiny_ctx()
        res = grid_joint(ctx, 9)
        axes = dict(zip(("power", "compute", "start", "ratio"), grid_axes(ctx, 9)))
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(400):
            cand = SlotDecision(
                np.array([rng.choice(axes["power"])]),
                np.array([rng.choice(axes["compute"])]),
                np.array([rng.choice(axes["start"])]),
                np.array([rng.choice(axes["ratio"])]))
            if not model.check_feasible(ctx, cand).ok:
                continue
            obj = model.slot_objective_mbit(ctx, cand)
            assert res.best_obj_mbit >= obj - 1e-9
            checked += 1
        assert checked >= 30

    def test_two_uav_budget_respected(self):
        ctx = make_ctx(sum_d=np.array([8e5, 6e5]), l_off=np.array([0.3, 0.25]))
        res = grid_joint(ctx, 6)
        assert res.feasible
        assert np.sum(res.decision.f_leo) <= ctx.leo_cpu_hz * (1 + 1e-9)
