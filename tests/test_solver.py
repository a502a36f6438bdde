"""Solver tests: the four coordinate blocks, the alternating slot solve,
and the horizon runner."""

import math
import warnings

import numpy as np
import pytest

from jcorm import model
from jcorm.baselines import solve_slot_atsm
from jcorm.config import ScenarioConfig
from jcorm.harness import run_experiment
from jcorm.model import SlotDecision
from jcorm.oracle import grid_sp1
from jcorm.scenario import ContextStack, build_slot_context, generate_scenario
from jcorm.solver import (fallback_decision, run_horizon, run_horizons, solve_slot_jcorm,
                          solve_sp1_power, solve_sp2_compute, solve_sp3_start_time,
                          solve_sp4_ratio, sp3_bounds)

from conftest import make_ctx, scenario_ctx


def required_power(ctx, f, dt, gm, u):
    """Scalar reference for SP1: the lowest power whose rate carries the
    offloaded Mbit through the deadline slack, before the power box; inf
    when no slack is left."""
    slack = (float(dt) - float(ctx.l_off[u])
             - ctx.cycles_per_bit * float(gm) * float(ctx.sum_d[u]) / float(f)
             - 2.0 * ctx.l_prop)
    if slack <= 0.0:
        return math.inf
    b_n = ctx.leo_bandwidth_hz / 1e6 / ctx.num_uavs
    demand = float(gm) * (float(ctx.sum_d[u]) / 1e6)
    return (2.0 ** (demand / (slack * b_n)) - 1.0) / (float(ctx.sat_gain[u]) / ctx.noise_w)


# (seed, config overrides) under which the guards keep incumbents and SP1
# flags UAVs: large tasks, a tiny power box, a slow on-board CPU, short
# slots (the only case here where the last block, SP4, keeps incumbents)
GUARD_CASES = [(0, {"ds_size_min_bits": 8e6, "ds_size_max_bits": 12e6}),
               (1, {"ds_size_min_bits": 8e6, "ds_size_max_bits": 12e6,
                    "solver_mode": "strict"}),
               (2, {"pmax_w": 1e-4}),
               (0, {"uav_cpu_hz": 5e8}),
               (2, {"slot_seconds": 3.0})]


def reference_rotation(ctx, cfg, pinned_start=None):
    """The block rotation with every guard re-evaluating the incumbent's
    objective terms instead of carrying them between blocks. Returns the
    decision before any fallback and the per-pass objective trace."""
    def terms(p, f, dt, gm):
        return model.objective_terms(ctx, SlotDecision(p, f, dt, gm))

    def need(p, f, gm):
        return model.Evaluation(ctx, p, f, None, gm).need

    n = ctx.num_uavs
    p = np.full(n, ctx.pmax_w / 2.0)
    f = np.full(n, ctx.leo_cpu_hz / n)
    dt = np.full(n, ctx.slot_seconds / 2.0 if pinned_start is None else pinned_start)
    gm = np.where(ctx.sum_d <= 0.0, 0.0, 0.5)
    objs = []
    for _ in range(cfg.tol.i_max):
        p_cand, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, f, dt, gm))
        ok = (need(p, f, gm) <= dt + 1e-9) & (p <= ctx.pmax_w + 1e-12)
        keep = ok & (terms(p, f, dt, gm) > terms(p_cand, f, dt, gm))
        p = np.where(keep | bad, p, p_cand)

        f_cand, _, _ = solve_sp2_compute(ctx, model.Evaluation(ctx, p, None, dt, gm))
        ok = (need(p, f, gm) <= dt + 1e-9) & (f <= ctx.leo_cpu_hz + 1e-6)
        keep = ok & (terms(p, f, dt, gm) > terms(p, f_cand, dt, gm))
        f_new = np.where(keep, f, f_cand)
        f = f_cand if np.sum(f_new) > ctx.leo_cpu_hz * (1.0 + 1e-9) else f_new

        if pinned_start is None:
            ev = model.Evaluation(ctx, p, f, None, gm)
            dt_cand, _ = solve_sp3_start_time(ctx, ev, mode=cfg.solver_mode)
            lo, hi = sp3_bounds(ctx, ev, mode=cfg.solver_mode)
            ok = (dt >= lo - 1e-9) & (dt <= hi + 1e-9)
            keep = ok & (terms(p, f, dt, gm) > terms(p, f, dt_cand, gm))
            dt = np.where(keep, dt, dt_cand)

        gm_cand, _ = solve_sp4_ratio(ctx, model.Evaluation(ctx, p, f, dt, None))
        ok = need(p, f, gm) <= dt + 1e-9
        keep = ok & (terms(p, f, dt, gm) > terms(p, f, dt, gm_cand))
        gm = np.where(keep, gm, gm_cand)

        objs.append(float(np.sum(terms(p, f, dt, gm))) / 1e6)
        if len(objs) > 1 and abs(objs[-1] - objs[-2]) <= cfg.tol.tau_outer:
            break
    return SlotDecision(p, f, dt, gm), objs


def on_board(ctx):
    """Evaluation of the decision that offloads nothing: zero power,
    compute share and ratio."""
    z = np.zeros(ctx.num_uavs)
    return model.Evaluation(ctx, z, z, None, z)


def sat_slack(ctx, f, dt, gm):
    """Deadline room left for the transmit time."""
    return (dt - ctx.l_off - ctx.cycles_per_bit * gm * ctx.sum_d / np.maximum(f, 1e-300)
            - 2.0 * ctx.l_prop)


# ---------------------------------------------------------------------------
# SP1: power
# ---------------------------------------------------------------------------

class TestPower:
    def test_zero_ratio_gives_zero_power(self):
        ctx = make_ctx()
        p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, np.full(2, 5e9),
                                                       np.full(2, 5.0), np.zeros(2)))
        assert np.all(p == 0.0) and not np.any(bad)

    def test_zero_load_gives_zero_power(self):
        ctx = make_ctx(sum_d=np.zeros(2))
        p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, np.full(2, 5e9),
                                                       np.full(2, 5.0), np.full(2, 0.5)))
        assert np.all(p == 0.0) and not np.any(bad)

    def test_single_uav_fixture_matches_fine_grid(self):
        # 4 Mbit load, half offloaded, 5 s deadline, 5 GHz remote compute
        ctx = make_ctx(sum_d=np.array([4e6]), l_off=np.array([0.5]),
                       dt_dev_rate_sum=np.array([2e7]), r_tol_leo=np.array([5e7]),
                       sat_gain=np.array([3.33390087e-9]), l_prop=0.005773,
                       storage_free=np.array([8e9]))
        f = np.array([5e9])
        dt = np.array([5.0])
        gm = np.array([0.5])
        p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, f, dt, gm))
        assert not bad[0]
        oracle = grid_sp1(ctx, SlotDecision(p, f, dt, gm))
        assert oracle.feasible[0]
        rate = float(ctx.ds_rate(p)[0])
        solver_obj = ctx.omega * gm[0] * ctx.sum_d[0] * p[0] / rate
        assert solver_obj <= oracle.best_obj[0] + 1e-3

    def test_equals_required_power_exactly(self):
        rng = np.random.default_rng(5)
        checked = 0
        for seed in range(8):
            ctx, _ = scenario_ctx(seed=seed)
            n = ctx.num_uavs
            f = rng.uniform(0.5, 1.5, n) * 1e9
            dt = rng.uniform(4.0, 9.0, n)
            gm = rng.uniform(0.1, 0.8, n)
            p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, f, dt, gm))
            for u in range(n):
                p_req = required_power(ctx, f[u], dt[u], gm[u], u)
                if p_req > ctx.pmax_w * (1.0 + 1e-9):
                    assert bad[u] and p[u] == 0.0
                else:
                    assert not bad[u]
                    assert p[u] == min(p_req, ctx.pmax_w)
                    checked += 1
        assert checked >= 20

    def test_pmax_boundary(self):
        ctx = make_ctx()
        f, dt, gm = np.full(2, 5e9), np.full(2, 5.0), np.full(2, 0.5)
        p_req = np.array([required_power(ctx, f[u], dt[u], gm[u], u) for u in range(2)])
        # exactly at the box: the lowest power itself
        ctx.pmax_w = float(p_req[0])
        p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, f, dt, gm))
        assert not bad[0] and p[0] == p_req[0]
        # inside the 1e-9 tolerance: clipped to the box
        ctx.pmax_w = float(p_req[0]) / (1.0 + 0.5e-9)
        p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, f, dt, gm))
        assert not bad[0] and p[0] == ctx.pmax_w
        # beyond it: flagged, zero power
        ctx.pmax_w = float(p_req[0]) / (1.0 + 2e-9)
        p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, f, dt, gm))
        assert bad[0] and p[0] == 0.0

    def test_power_meets_deadline_within_box(self):
        rng = np.random.default_rng(6)
        for seed in range(6):
            ctx, _ = scenario_ctx(seed=seed)
            n = ctx.num_uavs
            f = rng.uniform(0.5, 1.5, n) * 1e9
            dt = rng.uniform(4.0, 9.0, n)
            gm = rng.uniform(0.1, 0.8, n)
            p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, f, dt, gm))
            ok = ~bad & (gm > 0)
            assert np.all(p >= 0.0) and np.all(p <= ctx.pmax_w + 1e-12)
            rate = ctx.ds_rate(p)
            slack = sat_slack(ctx, f, dt, gm)
            demand = gm * ctx.sum_d
            assert np.all(rate[ok] * slack[ok] >= demand[ok] * (1 - 1e-9))

    def test_impossible_deadline_flagged(self):
        ctx = make_ctx()
        p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, np.full(2, 5e9),
                                                       np.full(2, 0.6), np.ones(2)))
        # 0.6 s minus upload and round trip leaves too little for 4-6 Mbit
        assert np.all(bad)
        assert np.all(p == 0.0)

    def test_zero_compute_share_flagged(self):
        ctx = make_ctx()
        p, bad = solve_sp1_power(ctx, model.Evaluation(ctx, None, np.zeros(2),
                                                       np.full(2, 5.0), np.full(2, 0.5)))
        assert np.all(bad)


# ---------------------------------------------------------------------------
# SP2: compute share
# ---------------------------------------------------------------------------

class TestComputeShare:
    def test_zero_ratio_gives_zero_share(self):
        ctx = make_ctx()
        f, bad, scaled = solve_sp2_compute(ctx, model.Evaluation(ctx, np.full(2, 0.5), None,
                                                                 np.full(2, 5.0), np.zeros(2)))
        assert np.all(f == 0.0) and not np.any(bad) and not scaled

    def test_fixture_1_2_ghz(self):
        # 6 Mbit fully offloaded with exactly 2 s of compute slack
        ctx = make_ctx(sum_d=np.array([6e6, 0.0]))
        p = np.array([0.5, 0.0])
        gm = np.array([1.0, 0.0])
        l_comm = gm[0] * ctx.sum_d[0] / float(ctx.ds_rate(p)[0])
        dt = np.array([ctx.l_off[0] + l_comm + 2 * ctx.l_prop + 2.0, 5.0])
        f, bad, scaled = solve_sp2_compute(ctx, model.Evaluation(ctx, p, None, dt, gm))
        assert f[0] == pytest.approx(1.2e9, rel=1e-9)
        assert not bad[0] and not scaled

    def test_share_makes_deadline_tight(self):
        ctx, _ = scenario_ctx(seed=3)
        n = ctx.num_uavs
        p = np.full(n, 0.5)
        dt = np.full(n, 6.0)
        gm = np.full(n, 0.3)
        f, bad, scaled = solve_sp2_compute(ctx, model.Evaluation(ctx, p, None, dt, gm))
        live = ~bad & (gm > 0) & ~scaled & (f < ctx.leo_cpu_hz)
        sat = model.Evaluation(ctx, p, f, None, gm).sat
        assert np.allclose(sat[live], dt[live], rtol=1e-9, atol=1e-9)

    def test_singular_deadline_clamps_and_flags(self):
        ctx = make_ctx()
        dt = ctx.l_off.copy()          # no room for transmit or compute at all
        f, bad, scaled = solve_sp2_compute(ctx, model.Evaluation(ctx, np.full(2, 0.5), None,
                                                                 dt, np.ones(2)))
        assert np.all(bad)
        # both UAVs get best-effort pool shares, rescaled to fit jointly
        assert scaled
        assert np.sum(f) == pytest.approx(ctx.leo_cpu_hz)
        assert np.all(f > 0.0)

    def test_pool_overflow_scales_down(self):
        # two UAVs each needing more than half the pool
        ctx = make_ctx(sum_d=np.array([60e6, 60e6]), l_off=np.array([0.1, 0.1]))
        p = np.full(2, 1.0)
        gm = np.ones(2)
        l_comm = gm * ctx.sum_d / ctx.ds_rate(p)
        dt = ctx.l_off + l_comm + 2 * ctx.l_prop + 400.0 * ctx.sum_d / 8e9
        f, bad, scaled = solve_sp2_compute(ctx, model.Evaluation(ctx, p, None, dt, gm))
        assert scaled
        assert np.sum(f) <= ctx.leo_cpu_hz * (1 + 1e-9)


# ---------------------------------------------------------------------------
# SP3: forwarding start
# ---------------------------------------------------------------------------

class TestStartTime:
    def test_waiting_pays_starts_late(self):
        # forwarding is a net loss when omega * DT power exceeds the DT rate
        ctx = make_ctx(r_tol_leo=np.array([5.0, 5.0]))
        dt, empty = solve_sp3_start_time(ctx, on_board(ctx))
        assert not np.any(empty)
        _, hi = sp3_bounds(ctx, on_board(ctx))
        assert np.allclose(dt, np.minimum(hi, 10.0))

    def test_storage_limits_late_start(self):
        ctx = make_ctx(r_tol_leo=np.array([5.0, 5.0]),
                       storage_free=np.array([4e7, 8e9]))
        dt, _ = solve_sp3_start_time(ctx, on_board(ctx))
        assert dt[0] == pytest.approx(4e7 / 2e7)   # free / collection rate
        assert dt[1] == pytest.approx(10.0)

    def test_forwarding_pays_starts_at_lower_bound(self):
        # empty backlog, zero DS load: the backlog bound alone drives the start
        ctx = make_ctx(sum_d=np.zeros(2), l_off=np.zeros(2),
                       storage_free=np.full(2, 1.2e10))
        dt, empty = solve_sp3_start_time(ctx, on_board(ctx))
        assert not np.any(empty)
        expect = ctx.r_tol_leo * 10.0 / (ctx.r_tol_leo + ctx.dt_dev_rate_sum)
        assert np.allclose(dt, expect)

    def test_deadline_floors_early_start(self):
        ctx = make_ctx()
        p = np.full(2, 0.5)
        f = np.full(2, 5e9)
        gm = np.zeros(2)
        ev = model.Evaluation(ctx, p, f, None, gm)
        dt, _ = solve_sp3_start_time(ctx, ev)
        local = ev.local
        assert np.all(dt >= local - 1e-9)

    def test_relaxed_bound_below_strict_when_offloading(self):
        ctx, _ = scenario_ctx(seed=1)
        n = ctx.num_uavs
        p = np.full(n, 0.5)
        f = np.full(n, 1.5e9)
        gm = np.full(n, 0.5)
        ev = model.Evaluation(ctx, p, f, None, gm)
        lo_rel, _ = sp3_bounds(ctx, ev, mode="paper-relaxed")
        lo_str, _ = sp3_bounds(ctx, ev, mode="strict")
        assert np.all(lo_rel <= lo_str + 1e-12)

    def test_relaxed_equals_strict_without_offloading(self):
        ctx, _ = scenario_ctx(seed=1)
        n = ctx.num_uavs
        z = np.zeros(n)
        ev = model.Evaluation(ctx, z, z, None, z)
        lo_rel, hi_rel = sp3_bounds(ctx, ev, mode="paper-relaxed")
        lo_str, hi_str = sp3_bounds(ctx, ev, mode="strict")
        assert np.allclose(lo_rel, lo_str) and np.allclose(hi_rel, hi_str)

    def test_empty_interval_flagged(self):
        # backlog forces a start later than storage allows
        ctx = make_ctx(r_tol_leo=np.array([5e9, 5e9]),
                       storage_free=np.array([1e5, 1e5]),
                       sum_d=np.zeros(2), l_off=np.zeros(2))
        dt, empty = solve_sp3_start_time(ctx, on_board(ctx))
        assert np.all(empty)
        assert np.all(dt == ctx.slot_seconds)

    def test_no_offload_lower_end_is_onboard_bound(self):
        # at gamma = 0 both modes' lower end is exactly the on-board bound
        # (or the backlog bound where that is later)
        for ctx in (make_ctx(), make_ctx(storage_free=np.array([1.2e10, 1.19e10])),
                    scenario_ctx(seed=1)[0]):
            z = np.zeros(ctx.num_uavs)
            local = model.Evaluation(ctx, z, z, None, z).local
            used = ctx.storage_capacity - ctx.storage_free
            backlog = ((ctx.r_tol_leo * ctx.slot_seconds - used)
                       / (ctx.r_tol_leo + ctx.dt_dev_rate_sum))
            expect = np.maximum.reduce([np.zeros(ctx.num_uavs), backlog, local])
            for mode in ("strict", "paper-relaxed"):
                lo, _ = sp3_bounds(ctx, model.Evaluation(ctx, z, z, None, z), mode=mode)
                assert np.array_equal(lo, expect)


# ---------------------------------------------------------------------------
# SP4: offload ratio
# ---------------------------------------------------------------------------

class TestRatio:
    def test_remote_at_uav_speed_keeps_work_local(self):
        # compute-energy terms cancel, transmit cost remains: lower end wins
        ctx = make_ctx()
        gm, empty = solve_sp4_ratio(ctx, model.Evaluation(ctx, np.full(2, 0.5), np.full(2, 2e9),
                                                          np.full(2, 8.0), None))
        g_min = 1.0 + (ctx.l_off - 8.0) / (400.0 * ctx.sum_d / 2e9)
        assert not np.any(empty)
        assert np.allclose(gm, np.clip(g_min, 0.0, 1.0))

    def test_cheap_link_offloads_to_upper_bound(self):
        ctx = make_ctx()
        p = np.full(2, 1e-6)
        f = np.full(2, 1e9)
        dt = np.full(2, 9.0)
        gm, empty = solve_sp4_ratio(ctx, model.Evaluation(ctx, p, f, dt, None))
        rate = ctx.ds_rate(p)
        g_max = (dt - 2 * ctx.l_prop - ctx.l_off) / ((1 / rate + 400.0 / f) * ctx.sum_d)
        assert not np.any(empty)
        assert np.allclose(gm, np.clip(g_max, 0.0, 1.0))

    def test_zero_power_collapses_interval(self):
        ctx = make_ctx()
        gm, empty = solve_sp4_ratio(ctx, model.Evaluation(ctx, np.zeros(2), np.zeros(2),
                                                          np.full(2, 8.0), None))
        g_min = np.clip(1.0 + (ctx.l_off - 8.0) / (400.0 * ctx.sum_d / 2e9), 0.0, 1.0)
        assert np.allclose(gm, g_min)

    def test_empty_interval_flagged(self):
        # deadline too tight for the local branch at gamma_min yet the link
        # cannot carry gamma_min either
        ctx = make_ctx(sum_d=np.array([6e7, 6e7]))
        p = np.full(2, 1e-9)    # rate barely above zero
        f = np.full(2, 1e6)
        dt = np.full(2, 9.0)
        gm, empty = solve_sp4_ratio(ctx, model.Evaluation(ctx, p, f, dt, None))
        assert np.all(empty)
        g_min = np.clip(1.0 + (ctx.l_off - dt) / (400.0 * ctx.sum_d / 2e9), 0.0, 1.0)
        assert np.allclose(gm, g_min)

    def test_zero_load_stays_zero(self):
        ctx = make_ctx(sum_d=np.zeros(2))
        gm, empty = solve_sp4_ratio(ctx, model.Evaluation(ctx, np.full(2, 0.5), np.full(2, 1e9),
                                                          np.full(2, 5.0), None))
        assert np.all(gm == 0.0) and not np.any(empty)

    def test_ratio_respects_deadline(self):
        rng = np.random.default_rng(9)
        for seed in range(6):
            ctx, _ = scenario_ctx(seed=seed)
            n = ctx.num_uavs
            p = rng.uniform(0.2, 1.0, n)
            f = rng.uniform(0.5, 1.5, n) * 1e9
            dt = rng.uniform(5.0, 9.5, n)
            gm, empty = solve_sp4_ratio(ctx, model.Evaluation(ctx, p, f, dt, None))
            live = ~empty
            ev = model.Evaluation(ctx, p, f, None, gm)
            local, sat = ev.local, ev.sat
            assert np.all(np.maximum(local, sat)[live] <= dt[live] + 1e-6)


# ---------------------------------------------------------------------------
# the alternating slot solver
# ---------------------------------------------------------------------------

class TestSlotSolve:
    def test_trace_monotone_and_converges(self):
        for seed in range(4):
            ctx, cfg = scenario_ctx(seed=seed)
            _, trace = solve_slot_jcorm(ctx, cfg)
            obj = np.array(trace.objective_mbit)
            assert trace.converged
            assert trace.iterations <= cfg.tol.i_max
            assert np.all(np.diff(obj) >= -1e-9)
            assert trace.monotone_ok

    def test_decision_feasible(self):
        for seed in range(4):
            ctx, cfg = scenario_ctx(seed=seed)
            decision, trace = solve_slot_jcorm(ctx, cfg)
            assert not trace.fallback
            report = model.check_feasible(ctx, decision)
            assert report.ok, report.violations

    def test_deterministic(self):
        ctx, cfg = scenario_ctx(seed=7)
        d1, t1 = solve_slot_jcorm(ctx, cfg)
        d2, t2 = solve_slot_jcorm(ctx, cfg)
        for a, b in ((d1.power, d2.power), (d1.f_leo, d2.f_leo),
                     (d1.delta_tol, d2.delta_tol), (d1.gamma, d2.gamma)):
            assert np.array_equal(a, b)
        assert t1.objective_mbit == t2.objective_mbit

    def test_degenerate_load_keeps_ratio_zero(self):
        ctx = make_ctx(sum_d=np.zeros(2), l_off=np.zeros(2))
        cfg = ScenarioConfig(num_uavs=2)
        decision, trace = solve_slot_jcorm(ctx, cfg)
        assert np.all(decision.gamma == 0.0)
        assert np.all(decision.power == 0.0)
        assert not trace.fallback

    def test_impossible_slot_falls_back(self):
        # device upload alone exceeds the slot: nothing can be feasible
        ctx = make_ctx(l_off=np.array([50.0, 50.0]))
        cfg = ScenarioConfig(num_uavs=2)
        decision, trace = solve_slot_jcorm(ctx, cfg)
        assert trace.fallback
        fb = fallback_decision(ctx)
        assert np.array_equal(decision.delta_tol, fb.delta_tol)
        assert np.all(decision.gamma == 0.0)

    def test_strict_mode_iterates_feasibly(self):
        ctx, cfg = scenario_ctx(seed=4, solver_mode="strict")
        decision, trace = solve_slot_jcorm(ctx, cfg)
        assert not trace.fallback
        ev = model.Evaluation.of(ctx, decision)
        local, sat = ev.local, ev.sat
        assert np.all(np.maximum(local, sat) <= decision.delta_tol + 1e-9)

    def test_pass_objective_equals_slot_objective(self):
        # the rotation carries per-UAV terms across blocks instead of
        # re-evaluating them; they must never drift from the decision's
        checked = 0
        for seed, overrides in [(s, {}) for s in range(5)] + GUARD_CASES:
            cfg = ScenarioConfig(seed=seed, **overrides)
            state = generate_scenario(cfg, seed)
            for solver in (solve_slot_jcorm, solve_slot_atsm):
                result = run_horizon(cfg, state, solver)
                free = np.full(cfg.num_uavs, cfg.storage_initial_free_bits)
                for t, (decision, trace) in enumerate(zip(result.decisions, result.traces)):
                    ctx = build_slot_context(cfg, state, t, free)
                    free = result.slot_metrics[t].next_free
                    if trace.fallback:
                        continue
                    assert trace.objective_mbit[-1] == model.slot_objective_mbit(ctx, decision)
                    checked += 1
        assert checked >= 150

    def test_matches_reevaluating_reference(self):
        # carried terms must leave every guard outcome unchanged: the same
        # decisions and objective traces as re-evaluating at each block
        for seed, overrides in [(0, {}), (1, {"solver_mode": "strict"})] + GUARD_CASES:
            cfg = ScenarioConfig(seed=seed, **overrides)
            state = generate_scenario(cfg, seed)
            free = np.full(cfg.num_uavs, cfg.storage_initial_free_bits)
            for t in range(cfg.num_slots):
                ctx = build_slot_context(cfg, state, t, free)
                for solver, pin in ((solve_slot_atsm, ctx.slot_seconds / 2.0),
                                    (solve_slot_jcorm, None)):
                    decision, trace = solver(ctx, cfg)
                    ref, objs = reference_rotation(ctx, cfg, pin)
                    assert trace.objective_mbit == objs
                    if not trace.fallback:
                        for a, b in ((decision.power, ref.power), (decision.f_leo, ref.f_leo),
                                     (decision.delta_tol, ref.delta_tol),
                                     (decision.gamma, ref.gamma)):
                            assert np.array_equal(a, b)
                free = model.meter_slot(ctx, decision).next_free   # jcorm's

    @staticmethod
    def record_carried(monkeypatch):
        """Every evaluation the rotation carries: each block ends by merging
        its candidate into the incumbent's evaluation."""
        carried = []
        real = model.Evaluation.merged

        def merged(self, keep, other):
            out = real(self, keep, other)
            carried.append(out)
            return out

        monkeypatch.setattr(model.Evaluation, "merged", merged)
        return carried

    @staticmethod
    def assert_fresh(ev):
        """Every part the carried evaluation holds equals, bit for bit, the
        same part of a fresh evaluation of its decision. Returns their
        names."""
        fresh = model.Evaluation(ev.ctx, ev.power, ev.f_leo, ev.delta_tol, ev.gamma)
        held = [name for name in vars(ev) if name != "ctx"]
        for name in held:
            value, want = getattr(ev, name), getattr(fresh, name)
            assert (value.shape, value.dtype, value.tobytes()) == \
                (want.shape, want.dtype, want.tobytes()), name
        return held

    def test_carried_evaluation_never_drifts(self, monkeypatch):
        cases = [(0, {}), (1, {"solver_mode": "strict"})] + GUARD_CASES
        carried = self.record_carried(monkeypatch)
        blocks = 0
        # 1-D contexts, the start block run (jcorm) and pinned (atsm): a
        # plain callable keeps run_horizon on one call per slot
        for seed, overrides in cases:
            cfg = ScenarioConfig(seed=seed, **overrides)
            state = generate_scenario(cfg, seed)
            for solver in (solve_slot_jcorm, solve_slot_atsm):
                result = run_horizon(cfg, state, lambda ctx, c: solver(ctx, c))
                blocks += sum(t.iterations * (3 if solver is solve_slot_atsm else 4)
                              for t in result.traces)
        # (B, U) contexts: the cells of each mode as one stack, with rows
        # that settle at different passes
        for mode in ("paper-relaxed", "strict"):
            cfgs = [ScenarioConfig(seed=seed, solver_mode=mode, **{
                k: v for k, v in overrides.items() if k != "solver_mode"})
                for seed, overrides in cases]
            states = [generate_scenario(c, c.seed) for c in cfgs]
            for solver in (solve_slot_jcorm, solve_slot_atsm):
                run_horizons(cfgs, states, solver)
        assert len(carried) >= blocks > 1000
        checked = set()
        for ev in carried:
            checked.update(self.assert_fresh(ev))
        # every part was carried through some merge
        assert checked >= set(model._REACHES["power"] + model._REACHES["f_leo"]
                               + model._REACHES["delta_tol"] + model._REACHES["gamma"])

    def test_rate_computed_at_most_twice_per_pass(self, monkeypatch):
        calls = []
        real = model.shannon_rate
        ctxs = [scenario_ctx(seed=seed)[0] for seed in range(4)]
        cfgs = [ScenarioConfig(seed=seed) for seed in range(4)]
        states = [generate_scenario(c, c.seed) for c in cfgs]
        stack = ContextStack(cfgs, states)
        ctxs.append(stack.slot(0, stack.initial_free))
        monkeypatch.setattr(model, "shannon_rate", lambda *a: calls.append(1) or real(*a))
        for ctx in ctxs:
            for solver in (solve_slot_jcorm, solve_slot_atsm):
                calls.clear()
                _, trace = solver(ctx, cfgs[0])
                passes = np.max(trace.iterations)
                assert passes >= 2
                assert len(calls) <= 2 * passes

    def test_zero_energy_price_completes(self):
        for algo in ("jcorm", "atsm"):
            result = run_experiment(ScenarioConfig(algo=algo, omega=0.0))
            assert np.isfinite(result.utility_bits)
            assert result.infeasible_slots == []

    def test_large_fleet_raises_no_runtime_warning(self):
        # a tiny per-UAV band share overflows SP1's exponent; the result is
        # flagged infeasible without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_experiment(ScenarioConfig(num_uavs=96, algo="atsm", seed=6))
        assert np.isfinite(result.utility_bits)

    def test_fallback_decision_shape(self):
        ctx = make_ctx()
        fb = fallback_decision(ctx)
        assert np.all(fb.power == 0.0) and np.all(fb.gamma == 0.0)
        local = model.Evaluation.of(ctx, fb).local
        assert np.all(fb.delta_tol >= np.minimum(local, ctx.slot_seconds) - 1e-12)


# ---------------------------------------------------------------------------
# horizon runner
# ---------------------------------------------------------------------------

class TestHorizon:
    def test_empty_horizon(self):
        cfg = ScenarioConfig(num_slots=0, seed=0)
        from jcorm.scenario import generate_scenario
        state = generate_scenario(cfg, 0)
        result = run_horizon(cfg, state, solve_slot_jcorm)
        assert result.utility_bits == 0.0
        assert result.slot_metrics == []

    def test_utility_accumulates(self):
        cfg = ScenarioConfig(seed=5)
        from jcorm.scenario import generate_scenario
        state = generate_scenario(cfg, 5)
        result = run_horizon(cfg, state, solve_slot_jcorm)
        assert result.utility_bits == pytest.approx(
            sum(m.utility_bits for m in result.slot_metrics))
        assert result.utility_bits > 0.0
        cum = np.cumsum([m.utility_bits for m in result.slot_metrics])
        assert np.all(np.diff(cum) > 0.0)

    def test_deterministic(self):
        cfg = ScenarioConfig(seed=6)
        from jcorm.scenario import generate_scenario
        state = generate_scenario(cfg, 6)
        r1 = run_horizon(cfg, state, solve_slot_jcorm)
        r2 = run_horizon(cfg, state, solve_slot_jcorm)
        assert r1.utility_bits == r2.utility_bits
        for m1, m2 in zip(r1.slot_metrics, r2.slot_metrics):
            assert np.array_equal(m1.next_free, m2.next_free)

    def test_storage_threads_between_slots(self):
        cfg = ScenarioConfig(seed=8, num_slots=4)
        from jcorm.scenario import generate_scenario, build_slot_context
        state = generate_scenario(cfg, 8)
        result = run_horizon(cfg, state, solve_slot_jcorm)
        free = np.full(cfg.num_uavs, cfg.storage_initial_free_bits)
        for t, decision in enumerate(result.decisions):
            ctx = build_slot_context(cfg, state, t, free)
            metrics = model.meter_slot(ctx, decision)
            assert np.allclose(metrics.next_free, result.slot_metrics[t].next_free)
            free = metrics.next_free
