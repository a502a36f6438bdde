"""End-to-end acceptance checks for the whole package.

Each test covers one advertised guarantee, prints a single [PASS]/[FAIL]
line with the measured numbers, and asserts it. Run with -v to see one
line per criterion."""

import numpy as np

from jcorm import model
from jcorm.config import ScenarioConfig, ToleranceConfig
from jcorm.harness import run_experiment, run_sweep
from jcorm.model import SlotDecision, dt_collection_step
from jcorm.oracle import grid_axes, grid_joint, grid_sp1, grid_sp2, grid_sp3, grid_sp4
from jcorm.scenario import build_slot_context, generate_scenario
from jcorm.solver import (run_horizon, solve_slot_jcorm, solve_sp1_power,
                          solve_sp2_compute, solve_sp3_start_time, solve_sp4_ratio)

import conftest
from conftest import random_fixed_decision, scenario_ctx


TOL = ToleranceConfig()


def report(label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. every block solution matches an independent grid search
# ---------------------------------------------------------------------------

def test_criterion_1_blocks_match_grid_references():
    rng = np.random.default_rng(101)
    counts = {"power": 0, "compute": 0, "start": 0, "ratio": 0}
    worst = {k: 0.0 for k in counts}
    bad = 0
    seed = 0
    while min(counts.values()) < 100:
        assert seed < 80, f"could not gather 100 live instances: {counts}"
        ctx, _ = scenario_ctx(seed=seed, slot=seed % 10)
        fixed = random_fixed_decision(ctx, rng)

        p, p_bad = solve_sp1_power(ctx, model.Evaluation.of(ctx, fixed))
        res = grid_sp1(ctx, fixed)
        live = res.feasible & ~p_bad & (fixed.gamma > 0)
        rate = ctx.ds_rate(p)
        obj = np.where(rate > 0, ctx.omega * fixed.gamma * ctx.sum_d * p
                       / np.maximum(rate, 1e-300), 0.0)
        gap = obj[live] - res.best_obj[live]
        bad += int(np.sum(gap > 1e-3))
        if gap.size:
            worst["power"] = max(worst["power"], float(np.max(gap)))
        counts["power"] += int(np.sum(live))

        f, f_bad, scaled = solve_sp2_compute(ctx, model.Evaluation.of(ctx, fixed))
        if not scaled:
            res = grid_sp2(ctx, fixed)
            live = res.feasible & ~f_bad & (fixed.gamma > 0)
            obj = (ctx.omega * ctx.cycles_per_bit * ctx.switch_cap
                   * fixed.gamma * ctx.sum_d * f ** 2)
            gap = obj[live] - res.best_obj[live]
            bad += int(np.sum(gap > 1e-3))
            if gap.size:
                worst["compute"] = max(worst["compute"], float(np.max(gap)))
            counts["compute"] += int(np.sum(live))

        dt, dt_empty = solve_sp3_start_time(ctx, model.Evaluation.of(ctx, fixed))
        res = grid_sp3(ctx, fixed)
        live = res.feasible & ~dt_empty
        terms = model.objective_terms(
            ctx, SlotDecision(fixed.power, fixed.f_leo, dt, fixed.gamma))
        gap = res.best_obj[live] / 1e6 - terms[live] / 1e6
        bad += int(np.sum(gap > 1e-3))
        if gap.size:
            worst["start"] = max(worst["start"], float(np.max(gap)))
        counts["start"] += int(np.sum(live))

        gm, gm_empty = solve_sp4_ratio(ctx, model.Evaluation.of(ctx, fixed))
        res = grid_sp4(ctx, fixed)
        live = res.feasible & ~gm_empty
        terms = model.objective_terms(
            ctx, SlotDecision(fixed.power, fixed.f_leo, fixed.delta_tol, gm))
        gap = res.best_obj[live] / 1e6 - terms[live] / 1e6
        bad += int(np.sum(gap > 1e-3))
        if gap.size:
            worst["ratio"] = max(worst["ratio"], float(np.max(gap)))
        counts["ratio"] += int(np.sum(live))
        seed += 1

    detail = (f"instances {counts}, worst gaps "
              + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    report("criterion 1: block solutions match grid references", bad == 0, detail)


# ---------------------------------------------------------------------------
# 2. near joint-grid optimal on small unimodal instances
# ---------------------------------------------------------------------------

def _feasible_run_unimodal(vals, ok_mask, center):
    """Unimodality of vals over the contiguous feasible run containing
    center (True when nothing feasible around the center)."""
    if not ok_mask[center]:
        return True
    lo = center
    while lo > 0 and ok_mask[lo - 1]:
        lo -= 1
    hi = center
    while hi + 1 < len(vals) and ok_mask[hi + 1]:
        hi += 1
    run = vals[lo:hi + 1]
    rising = True
    for d in np.diff(run):
        if rising and d < -1e-6:
            rising = False
        elif not rising and d > 1e-6:
            return False
    return True


def test_criterion_2_near_optimal_on_small_unimodal_instances():
    points = 15
    accepted = 0
    failures = []
    worst_ratio = 1.0
    seed = 0
    while accepted < 20:
        assert seed < 120, f"only {accepted} unimodal instances in {seed} seeds"
        cfg = ScenarioConfig(num_uavs=2, k_sens_min=1, k_sens_max=2,
                             ds_size_min_bits=3e5, ds_size_max_bits=8e5,
                             seed=seed)
        state = generate_scenario(cfg, seed)
        ctx = build_slot_context(cfg, state, 0,
                                 np.full(2, cfg.storage_initial_free_bits))
        seed += 1
        oracle = grid_joint(ctx, points)
        if not oracle.feasible or oracle.best_obj_mbit <= 0.0:
            continue

        axes = [("power", oracle.decision.power),
                ("compute", oracle.decision.f_leo),
                ("start", oracle.decision.delta_tol),
                ("ratio", oracle.decision.gamma)]
        unimodal = True
        for (name, best_vec), grid_vals in zip(axes, grid_axes(ctx, points)):
            for u in range(2):
                center = int(np.argmin(np.abs(grid_vals - best_vec[u])))
                vals = np.empty(points)
                okm = np.zeros(points, dtype=bool)
                for i, v in enumerate(grid_vals):
                    cand = SlotDecision(oracle.decision.power.copy(),
                                        oracle.decision.f_leo.copy(),
                                        oracle.decision.delta_tol.copy(),
                                        oracle.decision.gamma.copy())
                    (cand.power, cand.f_leo, cand.delta_tol,
                     cand.gamma)[("power", "compute", "start",
                                  "ratio").index(name)][u] = v
                    okm[i] = model.check_feasible(ctx, cand).ok
                    vals[i] = model.slot_objective_mbit(ctx, cand)
                if not _feasible_run_unimodal(vals, okm, center):
                    unimodal = False
        if not unimodal:
            continue

        accepted += 1
        decision, trace = solve_slot_jcorm(ctx, cfg)
        solver_obj = model.slot_objective_mbit(ctx, decision)
        ratio = solver_obj / oracle.best_obj_mbit
        worst_ratio = min(worst_ratio, ratio)
        if trace.fallback or not model.check_feasible(ctx, decision).ok:
            failures.append((seed - 1, "infeasible"))
        elif solver_obj < oracle.best_obj_mbit * (1.0 - 0.02):
            failures.append((seed - 1, f"ratio {ratio:.4f}"))

    report("criterion 2: within 2% of the joint grid on small unimodal instances",
           not failures,
           f"20 instances, worst solver/grid ratio {worst_ratio:.4f}"
           + (f", failures {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# 3. the rotation improves monotonically and converges
# ---------------------------------------------------------------------------

def test_criterion_3_monotone_convergence():
    worst_dip = 0.0
    max_iters = 0
    ok = True
    for seed in range(5):
        cfg = ScenarioConfig(seed=seed)
        state = generate_scenario(cfg, seed)
        result = run_horizon(cfg, state, solve_slot_jcorm)
        for trace in result.traces:
            obj = np.array(trace.objective_mbit)
            dips = np.diff(obj)
            if dips.size:
                worst_dip = min(worst_dip, float(np.min(dips)))
            max_iters = max(max_iters, trace.iterations)
            if not trace.converged or trace.iterations > cfg.tol.i_max:
                ok = False
            if dips.size and np.min(dips) < -1e-9:
                ok = False
    report("criterion 3: per-slot objective non-decreasing and convergent",
           ok, f"worst step {worst_dip:.2e} Mbit, max iterations {max_iters}")


# ---------------------------------------------------------------------------
# 4. strict mode never leaves the feasible set on non-flagged slots
# ---------------------------------------------------------------------------

def test_criterion_4_strict_mode_feasible_iterates():
    violations = 0
    slots = 0
    for seed in range(3):
        cfg = ScenarioConfig(seed=seed, solver_mode="strict")
        state = generate_scenario(cfg, seed)
        result = run_horizon(cfg, state, solve_slot_jcorm)
        free = np.full(cfg.num_uavs, cfg.storage_initial_free_bits)
        for t, (decision, trace) in enumerate(zip(result.decisions,
                                                  result.traces)):
            ctx = build_slot_context(cfg, state, t, free)
            free = result.slot_metrics[t].next_free
            if trace.fallback:
                continue
            slots += 1
            ev = model.Evaluation.of(ctx, decision)
            local, sat = ev.local, ev.sat
            if np.any(np.maximum(local, sat) > decision.delta_tol + 1e-9):
                violations += 1
    report("criterion 4: strict mode meets every deadline bound",
           violations == 0, f"{slots} slots checked, {violations} violations")


# ---------------------------------------------------------------------------
# 5. beats the heuristics over paired seeds
# ---------------------------------------------------------------------------

def test_criterion_5_beats_heuristics_over_paired_seeds():
    seeds = range(20)
    means = {}
    for algo in ("jcorm", "ga", "atsm"):
        utils = []
        for seed in seeds:
            cfg = ScenarioConfig(seed=seed, algo=algo)
            utils.append(run_experiment(cfg).utility_bits)
        means[algo] = float(np.mean(utils))
    ok = (means["jcorm"] >= means["ga"]
          and means["jcorm"] >= 1.1 * means["atsm"])
    report("criterion 5: mean utility beats the genetic and half-slot baselines",
           ok, f"jcorm {means['jcorm']:.4g}, ga {means['ga']:.4g}, "
               f"atsm {means['atsm']:.4g} "
               f"(advantage over atsm {means['jcorm'] / means['atsm'] - 1:+.1%})")


# ---------------------------------------------------------------------------
# 6. utility and energy trends along the physical axes
# ---------------------------------------------------------------------------

def _trend_ok(values, direction, tie=0.01):
    values = list(values)
    for a, b in zip(values, values[1:]):
        if direction == "up" and b < a * (1.0 - tie):
            return False
        if direction == "down" and b > a * (1.0 + tie):
            return False
    return True


def test_criterion_6_axis_trends():
    base = ScenarioConfig()
    seeds = list(range(10))
    checks = []

    sweep = run_sweep(base, "leo_bandwidth_hz",
                      [20e6, 25e6, 30e6, 35e6, 40e6], seeds,
                      algorithms=["jcorm"])
    util = sweep.stat_metric("jcorm", "utility_bits", "mean")
    energy = sweep.stat_metric("jcorm", "energy_j", "mean")
    checks.append(("utility up with satellite bandwidth",
                   _trend_ok(util, "up"), util))
    checks.append(("energy down with satellite bandwidth",
                   _trend_ok(energy, "down"), energy))

    sweep = run_sweep(base, "rician_k0", [0.0, 5.0, 10.0], seeds,
                      algorithms=["jcorm"])
    util = sweep.stat_metric("jcorm", "utility_bits", "mean")
    checks.append(("utility up with line-of-sight factor",
                   _trend_ok(util, "up"), util))

    sweep = run_sweep(base, "omega", [0.01, 0.1, 1.0, 10.0], seeds,
                      algorithms=["jcorm"])
    util = sweep.stat_metric("jcorm", "utility_bits", "mean")
    checks.append(("utility down with energy price",
                   _trend_ok(util, "down"), util))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name}: {'ok' if good else 'BROKEN'} "
                       + np.array2string(np.array(vals), precision=3)
                       for name, good, vals in checks)
    report("criterion 6: mean utility and energy follow the axis trends",
           ok, detail)


# ---------------------------------------------------------------------------
# 7. offloading wins the sensing-delay comparison at heavy loads
# ---------------------------------------------------------------------------

def test_criterion_7_delay_beats_onboard_at_heavy_load():
    seeds = list(range(20))
    sweep = run_sweep(ScenarioConfig(), "ds_size_bits",
                      [1e6, 2e6, 3e6, 4e6, 5e6], seeds,
                      algorithms=["jcorm", "no-offload"])
    delays = {}
    for row in sweep.rows:
        if row["kind"] == "run" and row["value"] == 5e6:
            delays[(row["algorithm"], row["seed"])] = row["ds_delay_s"]
    wins = sum(1 for seed in seeds
               if delays[("jcorm", seed)] < delays[("no-offload", seed)])
    report("criterion 7: offloading cuts sensing delay at 5 Mbit tasks",
           wins >= 18, f"{wins}/20 seeds faster than on-board processing")


# ---------------------------------------------------------------------------
# 8. a default run is fast
# ---------------------------------------------------------------------------

def test_criterion_8_default_run_under_a_second():
    result = run_experiment(ScenarioConfig(seed=0))
    report("criterion 8: default run completes within one second",
           result.wall_seconds < 1.0, f"wall {result.wall_seconds:.3f} s")


# ---------------------------------------------------------------------------
# 9. storage bookkeeping never breaks its invariants
# ---------------------------------------------------------------------------

def test_criterion_9_storage_invariants_under_fuzz():
    rng = np.random.default_rng(909)
    bad = 0
    for _ in range(10_000):
        slot = 10.0
        cap = rng.uniform(1e6, 2e10)
        free = rng.uniform(0.0, cap)
        dev_rate = rng.uniform(0.0, 1e8)
        dt = rng.uniform(0.0, slot)
        r_tol = rng.uniform(0.0, 2e8)
        step = dt_collection_step(dev_rate, dt, slot, r_tol, free, cap)
        if not (0.0 <= step.next_free <= cap + 1e-6):
            bad += 1
        elif step.uplinked > step.collected + (cap - free) + 1e-3:
            bad += 1
        elif step.collected > dev_rate * dt + 1e-3:
            bad += 1
        elif step.uplinked > r_tol * (slot - dt) + 1e-3:
            bad += 1
    report("criterion 9: storage bookkeeping invariants hold under fuzz",
           bad == 0, f"10000 random steps, {bad} violations")
