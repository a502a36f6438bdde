"""Stacked solves: cells that share a fleet size, horizon and solver settings
are solved as one (B, U) rotation, and every cell must come out exactly as
its own 1-D run does."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from jcorm import harness, model
from jcorm.baselines import solve_slot_atsm, solve_slot_no_offload
from jcorm.cli import main
from jcorm.config import ConfigError, ScenarioConfig
from jcorm.model import SlotContext, SlotDecision
from jcorm.scenario import build_slot_context, generate_scenario
from jcorm.solver import run_horizon, run_horizons, solve_slot_jcorm

SOLVERS = {"jcorm": solve_slot_jcorm, "atsm": solve_slot_atsm,
           "no-offload": solve_slot_no_offload}
TRACE_FIELDS = ("objective_mbit", "iterations", "converged", "monotone_ok", "fallback",
                "sp1_infeasible", "sp2_infeasible", "sp3_empty", "sp4_empty",
                "budget_scaled")

# a clock whose square, x ** 2 (libm pow), differs from x * x in the last bit
CPU_HZ_POW_DIFFERS = 1700000000.0006988

# a buffer that is nearly full from the start, so slots fall back
TIGHT_BUFFER = dict(storage_capacity_bits=2e9, storage_initial_free_bits=1e8)


def assert_same_horizon(got, want):
    """Bit-for-bit equality of two horizons: decisions, every SlotMetrics
    field, and the solver trace (its timings aside)."""
    assert got.utility_bits == want.utility_bits
    assert got.infeasible_slots == want.infeasible_slots
    assert len(got.slot_metrics) == len(want.slot_metrics)
    for g, w in zip(got.decisions, want.decisions):
        for f in dataclasses.fields(SlotDecision):
            assert np.array_equal(getattr(g, f.name), getattr(w, f.name)), f.name
    for g, w in zip(got.slot_metrics, want.slot_metrics):
        for f in dataclasses.fields(model.SlotMetrics):
            assert np.array_equal(getattr(g, f.name), getattr(w, f.name)), f.name
    for g, w in zip(got.traces, want.traces):
        for name in TRACE_FIELDS:
            assert getattr(g, name) == getattr(w, name), name
        assert type(g.fallback) is bool


def assert_stacked_equals_serial(cfgs):
    """Run ``cfgs`` (one group) as one stacked horizon and each on its own."""
    states = [generate_scenario(cfg, cfg.seed) for cfg in cfgs]
    stacked = run_horizons(cfgs, states, SOLVERS[cfgs[0].algo])
    for cfg, state, got in zip(cfgs, states, stacked):
        assert_same_horizon(got, run_horizon(cfg, state, SOLVERS[cfg.algo]))
    return stacked


class TestStackedEqualsSerial:
    def test_bandwidth_sweep_cells_in_one_group(self):
        cfgs = [ScenarioConfig(leo_bandwidth_hz=band, seed=seed)
                for band in (20e6, 25e6, 30e6, 35e6, 40e6)
                for seed in range(9000, 9004)]
        assert_stacked_equals_serial(cfgs)

    @pytest.mark.parametrize("algo", ["jcorm", "no-offload"])
    @pytest.mark.parametrize("overrides", [
        dict(num_uavs=13), dict(num_uavs=96), dict(solver_mode="strict"),
    ], ids=["U=13", "U=96", "strict"])
    def test_fleet_sizes_and_modes(self, algo, overrides):
        assert_stacked_equals_serial([ScenarioConfig(algo=algo, seed=seed, **overrides)
                                      for seed in range(6)])

    @pytest.mark.parametrize("algo", ["jcorm", "no-offload"])
    def test_rows_with_different_scalars(self, algo):
        # one stack whose rows differ in the (B, 1) columns: energy price,
        # power cap, buffer, on-board clock
        variants = [dict(omega=1e3), dict(pmax_w=1e-4), TIGHT_BUFFER,
                    dict(uav_cpu_hz=CPU_HZ_POW_DIFFERS), {}]
        cfgs = [ScenarioConfig(algo=algo, seed=seed, **v)
                for v in variants for seed in range(6)]
        stacked = assert_stacked_equals_serial(cfgs)
        if algo == "jcorm":
            # the tight buffer makes some slots fall back, and not others
            fallbacks = [len(r.infeasible_slots) for r in stacked]
            assert 0 < sum(fallbacks) < len(cfgs) * cfgs[0].num_slots

    @pytest.mark.parametrize("overrides", [
        {}, dict(num_uavs=96), TIGHT_BUFFER,
        dict(pmax_w=1e-4, ds_size_min_bits=5e6, ds_size_max_bits=5e6),
    ], ids=["default", "U=96", "tight-buffer", "weak-radio-5Mbit"])
    def test_half_slot_baseline(self, overrides):
        stacked = assert_stacked_equals_serial(
            [ScenarioConfig(algo="atsm", seed=seed, **overrides) for seed in range(20)])
        if overrides.get("pmax_w"):
            assert any(r.infeasible_slots for r in stacked)


class TestStackedFeasibility:
    def test_stacked_report_equals_row_reports(self):
        rng = np.random.default_rng(3)
        ctxs, decisions = [], []
        for seed in range(8):
            cfg = ScenarioConfig(seed=seed, **(TIGHT_BUFFER if seed % 2 else {}))
            ctx = build_slot_context(cfg, generate_scenario(cfg, seed), seed % 3,
                                     np.full(cfg.num_uavs, cfg.storage_initial_free_bits))
            n = ctx.num_uavs
            if seed % 4 == 0:
                decisions.append(solve_slot_jcorm(ctx, cfg)[0])
            else:
                # boxes stretched past their limits, so that rows fail checks
                decisions.append(SlotDecision(rng.uniform(0, 1.2, n) * ctx.pmax_w,
                                              rng.uniform(0, 0.4, n) * ctx.leo_cpu_hz,
                                              rng.uniform(-0.1, 1.1, n) * ctx.slot_seconds,
                                              rng.uniform(-0.1, 1.1, n)))
            ctxs.append(ctx)
        stacked = SlotContext.stack(ctxs)
        stacked_decision = SlotDecision(*(np.stack([getattr(d, f.name) for d in decisions])
                                          for f in dataclasses.fields(SlotDecision)))
        report = model.check_feasible(stacked, stacked_decision)
        rows = [model.check_feasible(c, d) for c, d in zip(ctxs, decisions)]
        assert not all(r.ok for r in rows) and any(r.ok for r in rows)
        for name in ("box_ok", "budget_ok", "deadline_ok", "storage_ok", "backlog_ok", "ok"):
            assert getattr(report, name).tolist() == [getattr(r, name) for r in rows], name
        keys = set().union(*(r.violations for r in rows))
        assert set(report.violations) == keys
        for key in keys:
            for b, row in enumerate(rows):
                value = report.violations[key][b]
                if key not in row.violations:
                    assert not value or np.isnan(value)
                else:
                    assert value == row.violations[key]

    def test_energy_and_objective_equal_row_values(self):
        # rows with different on-board clocks, one whose square rounds
        # differently as x ** 2 and as x * x
        rng = np.random.default_rng(5)
        ctxs, decisions = [], []
        for seed, cpu_hz in enumerate((2e9, CPU_HZ_POW_DIFFERS, 1.3e9 + 7.0)):
            cfg = ScenarioConfig(seed=seed, uav_cpu_hz=cpu_hz)
            ctxs.append(build_slot_context(cfg, generate_scenario(cfg, seed), 0,
                                           np.full(cfg.num_uavs, 1e9)))
            decisions.append(SlotDecision(rng.uniform(0, 1, 6), rng.uniform(0, 2e9, 6),
                                          rng.uniform(1, 10, 6), rng.uniform(0, 1, 6)))
        stacked = SlotContext.stack(ctxs)
        stacked_decision = SlotDecision(*(np.stack([getattr(d, f.name) for d in decisions])
                                          for f in dataclasses.fields(SlotDecision)))
        energy = model.slot_energy(stacked, stacked_decision)
        terms = model.objective_terms(stacked, stacked_decision)
        for b, (ctx, d) in enumerate(zip(ctxs, decisions)):
            for got, want in zip(energy, model.slot_energy(ctx, d)):
                assert np.array_equal(got[b], want)
            assert np.array_equal(terms[b], model.objective_terms(ctx, d))

    def test_context_stack_round_trips(self):
        cfg = ScenarioConfig(num_uavs=3)
        state = generate_scenario(cfg, 0)
        ctxs = [build_slot_context(cfg, state, t, np.full(3, 1e8 * (t + 1))) for t in range(4)]
        stacked = SlotContext.stack(ctxs)
        assert stacked.num_uavs == 3
        for f in dataclasses.fields(SlotContext):
            value = getattr(stacked, f.name)
            assert value.shape[0] == 4 and value.shape[1] in (1, 3), f.name
            for b, ctx in enumerate(ctxs):
                row = value[b] if value.shape[1] == 3 else value[b, 0]
                assert np.array_equal(row, getattr(ctx, f.name)), f.name


# ---------------------------------------------------------------------------
# grouped sweeps against per-cell runs
# ---------------------------------------------------------------------------

AXES = {
    "leo_bandwidth_hz": st.floats(1e5, 1e8),
    "omega": st.floats(0.0, 1e4),
    "pmax_w": st.floats(1e-5, 10.0),
    "storage_capacity_bits": st.floats(0.0, 2e10),
    "ds_size_bits": st.floats(0.0, 1e7),
}


@st.composite
def sweeps(draw):
    cfg = ScenarioConfig(
        num_uavs=draw(st.integers(1, 7)),
        num_slots=draw(st.integers(0, 3)),
        slot_seconds=draw(st.floats(0.5, 20.0)),
        k_sens_max=draw(st.integers(1, 9)),
        k_tol_max=draw(st.integers(5, 12)),
        uav_cpu_hz=draw(st.floats(1e8, 1e10)),
        leo_cpu_hz=draw(st.floats(1e8, 1e11)),
        cycles_per_bit=draw(st.floats(10.0, 2000.0)),
        storage_initial_free_bits=draw(st.floats(0.0, 1.0)) * 1.5 * 8e9,
        solver_mode=draw(st.sampled_from(["strict", "paper-relaxed"])),
    )
    axis = draw(st.sampled_from(sorted(AXES)))
    values = draw(st.lists(AXES[axis], min_size=1, max_size=3))
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=3))
    algos = draw(st.lists(st.sampled_from(sorted(SOLVERS)), min_size=1, max_size=3,
                          unique=True))
    return cfg, axis, values, seeds, algos


class TestGroupedSweep:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(sweeps())
    def test_grouped_rows_equal_per_cell_rows(self, sweep):
        base, axis, values, seeds, algos = sweep
        cells = [harness.apply_axis(base, axis, v).copy(algo=a, seed=s)
                 for a in algos for v in values for s in seeds]
        try:
            for cfg in cells:
                cfg.validate()
        except ConfigError:
            assume(False)
        grouped = harness.run_sweep(base, axis, values, seeds, algorithms=algos)
        cell_values = [v for _ in algos for v in values for _ in seeds]
        serial = [row for cfg, v in zip(cells, cell_values)
                  for row in harness.result_rows(harness.run_experiment(cfg), axis, v)]
        serial.extend(harness.aggregate_rows(serial))
        assert grouped.rows == serial

    def test_sweep_workers_write_the_same_bytes(self, tmp_path):
        blobs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            args = ["sweep", "--axis", "leo_bandwidth_hz", "--values", "2e7,4e7",
                    "--seeds", "0,1,2", "--algos", "jcorm,no-offload,atsm",
                    "--workers", workers, "--out", str(out), "--format", "csv"]
            assert main(args) == 0
            blobs.append((out / "leo_bandwidth_hz.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_groups_split_at_the_stack_limit(self, monkeypatch):
        sizes = []
        real = harness.run_horizons

        def counting(cfgs, states, solver):
            sizes.append(len(cfgs))
            return real(cfgs, states, solver)

        monkeypatch.setattr(harness, "run_horizons", counting)
        monkeypatch.setattr(harness, "STACK_UAVS", 20)
        base = ScenarioConfig(num_slots=2)
        result = harness.run_compare(base, ["no-offload"], range(7))
        assert sizes == [3, 2, 2]   # at most 20 // 6 = 3 cells, in near-equal parts
        serial = [row for s in range(7) for row in harness.result_rows(
            harness.run_experiment(base.copy(algo="no-offload", seed=s)))]
        assert [r for r in result.rows if r["kind"] != "mean" and r["kind"] != "std"] == serial
