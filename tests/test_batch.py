"""Stacked solves: cells that share a fleet size, horizon and solver settings
are solved as one (B, U) rotation, and every cell must come out exactly as
its own 1-D run does."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from jcorm import harness, model, scenario
from jcorm.baselines import solve_slot_atsm, solve_slot_no_offload
from jcorm.cli import main
from jcorm.config import ConfigError, GaConfig, ScenarioConfig, ToleranceConfig
from jcorm.model import SlotContext, SlotDecision
from jcorm.scenario import build_slot_context, generate_scenario
from jcorm.solver import SlotSolveTrace, run_horizon, run_horizons, solve_slot_jcorm

from conftest import make_ctx

SOLVERS = {"jcorm": solve_slot_jcorm, "atsm": solve_slot_atsm,
           "no-offload": solve_slot_no_offload}
TRACE_FIELDS = ("objective_mbit", "iterations", "converged", "monotone_ok", "fallback",
                "sp1_infeasible", "sp2_infeasible", "sp3_empty", "sp4_empty",
                "budget_scaled", "violations")

# a clock whose square, x ** 2 (libm pow), differs from x * x in the last bit
CPU_HZ_POW_DIFFERS = 1700000000.0006988

# a buffer that is nearly full from the start, so slots fall back
TIGHT_BUFFER = dict(storage_capacity_bits=2e9, storage_initial_free_bits=1e8)


def assert_same_horizon(got, want):
    """Bit-for-bit equality of two horizons: the CSV figures and run
    totals, decisions, every SlotMetrics field, and the solver trace (its
    timings aside)."""
    assert got.figures.tobytes() == want.figures.tobytes()
    for name in ("utility_bits", "total_uplinked_bits", "total_energy_j", "mean_ds_delay_s"):
        assert type(getattr(got, name)) is float, name
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes()
    assert got.infeasible_slots == want.infeasible_slots
    assert len(got.slot_metrics) == len(want.slot_metrics)
    if got.slot_metrics:
        # the run's mean delay is over every UAV and slot of the cell
        assert got.mean_ds_delay_s == float(np.mean([m.ds_delay_s for m in got.slot_metrics]))
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


class TestStackedPath:
    """What a stack keeps stacked: read-only scenario tables and contexts,
    slot records that are split per cell only when read, and the
    constraints that made a slot fall back."""

    def test_fallback_rows_name_their_constraints(self):
        # tight-buffer cells fall back in their first slot, the others do not
        cfgs = [ScenarioConfig(seed=seed, **(TIGHT_BUFFER if seed % 2 else {}))
                for seed in range(6)]
        stacked = assert_stacked_equals_serial(cfgs)
        trace = stacked[0].records.traces[0]
        assert 0 < sum(trace.fallback) < len(cfgs)
        constraints = {"gamma_box", "delta_box", "f_box", "p_box", "budget", "deadline",
                       "storage", "backlog"}
        for fell_back, violations in zip(trace.fallback, trace.violations):
            if fell_back:
                assert violations and set(violations) <= constraints
                assert all(v is True or v > 0 for v in violations.values())
            else:
                assert violations == {}

    def test_stack_without_records_keeps_its_figures(self):
        # the harness's stacks keep no per-slot records: its rows read
        # only the figures, the fallback slots and the mean delay
        cfgs = [ScenarioConfig(seed=seed, num_slots=3, **(TIGHT_BUFFER if seed % 2 else {}))
                for seed in range(4)]
        states = [generate_scenario(cfg, cfg.seed) for cfg in cfgs]
        kept = run_horizons(cfgs, states, solve_slot_jcorm)
        bare = run_horizons(cfgs, states, solve_slot_jcorm, keep_records=False)
        for got, want in zip(bare, kept):
            assert got.records is None
            assert got.figures.tobytes() == want.figures.tobytes()
            assert got.infeasible_slots == want.infeasible_slots
            assert got.mean_ds_delay_s == want.mean_ds_delay_s

    def test_csv_path_splits_no_rows(self, monkeypatch):
        calls = {"split": 0, "context": 0}

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapper

        for cls in (model.SlotMetrics, SlotDecision, SlotSolveTrace):
            monkeypatch.setattr(cls, "row", counted("split", cls.row))
        monkeypatch.setattr(scenario, "build_slot_context",
                            counted("context", scenario.build_slot_context))
        base = ScenarioConfig(num_uavs=96)
        result = harness.run_compare(base, ["atsm", "no-offload"], range(10))
        assert calls["split"] == 0
        assert 0 < calls["context"] <= 20      # at most one per cell
        monkeypatch.undo()
        assert result.rows == TestSharedScenarios.per_cell_rows(
            [(base.copy(algo=a, seed=s), "", None) for a in ("atsm", "no-offload")
             for s in range(10)])

    def test_scenarios_and_stacked_contexts_are_read_only(self, monkeypatch):
        # the three algorithms of the sweep run on the same four scenarios
        arrays = ("n_sens", "n_tol", "sum_d", "l_off", "dt_dev_rate_sum")
        drawn = []
        real = harness.generate_scenarios

        def generate(cfg, seeds):
            states = real(cfg, seeds)
            drawn.extend((state, [getattr(state, name).copy() for name in arrays])
                         for state in states)
            return states

        monkeypatch.setattr(harness, "generate_scenarios", generate)
        harness.run_sweep(ScenarioConfig(num_slots=3), "rician_k0", [5.0, 10.0], [0, 1],
                          algorithms=["jcorm", "atsm", "no-offload"])
        assert len(drawn) == 4
        for state, copies in drawn:
            for name, before in zip(arrays, copies):
                array = getattr(state, name)
                assert not array.flags.writeable, name
                assert array.tobytes() == before.tobytes(), name

        cfgs = [ScenarioConfig(seed=seed) for seed in range(3)]
        stack = scenario.ContextStack(cfgs, [generate_scenario(c, c.seed) for c in cfgs])
        ctx = stack.slot(1, np.array(stack.initial_free))
        for f in dataclasses.fields(SlotContext):
            value = getattr(ctx, f.name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    value[0, 0] = 1.0


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
        # four slots of one scenario, at two energy prices
        cfg = ScenarioConfig(num_uavs=3)
        state = generate_scenario(cfg, 0)
        ctxs = [build_slot_context(cfg.copy(omega=1.0 + t % 2), state, t,
                                   np.full(3, 1e8 * (t + 1))) for t in range(4)]
        stacked = SlotContext.stack(ctxs)
        assert stacked.num_uavs == 3
        for f in dataclasses.fields(SlotContext):
            value = getattr(stacked, f.name)
            if isinstance(getattr(ctxs[0], f.name), np.ndarray):
                assert value.shape == (4, 3), f.name
            elif f.name == "omega":
                assert value.shape == (4, 1)    # differs between rows: a column
            else:
                assert type(value) is float, f.name   # equal in every row: a scalar
            for b, ctx in enumerate(ctxs):
                row = np.broadcast_to(value, (4, 3))[b]
                assert np.array_equal(row, np.broadcast_to(getattr(ctx, f.name), 3)), f.name

    def test_signed_zeros_stack_as_a_column(self):
        stacked = SlotContext.stack([make_ctx(omega=0.0), make_ctx(omega=-0.0)])
        assert stacked.omega.shape == (2, 1)
        assert np.signbit(stacked.omega[:, 0]).tolist() == [False, True]

    def test_stacked_meter_equals_row_meters(self):
        # rows that differ in energy price, buffer capacity and on-board clock
        variants = [dict(omega=1e3), TIGHT_BUFFER, dict(uav_cpu_hz=CPU_HZ_POW_DIFFERS), {}]
        ctxs, decisions = [], []
        for seed, overrides in enumerate(variants):
            cfg = ScenarioConfig(seed=seed, **overrides)
            ctx = build_slot_context(cfg, generate_scenario(cfg, seed), 1,
                                     np.full(cfg.num_uavs, cfg.storage_initial_free_bits))
            ctxs.append(ctx)
            decisions.append(solve_slot_jcorm(ctx, cfg)[0])
        stacked = SlotContext.stack(ctxs)
        assert all(np.shape(getattr(stacked, name)) == (4, 1)
                   for name in ("omega", "storage_capacity", "uav_cpu_hz"))
        stacked_decision = SlotDecision(*(np.stack([getattr(d, f.name) for d in decisions])
                                          for f in dataclasses.fields(SlotDecision)))
        metered = model.meter_slot(stacked, stacked_decision)
        assert metered.utility_bits.shape == (4,)
        for b, (ctx, d) in enumerate(zip(ctxs, decisions)):
            got, want = metered.row(b), model.meter_slot(ctx, d)
            assert type(got.utility_bits) is float and type(want.utility_bits) is float
            for f in dataclasses.fields(model.SlotMetrics):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
            assert np.float64(got.utility_bits).tobytes() == np.float64(want.utility_bits).tobytes()

        # the buffer step checks its ranges element by element against a
        # (B, 1) capacity column
        capacity = stacked.storage_capacity
        free = np.minimum(stacked.storage_free, capacity)
        dt = stacked_decision.delta_tol
        step = model.dt_collection_step(stacked.dt_dev_rate_sum, dt, stacked.slot_seconds,
                                        stacked.r_tol_leo, free, capacity)
        assert step.next_free.shape == free.shape
        assert np.all(step.next_free <= capacity)
        tight = int(np.argmin(capacity[:, 0]))
        over = capacity[tight, 0] * 1.5
        assert over < np.delete(capacity, tight).min()   # in range for the other rows
        for bad in (np.nan, over):
            broken = free.copy()
            broken[tight, 0] = bad
            with pytest.raises(ValueError, match="storage_free must lie"):
                model.dt_collection_step(stacked.dt_dev_rate_sum, dt, stacked.slot_seconds,
                                         stacked.r_tol_leo, broken, capacity)


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

        def counting(cfgs, states, solver, **kwargs):
            sizes.append(len(cfgs))
            return real(cfgs, states, solver, **kwargs)

        monkeypatch.setattr(harness, "run_horizons", counting)
        monkeypatch.setattr(harness, "PART_UAV_SLOTS", 36)
        base = ScenarioConfig(num_slots=2)
        result = harness.run_compare(base, ["no-offload"], range(7))
        assert sizes == [3, 2, 2]   # at most 36 // (6 x 2) = 3 cells, in near-equal parts
        serial = [row for s in range(7) for row in harness.result_rows(
            harness.run_experiment(base.copy(algo="no-offload", seed=s)))]
        assert [r for r in result.rows if r["kind"] != "mean" and r["kind"] != "std"] == serial


class TestSharedScenarios:
    """A sweep or compare generates each distinct scenario once, and every
    algorithm's cells run on it."""

    @staticmethod
    def count_scenarios(monkeypatch):
        # the seeds of every generated scenario, batch by batch
        seeds = []
        real = harness.generate_scenarios
        monkeypatch.setattr(harness, "generate_scenarios",
                            lambda cfg, batch: seeds.extend(batch) or real(cfg, batch))
        return seeds

    @staticmethod
    def per_cell_rows(cells):
        rows = [row for cfg, axis, value in cells
                for row in harness.result_rows(harness.run_experiment(cfg), axis, value)]
        return rows + harness.aggregate_rows(rows)

    def test_compare_generates_one_scenario_per_seed(self, monkeypatch):
        base = ScenarioConfig(num_slots=2, ga=GaConfig(population=8, generations=3))
        algos = ["jcorm", "atsm", "ga", "no-offload"]
        seeds = self.count_scenarios(monkeypatch)
        result = harness.run_compare(base, algos, range(5))
        assert seeds == [0, 1, 2, 3, 4]
        # keys compare floats by their bits
        assert harness._scenario_key(base.copy(beta=0.0)) != harness._scenario_key(
            base.copy(beta=-0.0))
        monkeypatch.undo()
        assert result.rows == self.per_cell_rows(
            [(base.copy(algo=a, seed=s), "", None) for a in algos for s in range(5)])

    def test_sweep_generates_one_scenario_per_value_and_seed(self, monkeypatch):
        # the scenario reads the UAV band, so each value draws its own
        base = ScenarioConfig(num_slots=2)
        values, algos = [5e6, 1e7, 2e7], ["jcorm", "no-offload", "atsm"]
        seeds = self.count_scenarios(monkeypatch)
        result = harness.run_sweep(base, "uav_bandwidth_hz", values, [0, 1],
                                   algorithms=algos)
        assert len(seeds) == len(values) * 2
        monkeypatch.undo()
        assert result.rows == self.per_cell_rows(
            [(base.copy(algo=a, seed=s, uav_bandwidth_hz=v), "uav_bandwidth_hz", v)
             for a in algos for v in values for s in (0, 1)])

    def test_sweep_over_an_unread_field_generates_one_scenario_per_seed(self, monkeypatch):
        # the scenario does not read the satellite band: every value shares it
        base = ScenarioConfig(num_slots=2)
        values, algos = [2e7, 3e7, 4e7], ["jcorm", "no-offload", "atsm"]
        seeds = self.count_scenarios(monkeypatch)
        result = harness.run_sweep(base, "leo_bandwidth_hz", values, [0, 1],
                                   algorithms=algos)
        assert seeds == [0, 1]
        monkeypatch.undo()
        assert result.rows == self.per_cell_rows(
            [(base.copy(algo=a, seed=s, leo_bandwidth_hz=v), "leo_bandwidth_hz", v)
             for a in algos for v in values for s in (0, 1)])

    # a valid change of each field the scenario key leaves out
    UNREAD_CHANGES = {
        "slot_seconds": 5.0, "sat_speed_mps": 7000.0, "leo_bandwidth_hz": 2e7,
        "pmax_w": 2.0, "dt_uplink_power_w": 0.5, "cycles_per_bit": 800.0,
        "uav_cpu_hz": 1e9, "leo_cpu_hz": 2e10, "switch_cap": 2e-28,
        "storage_capacity_bits": 2e10, "storage_initial_free_bits": 5e8, "omega": 3.0,
        "algo": "ga", "solver_mode": "strict",
        "tol": ToleranceConfig(i_max=5, tau_outer=0.5),
        "ga": GaConfig(population=4, generations=1, seed=9),
    }

    @staticmethod
    def scenario_bits(cfg):
        state = generate_scenario(cfg, cfg.seed)
        return [(v.shape, v.dtype.str, v.tobytes()) if isinstance(v, np.ndarray) else v.hex()
                for v in vars(state).values()]

    def test_fields_left_out_of_the_key_leave_the_scenario_unchanged(self):
        # a field the scenario reads cannot join the left-out set unnoticed:
        # every left-out field needs a change here, and must not move a bit
        assert set(self.UNREAD_CHANGES) == harness._UNREAD_FIELDS
        base = ScenarioConfig(seed=3, num_slots=4)
        want = self.scenario_bits(base)
        for name, value in self.UNREAD_CHANGES.items():
            cfg = dataclasses.replace(base, **{name: value})
            cfg.validate()
            assert getattr(cfg, name) != getattr(base, name), name
            assert harness._scenario_key(cfg) == harness._scenario_key(base), name
            assert self.scenario_bits(cfg) == want, name
        # the comparison sees a field that the scenario reads
        assert self.scenario_bits(dataclasses.replace(base, beta=0.5)) != want

    def test_parts_hold_at_most_the_stack_limit(self, monkeypatch):
        seeds = self.count_scenarios(monkeypatch)
        held = []
        real = harness._run_part

        def part(cells):
            before = len(seeds)
            rows = real(cells)
            held.append(len(seeds) - before)
            return rows

        monkeypatch.setattr(harness, "_run_part", part)
        monkeypatch.setattr(harness, "PART_UAV_SLOTS", 36)
        base = ScenarioConfig(num_slots=2)
        result = harness.run_compare(base, ["no-offload", "atsm"], range(7))
        assert held == [3, 2, 2]    # at most 36 // (6 x 2) = 3 scenarios, in near-equal parts
        assert sorted(seeds) == list(range(7))
        monkeypatch.undo()
        assert result.rows == self.per_cell_rows(
            [(base.copy(algo=a, seed=s), "", None) for a in ("no-offload", "atsm")
             for s in range(7)])

    def test_stacks_share_one_buffer_capacity(self, monkeypatch):
        # a stacked meter's next_free can then be checked against one
        # scalar capacity, as the benchmark's traced storage check does
        capacities = []
        real = model.meter_slot
        monkeypatch.setattr(model, "meter_slot", lambda ctx, d: capacities.append(
            ctx.storage_capacity) or real(ctx, d))
        harness.run_sweep(ScenarioConfig(num_slots=2), "storage_capacity_bits",
                          [2e9, 1.2e10], [0, 1], algorithms=["jcorm", "no-offload"])
        assert len(capacities) == 2 * 2 * 2     # algorithms x values x slots
        assert all(type(c) is float for c in capacities)


class TestCuts:
    """Rows and CSV bytes do not depend on how the cells are cut into parts,
    how a part's scenarios are batched, or on the number of processes."""

    BASE = ScenarioConfig(num_slots=2)
    SEEDS = (0, 1, 2)
    ALGOS = ("jcorm", "no-offload")
    # num_uavs makes a fleet per value; the scenario reads rician_k0, so a
    # part's scenarios split into one batch per value
    SWEEPS = {"num_uavs": (1, 7, 96), "rician_k0": (0.0, 5.0, 60.0)}
    per_cell = {}

    @classmethod
    def per_cell_rows(cls, axis):
        if axis not in cls.per_cell:
            cls.per_cell[axis] = TestSharedScenarios.per_cell_rows(
                [(harness.apply_axis(cls.BASE, axis, v).copy(algo=a, seed=s), axis, v)
                 for a in cls.ALGOS for v in cls.SWEEPS[axis] for s in cls.SEEDS])
        return cls.per_cell[axis]

    @pytest.mark.parametrize("axis", sorted(SWEEPS))
    @pytest.mark.parametrize("part_uav_slots", [1, 40, 1 << 30],
                             ids=["one-scenario-parts", "few-scenario-parts", "unbounded-parts"])
    @pytest.mark.parametrize("batch_device_slots", [1, 1 << 30],
                             ids=["seed-by-seed", "one-batch"])
    def test_rows_do_not_depend_on_the_cut(self, tmp_path, monkeypatch, axis,
                                           part_uav_slots, batch_device_slots):
        want = self.per_cell_rows(axis)
        monkeypatch.setattr(harness, "PART_UAV_SLOTS", part_uav_slots)
        monkeypatch.setattr(scenario, "BATCH_DEVICE_SLOTS", batch_device_slots)
        blobs = []
        for workers in (1, 2):
            result = harness.run_sweep(self.BASE, axis, self.SWEEPS[axis], self.SEEDS,
                                       algorithms=self.ALGOS, workers=workers)
            assert result.rows == want
            path = tmp_path / f"{workers}.csv"
            harness.write_csv(result.rows, str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_sweep_over_an_unread_field_uses_every_worker(self, tmp_path, monkeypatch):
        # omega leaves one scenario for the one seed, so its cells are cut
        # into parts by cell
        pools = []

        class RecordingPool(harness.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        blobs = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["sweep", "--axis", "omega", "--values", "0.1,1,10", "--seeds", "0",
                         "--algos", "jcorm,no-offload", "--workers", workers,
                         "--out", str(out), "--format", "csv"]) == 0
            blobs.append((out / "omega.csv").read_bytes())
        assert pools == [2]
        assert blobs[0] == blobs[1]
