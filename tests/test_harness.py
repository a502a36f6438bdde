"""Experiment harness tests: scenario generation, config round-trips, CSV
determinism, sweep axes, and the command-line interface."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from concurrent import futures

import numpy as np
import pytest

from jcorm import cli, harness
from jcorm.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from jcorm.config import (CONFIG_KEYS, MAX_GA_DRAWS, MAX_SLOTS, MAX_UAV_SLOTS,
                          MAX_UAVS, ConfigError, GaConfig, ScenarioConfig,
                          ToleranceConfig, load_config, load_config_text)
from jcorm.oracle import grid_sp1, grid_sp2, grid_sp3, grid_sp4
from jcorm.scenario import build_slot_context, generate_scenario
from jcorm.solver import solve_slot_jcorm


# numeric keys bounded only against other keys or by their linear values
CROSS_BOUNDED = ("k_sens_max", "k_tol_max", "ds_size_max_bits", "ref_gain_db",
                 "antenna_gain_db", "noise_dbm")
_BELOW_0, _ABOVE_0, _ABOVE_1 = -5e-324, 5e-324, math.nextafter(1.0, 2.0)
_NO_DS_LOAD = dict(ds_size_min_bits=0.0, ds_size_max_bits=0.0)
_PENALTY_END = ScenarioConfig().max_ga_penalty_weight
# (key, a value validate() accepts at its range's end or inside an open end,
# a value just past that end, the other keys the accepted value needs)
RANGE_EDGES = [
    ("num_uavs", 1, 0, {}), ("num_uavs", MAX_UAVS, MAX_UAVS + 1, dict(num_slots=9)),
    ("num_slots", 0, -1, {}),
    ("num_slots", MAX_SLOTS, MAX_SLOTS + 1, dict(slot_seconds=0.1)),
    ("elevation_deg", 0.0, _BELOW_0, {}),
    # nearer 90 the slant range rounds to 0 and the satellite link gain refuses it
    ("elevation_deg", 89.999, 90.0, dict(num_slots=0)),
    ("beta", 0.0, _BELOW_0, _NO_DS_LOAD), ("beta", 1.0, _ABOVE_1, {}),
    *[(key, edge, past, {}) for key in ("ga_crossover_rate", "ga_mutation_rate")
      for edge, past in ((0.0, _BELOW_0), (1.0, _ABOVE_1))],
    *[(key, _ABOVE_0, 0.0, {}) for key in (
        "earth_radius_m", "sat_speed_mps", "slot_seconds",
        "uav_bandwidth_hz", "pathloss_coeff", "pathloss_exp",
        "cycles_per_bit", "leo_cpu_hz", "switch_cap", "tau_outer",
        "ga_mutation_sigma_frac")],
    # under a DS load, its on-board time bounds the UAV clock from below,
    # and its uplink energy over the satellite link the satellite band
    ("uav_cpu_hz", _ABOVE_0, 0.0, _NO_DS_LOAD), ("leo_bandwidth_hz", _ABOVE_0, 0.0, _NO_DS_LOAD),
    # the satellite link gain bounds these two from below at finite values,
    # and the closest device link's the UAV altitude
    ("sat_altitude_m", 1e-3, 0.0, dict(num_slots=0)), ("sat_ref_distance_m", 1e-3, 0.0, {}),
    ("uav_altitude_m", 1e-3, 0.0, {}),
    *[(key, 0.0, _BELOW_0, {}) for key in (
        "device_disc_radius_m", "device_power_tol_w", "pmax_w", "dt_uplink_power_w",
        "rician_k0", "ds_size_min_bits", "storage_initial_free_bits", "omega",
        "ga_penalty_weight")],
    # the GA's largest penalty sum over the horizon bounds its weight
    ("ga_penalty_weight", _PENALTY_END, math.nextafter(_PENALTY_END, math.inf), {}),
    ("device_power_sens_w", 0.0, _BELOW_0, _NO_DS_LOAD),
    ("storage_capacity_bits", 0.0, _BELOW_0, dict(storage_initial_free_bits=0.0)),
    *[(key, 0, -1, {}) for key in ("seed", "ga_generations", "ga_elitism", "ga_seed")],
    *[(key, 1, 0, {}) for key in (
        "k_sens_min", "k_tol_min", "i_max", "ga_population", "ga_tournament")],
]


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------

class TestScenario:
    def test_same_seed_identical(self):
        cfg = ScenarioConfig(seed=3)
        s1 = generate_scenario(cfg, 3)
        s2 = generate_scenario(cfg, 3)
        for name in ("n_sens", "n_tol", "sum_d", "l_off", "dt_dev_rate_sum"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))

    def test_different_seed_differs(self):
        cfg = ScenarioConfig()
        s1 = generate_scenario(cfg, 0)
        s2 = generate_scenario(cfg, 1)
        assert not np.array_equal(s1.sum_d, s2.sum_d)

    def test_device_counts_within_bounds(self):
        cfg = ScenarioConfig()
        for seed in range(5):
            state = generate_scenario(cfg, seed)
            assert np.all((state.n_sens >= cfg.k_sens_min)
                          & (state.n_sens <= cfg.k_sens_max))
            assert np.all((state.n_tol >= cfg.k_tol_min)
                          & (state.n_tol <= cfg.k_tol_max))

    def test_task_sizes_within_bounds(self):
        cfg = ScenarioConfig()
        state = generate_scenario(cfg, 2)
        # each UAV's DS load is the sum of its devices' task sizes
        assert np.all((state.sum_d >= state.n_sens * cfg.ds_size_min_bits)
                      & (state.sum_d <= state.n_sens * cfg.ds_size_max_bits))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config_text("no_such_knob = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config_text("num_uavs = six\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            load_config_text("this is not a setting\n")

    def test_comments_and_blanks_ignored(self):
        cfg = load_config_text("# a comment\n\nnum_uavs = 4  # trailing\n")
        assert cfg.num_uavs == 4

    @staticmethod
    def _as_text(cfg):
        # every key of the table, written in the flat format
        lines = []
        for key, (owner, name, _) in CONFIG_KEYS.items():
            value = getattr(getattr(cfg, owner) if owner else cfg, name)
            lines.append(f"{key} = {'none' if value is None else value if isinstance(value, str) else repr(value)}")
        return "\n".join(lines) + "\n"

    def test_round_trip(self):
        cfg = ScenarioConfig(num_uavs=3, omega=2.5, seed=11)
        cfg.ga.population = 17
        cfg.ga.seed = 5
        back = load_config_text(self._as_text(cfg))
        assert back == cfg

    def test_round_trip_unset_ga_seed(self):
        cfg = ScenarioConfig()
        assert cfg.ga.seed is None
        base = ScenarioConfig()
        base.ga.seed = 5   # "none" must clear it
        back = load_config_text(self._as_text(cfg), base=base)
        assert back.ga.seed is None and back == cfg

    def test_every_key_loads_typed(self):
        # every key set to a value off its default, so a key routed to the
        # wrong (sub-)config or typed wrongly shows up
        strings = {"algo": "atsm", "solver_mode": "strict"}
        tol_fields = {f.name for f in dataclasses.fields(ToleranceConfig)}
        expected, lines = {}, []
        for cls, prefix in ((ScenarioConfig, ""), (ToleranceConfig, ""), (GaConfig, "ga_")):
            for f in dataclasses.fields(cls):
                if f.name in ("tol", "ga"):
                    continue
                key = prefix + f.name
                default = f.default
                if key == "ga_seed":
                    value, raw = None, "none"
                elif f.type == "str":
                    value = raw = strings[key]
                elif f.type == "int":
                    value = default + 1
                    raw = str(value)
                else:
                    value = default / 2 if default else 0.25
                    raw = repr(value)
                expected[key] = value
                lines.append(f"{key} = {raw}")
        assert set(expected) == set(CONFIG_KEYS) and len(expected) == 50
        base = ScenarioConfig()
        base.ga.seed = 5   # "none" must clear it
        cfg = load_config_text("\n".join(lines) + "\n", base=base)
        for key, value in expected.items():
            if key.startswith("ga_"):
                got = getattr(cfg.ga, key[3:])
            elif key in tol_fields:
                got = getattr(cfg.tol, key)
            else:
                got = getattr(cfg, key)
            assert got == value and type(got) is type(value), key

    def test_int_keys_exact(self):
        big = 9007199254740993   # 2**53 + 1, which a float rounds to ...992
        assert load_config_text(f"seed = {big}\n").seed == big
        assert load_config_text(f"ga_seed = {big}\n").ga.seed == big
        for raw, value in (("4", 4), ("4.0", 4), ("1e1", 10), ("+3", 3)):
            got = load_config_text(f"num_uavs = {raw}\n").num_uavs
            assert got == value and type(got) is int
        for raw in ("2.5", "inf", "nan", "six", "1e400"):
            with pytest.raises(ConfigError, match="num_uavs"):
                load_config_text(f"num_uavs = {raw}\n")

    def test_non_integer_int_field_rejected(self):
        # the Python API skips the parser; validate checks the type
        with pytest.raises(ConfigError, match="num_uavs must be an integer"):
            ScenarioConfig(num_uavs=2.5).validate()
        cfg = ScenarioConfig()
        cfg.ga.population = 60.0
        with pytest.raises(ConfigError, match="ga_population must be an integer"):
            cfg.validate()

    def test_file_loading(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("num_slots = 4\nleo_bandwidth_hz = 30e6\n")
        cfg = load_config(str(path))
        assert cfg.num_slots == 4 and cfg.leo_bandwidth_hz == 30e6

    def test_validation_catches_bad_horizon(self):
        with pytest.raises(ConfigError):
            load_config_text("num_slots = 1000\n")  # beyond the pass window

    def test_non_finite_float_rejected(self):
        # every float key of the config, its tolerances and its GA
        keys = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float"]
        keys += [f.name for f in dataclasses.fields(ToleranceConfig) if f.type == "float"]
        keys += ["ga_" + f.name for f in dataclasses.fields(GaConfig) if f.type == "float"]
        assert len(keys) == 35 and "omega" in keys and "ga_penalty_weight" in keys
        for key in keys:
            for raw in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match="finite"):
                    load_config_text(f"{key} = {raw}\n")

    def test_non_finite_int_rejected(self):
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError):
                load_config_text(f"num_uavs = {raw}\n")

    def test_size_caps(self):
        ScenarioConfig(num_uavs=MAX_UAVS, num_slots=MAX_UAV_SLOTS // MAX_UAVS).validate()
        ScenarioConfig(num_uavs=MAX_UAV_SLOTS // MAX_SLOTS, num_slots=MAX_SLOTS,
                       slot_seconds=0.4).validate()
        for overrides, message in (
                (dict(num_uavs=MAX_UAVS + 1, num_slots=1), "num_uavs must lie in"),
                (dict(num_uavs=1, num_slots=MAX_SLOTS + 1, slot_seconds=0.4),
                 "num_slots must lie in"),
                (dict(num_uavs=101, num_slots=100, slot_seconds=4.0), r"num_uavs \* num_slots")):
            with pytest.raises(ConfigError, match=message):
                ScenarioConfig(**overrides).validate()

    @pytest.mark.parametrize("at_cap, key", [
        # population x U x T
        (dict(num_uavs=10, num_slots=1000, slot_seconds=0.4, ga_generations=0),
         "ga_population"),
        # population x (generations + 1) x U x T, the default GA at the size caps
        (dict(num_uavs=10, num_slots=1000, slot_seconds=0.4), "ga_generations"),
        # (generations + 1) x T
        (dict(num_uavs=1, num_slots=1, ga_population=1, ga_generations=100_999),
         "ga_generations"),
        # population x tournament
        (dict(ga_population=1, ga_tournament=MAX_GA_DRAWS), "ga_tournament"),
        # U x T x (k_sens_max + k_tol_max)
        (dict(num_uavs=1024, num_slots=1, k_sens_max=1024, k_tol_max=1024), "k_tol_max"),
    ], ids=["generation-genes", "run-genes", "slot-passes", "tournament", "device-slots"])
    def test_work_caps(self, at_cap, key):
        # accepted exactly at the cap, rejected one step above it
        cfg = ScenarioConfig().copy(**at_cap)
        cfg.validate()
        owner, name, _ = CONFIG_KEYS[key]
        value = getattr(getattr(cfg, owner) if owner else cfg, name)
        with pytest.raises(ConfigError, match=re.escape(key)):
            cfg.copy(**{key: value + 1}).validate()

    def test_every_numeric_key_has_an_edge(self):
        ranged = {key for key, *_ in RANGE_EDGES}
        numeric = {key for key, (_, _, declared) in CONFIG_KEYS.items() if declared != "str"}
        assert ranged | set(CROSS_BOUNDED) == numeric and not ranged & set(CROSS_BOUNDED)

    @pytest.mark.parametrize("key, accepted, refused, needs", RANGE_EDGES,
                             ids=[f"{key}={refused!r}" for key, _, refused, _ in RANGE_EDGES])
    def test_range_edges(self, key, accepted, refused, needs):
        # accepted at the end of the key's range (inside an open end), and
        # refused just past it by a message that names the key
        cfg = ScenarioConfig().copy(**needs)
        cfg.copy(**{key: accepted}).validate()
        with pytest.raises(ConfigError, match=rf"\b{key} must "):
            cfg.copy(**{key: refused}).validate()


# ---------------------------------------------------------------------------
# sweep axes
# ---------------------------------------------------------------------------

class TestAxes:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            harness.apply_axis(ScenarioConfig(), "warp_factor", 9.0)

    def test_task_size_axis_pins_draws(self):
        cfg = harness.apply_axis(ScenarioConfig(), "ds_size_bits", 2e6)
        assert cfg.ds_size_min_bits == cfg.ds_size_max_bits == 2e6
        state = generate_scenario(cfg, 0)
        assert np.all(state.sum_d == state.n_sens * 2e6)

    def test_storage_axis_clamps_initial_free(self):
        cfg = harness.apply_axis(ScenarioConfig(), "storage_capacity_bits", 4e9)
        assert cfg.storage_capacity_bits == 4e9
        assert cfg.storage_initial_free_bits <= 4e9

    def test_fleet_size_axis_is_integer(self):
        cfg = harness.apply_axis(ScenarioConfig(), "num_uavs", 4.0)
        assert cfg.num_uavs == 4 and isinstance(cfg.num_uavs, int)

    def test_fleet_size_axis_rejects_non_whole_values(self):
        for value in (2.5, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="num_uavs"):
                harness.apply_axis(ScenarioConfig(), "num_uavs", value)

    def test_omega_axis_moves_no_decision(self):
        # at the default scale an energy price from 0.01 to 10 changes no
        # decision bit: the energy term is about 1e-7 of the utility
        for algo in ("jcorm", "atsm", "no-offload"):
            for seed in (0, 1, 2):
                runs = [harness.run_experiment(ScenarioConfig(seed=seed, algo=algo, omega=omega))
                        for omega in (0.01, 0.1, 1.0, 10.0)]
                # one (slots, 4, U) block of (power, share, start, ratio) per run
                blocks = [np.array([list(vars(d).values()) for d in run.decisions])
                          for run in runs]
                for block in blocks[1:]:
                    assert np.array_equal(block, blocks[0]), (algo, seed)
                utility = [run.utility_bits for run in runs]
                assert utility[0] > utility[-1]
                assert (utility[0] - utility[-1]) / utility[0] < 1e-6

    def test_expected_axes_registered(self):
        for axis in ("leo_bandwidth_hz", "uav_bandwidth_hz", "ds_size_bits",
                     "storage_capacity_bits", "rician_k0", "omega", "beta",
                     "pmax_w", "num_uavs"):
            assert axis in harness.SWEEP_AXES


# ---------------------------------------------------------------------------
# experiment results and CSV
# ---------------------------------------------------------------------------

def small_cfg(**kw):
    base = dict(num_slots=3, num_uavs=3, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestResults:
    def test_run_rows_shape(self):
        result = harness.run_experiment(small_cfg())
        rows = harness.result_rows(result)
        kinds = [r["kind"] for r in rows]
        assert kinds.count("slot") == 3 and kinds.count("run") == 1
        run = rows[-1]
        assert run["utility_bits"] == pytest.approx(result.utility_bits)

    def test_aggregates_match_runs(self):
        rows = []
        for seed in (0, 1, 2):
            rows.extend(harness.result_rows(
                harness.run_experiment(small_cfg(seed=seed))))
        stats = harness.aggregate_rows(rows)
        runs = [r["utility_bits"] for r in rows if r["kind"] == "run"]
        mean = next(r for r in stats if r["kind"] == "mean")
        std = next(r for r in stats if r["kind"] == "std")
        assert mean["utility_bits"] == pytest.approx(np.mean(runs))
        assert std["utility_bits"] == pytest.approx(np.std(runs))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overrides", [
        dict(switch_cap=1e150, omega=0.0),              # energies near 1e178 J
        dict(ds_size_max_bits=1e300, omega=0.0),
        # weak DS devices under a huge load: delays near 1e282 s (a DS rate
        # that underflows to 0 with spectrum is a config error)
        dict(device_power_sens_w=1e-14, ds_size_max_bits=1e280, omega=0.0),
    ])
    def test_aggregates_finite_for_huge_run_values(self, overrides):
        res = harness.run_compare(small_cfg(**overrides), ["jcorm", "no-offload"], [0, 1])
        runs = [r for r in res.rows if r["kind"] == "run"]
        stats = [r for r in res.rows if r["kind"] in ("mean", "std")]
        for metric in harness.FIGURES:
            assert all(np.isfinite(r[metric]) for r in runs)
            assert all(np.isfinite(r[metric]) for r in stats), metric
        assert max(r["ds_delay_s"] for r in runs) > 1e150 or \
            max(r["energy_j"] for r in runs) > 1e150

    def test_csv_round_trip_is_stable(self, tmp_path):
        result = harness.run_experiment(small_cfg())
        rows = harness.result_rows(result)
        rows.extend(harness.aggregate_rows(rows))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        harness.write_csv(rows, str(p1))
        harness.write_csv(harness.read_csv(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_deterministic_and_parallel_identical(self, tmp_path):
        cfg = small_cfg()
        kw = dict(axis="omega", values=[1.0, 10.0], seeds=[0, 1],
                  algorithms=["jcorm", "atsm"])
        paths = []
        for name, workers in (("serial", 1), ("again", 1), ("par", 2)):
            res = harness.run_sweep(cfg, workers=workers, **kw)
            path = tmp_path / f"{name}.csv"
            harness.write_csv(res.rows, str(path))
            paths.append(path)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_workers_bound_the_pool(self, monkeypatch):
        # a recording stand-in for the process pool: it forks nothing
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return list(map(fn, jobs))

        monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cfg = small_cfg(num_slots=1)
        serial = harness.run_sweep(cfg, "rician_k0", [5.0, 10.0], [0], ["no-offload"]).rows
        assert pools == []
        # two cells on two scenarios make two parts, so 5000 workers start
        # two processes
        rows = harness.run_sweep(cfg, "rician_k0", [5.0, 10.0], [0], ["no-offload"],
                                 workers=5000).rows
        assert pools == [2] and rows == serial
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        harness.run_sweep(cfg, "rician_k0", [5.0, 10.0], [0, 1, 2, 3], ["no-offload"],
                          workers=8)
        assert pools == [2, 3]
        for workers in (0, -1):
            with pytest.raises(ConfigError, match="workers must be >= 1"):
                harness.run_sweep(cfg, "rician_k0", [5.0], [0], ["no-offload"], workers=workers)
        assert pools == [2, 3]

    def test_compare_pairs_seeds(self):
        res = harness.run_compare(small_cfg(), ["jcorm", "no-offload"], [0, 1])
        means = {a: res.stat_metric(a, "utility_bits", "mean")[0]
                 for a in ("jcorm", "no-offload")}
        assert means["jcorm"] >= means["no-offload"]
        run_rows = [r for r in res.rows if r["kind"] == "run"]
        assert len(run_rows) == 4    # 2 algorithms x 2 seeds

    def test_empty_list_raises(self):
        base = small_cfg()
        with pytest.raises(ConfigError, match="the seeds list is empty"):
            harness.run_sweep(base, "omega", [1.0], [])
        with pytest.raises(ConfigError, match="the values list is empty"):
            harness.run_sweep(base, "omega", [], [0])
        with pytest.raises(ConfigError, match="the algorithms list is empty"):
            harness.run_sweep(base, "omega", [1.0], [0], algorithms=[])
        with pytest.raises(ConfigError, match="the algorithms list is empty"):
            harness.run_compare(base, [], [0])
        with pytest.raises(ConfigError, match="the seeds list is empty"):
            harness.run_compare(base, ["jcorm"], [])

    def test_repeated_entry_raises(self, monkeypatch):
        # a repeat was run again and pooled as another sample
        monkeypatch.setattr(harness, "_run_cells", lambda *a, **k: pytest.fail("a cell ran"))
        base = small_cfg()
        with pytest.raises(ConfigError, match="the seeds list repeats 0"):
            harness.run_sweep(base, "omega", [1.0], [0, 1, 0])
        with pytest.raises(ConfigError, match="the values list repeats 4"):
            harness.run_sweep(base, "num_uavs", [4, 4.0], [0])   # equal as numbers
        with pytest.raises(ConfigError, match="the algorithms list repeats 'jcorm'"):
            harness.run_sweep(base, "omega", [1.0], [0], algorithms=["jcorm", "jcorm"])
        with pytest.raises(ConfigError, match="the algorithms list repeats 'no-offload'"):
            harness.run_compare(base, ["no-offload", "no-offload"], [0])
        with pytest.raises(ConfigError, match="the seeds list repeats 0"):
            harness.run_compare(base, ["jcorm"], [0, 0])

    @pytest.mark.parametrize("formats, message", [
        (("pdf",), "unknown output format 'pdf'"),
        (("csv", ""), "unknown output format ''"),
        ((), "no output format given"),
    ])
    def test_unknown_output_format_is_config_error(self, tmp_path, formats, message):
        res = harness.run_compare(small_cfg(), ["no-offload"], [0])
        with pytest.raises(ConfigError, match=message):
            harness.write_sweep_outputs(res, str(tmp_path / "out"), formats)
        assert not (tmp_path / "out").exists()

    def test_svg_rendering(self, tmp_path):
        res = harness.run_sweep(small_cfg(), "omega", [1.0, 10.0], [0],
                                algorithms=["jcorm"])
        written = harness.write_sweep_outputs(res, str(tmp_path),
                                              formats=("csv", "svg"))
        svgs = [p for p in written if p.endswith(".svg")]
        assert svgs
        text = open(svgs[0]).read()
        assert text.startswith("<svg") and "polyline" in text

    def test_numpy_values_and_seeds_write_the_same_files(self, tmp_path):
        # a numpy scalar has no one-call line format, so these rows take
        # write_csv's value-by-value path
        sweeps = [harness.run_sweep(small_cfg(), "leo_bandwidth_hz", values, seeds,
                                    algorithms=["jcorm", "no-offload"])
                  for values, seeds in (([20e6, 40e6], [0, 1]),
                                        (np.array([20e6, 40e6]), np.arange(2)))]
        assert type(sweeps[1].rows[0]["value"]) is np.float64
        files = []
        for i, sweep in enumerate(sweeps):
            written = harness.write_sweep_outputs(sweep, str(tmp_path / str(i)))
            files.append({os.path.basename(p): open(p, "rb").read() for p in written})
        assert len(files[0]) == 5 and files[0] == files[1]

    def test_svg_draws_a_whisker_per_point_with_spread(self, tmp_path):
        res = harness.run_sweep(small_cfg(), "omega", [1.0, 10.0], [0, 1],
                                algorithms=["jcorm", "no-offload"])
        stds = [res.stat_metric(algo, "utility_bits", "std") for algo in res.algorithms]
        assert np.all(np.asarray(stds) > 0)
        harness.write_sweep_outputs(res, str(tmp_path), formats=("svg",))
        text = (tmp_path / "omega_utility_bits.svg").read_text()
        assert text.count('stroke-width="1"/>') == 4


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

TINY = "num_slots = 2\nnum_uavs = 3\n"
# a one-slot run whose DS uplink energy, priced by omega, overflowed where
# ref_gain_db made the satellite link so weak that its DS rate rounds to 0
WEAK_SAT_LINK = ("num_slots = 1\nbeta = 1\npmax_w = 10\nstorage_capacity_bits = 2e9\n"
                 "storage_initial_free_bits = 0\n")
# a fleet and horizon at which omega = 0 used to let an overflowed energy through
OMEGA_0 = "num_uavs = 3\nnum_slots = 2\nomega = 0\n"


class TestCli:
    def test_run_succeeds(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "run_jcorm_seed1.csv").exists()

    def test_algo_flag_selects_solver(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--algo", "no-offload",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "run_no-offload_seed0.csv").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_bad_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num_uavs = -2\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_removed_solver_key_is_config_error(self, tmp_path, capsys):
        # the power block's former iteration knobs are unknown keys now
        for key in ("r_max", "j_max", "eps_dinkelbach", "xi_inner", "step_a", "step_b"):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = 1\n")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_removed_placement_key_is_config_error(self, tmp_path, capsys):
        # a UAV's position enters no link, so its keys are unknown keys now
        for line in ("area_x_m = 2000", "area_y_m = 2000", "uav_placement = uniform",
                     "placement_jitter_m = 150"):
            cfg = tmp_path / "placement.cfg"
            cfg.write_text(TINY + line + "\n")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert code == EXIT_CONFIG
            assert "unknown configuration key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_usage_is_config_error(self, capsys):
        assert main(["run", "--no-such-flag"]) == EXIT_CONFIG
        assert main([]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("args", [
        ["sweep", "--axis", "omega", "--values", "1", "--seed", "7"],
        ["compare", "--algos", "no-offload", "--seed", "7"],
        ["sweep", "--axis", "omega", "--values", "1", "--algo", "no-offload"],
        ["compare", "--algos", "no-offload", "--algo", "ga"],
        ["oracle", "--algo", "jcorm"],
        ["oracle", "--out", "."],
        ["oracle", "--format", "csv"],
        ["run", "--format", "csv"],
        ["compare", "--algos", "no-offload", "--format", "csv"],
    ], ids=lambda args: f"{args[0]}{args[-2]}")
    def test_removed_flag_is_usage_error(self, capsys, monkeypatch, args):
        # each flag was ignored or had one meaningful value; none is read
        # as a prefix of a flag that remains
        monkeypatch.setattr(harness, "_run_cells", lambda *a, **k: pytest.fail("a cell ran"))
        monkeypatch.setattr(cli, "generate_scenario", lambda *a: pytest.fail("a slot ran"))
        assert main(args) == EXIT_CONFIG
        assert f"unrecognized arguments: {args[-2]} {args[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("formats, token", [("pdf", "'pdf'"), ("", "''"),
                                                ("csv,pdf", "'pdf'")])
    def test_unknown_sweep_format_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                  formats, token):
        monkeypatch.setattr(harness, "_run_cells", lambda *a, **k: pytest.fail("a cell ran"))
        out = tmp_path / "out"
        code = main(["sweep", "--axis", "omega", "--values", "1", "--format", formats,
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and f"unknown output format {token}" in err
        assert not out.exists()

    def test_sweep_svg_format_writes_no_csv(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--axis", "omega", "--values", "1,10",
                     "--algos", "no-offload", "--format", "svg", "--out", str(out)])
        assert code == EXIT_OK
        assert sorted(os.listdir(out)) == [
            f"omega_{metric}.svg"
            for metric in ("ds_delay_s", "energy_j", "uplinked_bits", "utility_bits")]

    @pytest.mark.parametrize("args, name", [
        (["sweep", "--axis", "omega", "--values", "1", "--seeds", ""], "seeds"),
        (["sweep", "--axis", "omega", "--values", "1", "--seeds", ","], "seeds"),
        (["sweep", "--axis", "omega", "--values", ""], "values"),
        (["sweep", "--axis", "omega", "--values", "1", "--algos", ""], "algorithms"),
        (["compare", "--algos", "no-offload", "--seeds", ""], "seeds"),
        (["compare", "--algos", ","], "algorithms"),
    ], ids=["sweep-seeds", "sweep-seeds-comma", "sweep-values", "sweep-algos",
            "compare-seeds", "compare-algos"])
    def test_empty_list_is_config_error(self, tmp_path, capsys, monkeypatch, args, name):
        # an empty --seeds ended in a KeyError traceback, and an empty
        # --values wrote a CSV of only its header
        monkeypatch.setattr(harness, "_run_cells", lambda *a, **k: pytest.fail("a cell ran"))
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and f"the {name} list is empty" in err
        assert not out.exists()

    @pytest.mark.parametrize("args, name", [
        (["sweep", "--axis", "omega", "--values", "1", "--seeds", "0,0"], "seeds"),
        (["sweep", "--axis", "num_uavs", "--values", "4,4.0", "--seeds", "0",
          "--algos", "no-offload"], "values"),
        (["sweep", "--axis", "omega", "--values", "1", "--algos", "jcorm jcorm"], "algorithms"),
        (["compare", "--algos", "no-offload", "--seeds", "0,0"], "seeds"),
        (["compare", "--algos", "no-offload,no-offload", "--seeds", "0"], "algorithms"),
    ], ids=["sweep-seeds", "sweep-values", "sweep-algos", "compare-seeds", "compare-algos"])
    def test_repeated_entry_is_config_error(self, tmp_path, capsys, monkeypatch, args, name):
        # a repeat was run again: compare reported std 0 over two copies of
        # one seed, and a repeated algorithm wrote each run row twice
        monkeypatch.setattr(harness, "_run_cells", lambda *a, **k: pytest.fail("a cell ran"))
        out = tmp_path / "out"
        assert main(args + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and f"the {name} list repeats" in err
        assert not out.exists()

    def test_infinite_energy_price_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(TINY + "omega = inf\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "omega must be finite" in capsys.readouterr().err

    def test_huge_energy_price_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(TINY + "omega = 1e308\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "omega" in capsys.readouterr().err
        # a price just under the cap runs, and its aggregates stay finite
        cfg.write_text(TINY + "omega = 1e146\n")
        code = main(["compare", "--config", str(cfg), "--algos", "no-offload",
                     "--seeds", "0,1,2", "--out", str(out)])
        assert code == EXIT_OK
        rows = harness.read_csv(str(out / "compare.csv"))
        assert all(np.isfinite(r["utility_bits"]) for r in rows)
        capsys.readouterr()

    @pytest.mark.parametrize("line, key", [
        ("noise_dbm = 4000", "noise_dbm"),
        ("ref_gain_db = -4000", "ref_gain_db"),
        ("antenna_gain_db = 4000", "antenna_gain_db"),
        # finite linear values whose product, the satellite gain, is not
        ("ref_gain_db = -3200", "satellite link gain"),
        ("sat_ref_distance_m = 1e200", "satellite link gain"),
        # a slant range that rounds to 0 raised a ValueError
        ("sat_altitude_m = 5e-324\nnum_slots = 0", "satellite link gain"),
        ("elevation_deg = 89.99999999999999\nnum_slots = 0", "satellite link gain"),
    ])
    def test_db_value_out_of_float_range_is_config_error(self, tmp_path, capsys,
                                                           line, key):
        cfg = tmp_path / "db.cfg"
        cfg.write_text(TINY + line + "\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert key in capsys.readouterr().err

    def test_overhead_elevation_is_config_error(self, tmp_path, capsys):
        # rejected even with an empty horizon, which fits any visibility window
        for extra in ("", "num_slots = 0\n"):
            cfg = tmp_path / "zenith.cfg"
            cfg.write_text(TINY + extra + "elevation_deg = 90\n")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert code == EXIT_CONFIG
            assert "elevation_deg must lie in [0, 90)" in capsys.readouterr().err

    def test_non_finite_seed_is_config_error(self, tmp_path, capsys):
        for seeds in ("inf", "nan"):
            code = main(["compare", "--algos", "no-offload", "--seeds", seeds,
                         "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
        capsys.readouterr()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        code = main(["run", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        cfg.write_text(TINY + "ga_seed = -3\n")
        code = main(["run", "--config", str(cfg), "--algo", "ga", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "ga_seed must be >= 0" in capsys.readouterr().err
        cfg.write_text(TINY)
        code = main(["compare", "--config", str(cfg), "--algos", "no-offload",
                     "--seeds=-2", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("num_uavs = 1e308\n", "num_uavs"),       # crashed with an OverflowError
        ("num_slots = 1e308\n", "num_slots"),
        ("num_uavs = 1e20\n", "num_uavs"),        # ran out of memory
        ("slot_seconds = 0.001\nnum_slots = 100000\n", "num_slots"),   # ran for minutes
        # each would allocate gigabytes or run for hours
        ("ga_population = 1000000000\n", "ga_population"),
        ("ga_generations = 1000000000\n", "ga_generations"),
        ("ga_tournament = 1000000000\n", "ga_tournament"),
        ("k_tol_max = 10000000\n", "k_tol_max"),
        # within the gene caps, but 60.6M generations of about 0.3 ms each
        ("num_uavs = 1\nnum_slots = 1\nga_population = 1\nga_generations = 60599999\n",
         "ga_generations"),
        # a work product past the float range, which the refusal message cannot print as .6g
        ("ga_population = 1e308\n", "ga_population"),
        ("ga_generations = 1e308\n", "ga_generations"),
        ("ga_tournament = 1e308\n", "ga_tournament"),
    ], ids=["uavs-1e308", "slots-1e308", "uavs-1e20", "slots-1e5", "ga-population-1e9",
            "ga-generations-1e9", "ga-tournament-1e9", "k-tol-1e7", "ga-generations-6e7",
            "ga-population-1e308", "ga-generations-1e308", "ga-tournament-1e308"])
    def test_oversized_run_is_config_error(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["compare", "--algos", "ga", "--seeds=0,1,2,-2"],
        ["sweep", "--axis", "num_uavs", "--values", "2,3,2000", "--algos", "jcorm,ga"],
    ], ids=["compare-negative-seed", "sweep-oversized-fleet"])
    def test_no_cell_runs_when_one_is_invalid(self, tmp_path, capsys, monkeypatch, args):
        runs = []
        real = harness.generate_scenarios
        monkeypatch.setattr(harness, "generate_scenarios",
                            lambda cfg, seeds: runs.extend(seeds) or real(cfg, seeds))
        assert main(args + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert runs == []
        capsys.readouterr()

    def test_large_seed_written_exactly(self, tmp_path):
        big = 9007199254740993   # 2**53 + 1, which a float rounds to ...992
        cfg = tmp_path / "big.cfg"
        cfg.write_text(TINY + f"seed = {big}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--algo", "no-offload",
                     "--out", str(out)]) == EXIT_OK
        rows = harness.read_csv(str(out / f"run_no-offload_seed{big}.csv"))
        assert {r["seed"] for r in rows if r["kind"] == "run"} == {big}
        cfg.write_text(TINY)
        assert main(["compare", "--config", str(cfg), "--algos", "no-offload",
                     "--seeds", f"{big}", "--out", str(out)]) == EXIT_OK
        rows = harness.read_csv(str(out / "compare.csv"))
        assert {r["seed"] for r in rows if r["kind"] == "run"} == {big}

    @pytest.mark.parametrize("value", ["2.5", "inf", "nan"])
    def test_non_whole_fleet_size_sweep_is_config_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--axis", "num_uavs",
                     "--values", f"3,{value}", "--algos", "no-offload", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "num_uavs" in capsys.readouterr().err

    def test_unknown_axis_is_config_error(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        code = main(["sweep", "--config", str(cfg), "--axis", "warp_factor",
                     "--values", "1,2", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_silent_ds_devices_are_config_error(self, tmp_path, capsys):
        # ran, exited 3 and wrote ds_delay_s = inf on every run row
        cfg = tmp_path / "silent.cfg"
        cfg.write_text(TINY + "device_power_sens_w = 0\nds_size_max_bits = 7.6e7\n"
                       "pathloss_coeff = 5.57\nrician_k0 = 59.7\n")
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--seeds", "0,1",
                     "--algos", "jcorm,atsm,ga,no-offload", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "device_power_sens_w" in capsys.readouterr().err
        # a power whose rate underflows to 0 passes validate(), and is
        # rejected when the scenario is generated, naming what to change
        cfg.write_text(TINY + "device_power_sens_w = 1e-300\nds_size_max_bits = 7.6e7\n"
                       "pathloss_coeff = 5.57\nrician_k0 = 59.7\n")
        code = main(["compare", "--config", str(cfg), "--seeds", "0,1",
                     "--algos", "jcorm,atsm,ga,no-offload", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert all(key in err for key in ("device_power_sens_w", "pathloss_coeff",
                                          "pathloss_exp"))
        # without a DS load, silent DS devices have nothing to upload
        cfg.write_text(TINY + "device_power_sens_w = 0\nds_size_min_bits = 0\n"
                       "ds_size_max_bits = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

    def test_ds_load_without_ds_band_is_config_error(self, tmp_path, capsys):
        # ran, exited 3 and wrote ds_delay_s = inf: with no DS band the
        # upload time overflows
        cfg = tmp_path / "no-band.cfg"
        cfg.write_text("beta = 0\nds_size_max_bits = 4e8\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "beta" in capsys.readouterr().err
        # without a DS load, the DT devices may take the whole band
        cfg.write_text(TINY + "beta = 0\nds_size_min_bits = 0\nds_size_max_bits = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("lines, keys", [
        # exited 3 and wrote 8 inf cells
        ("uav_cpu_hz = 1e-300\n", ("cycles_per_bit", "k_sens_max", "ds_size_max_bits",
                                   "uav_cpu_hz")),
        # exited 1: ValueError: device-UAV distance must be > 0
        ("device_disc_radius_m = 0\nuav_altitude_m = 1e-200\n", ("uav_altitude_m",)),
        # exited 1: the GA's buffer chain met an overflowed device link
        ("device_disc_radius_m = 0\nuav_altitude_m = 1e-150\n", ("uav_altitude_m",)),
        # exited 1: OverflowError squaring the altitude in the range formula
        ("uav_altitude_m = 1e200\n", ("uav_altitude_m",)),
        # a DS rate that rounds to 0 made omega times the uplink energy
        # overflow: at U = 6, jcorm, atsm and the GA exited 1 under -W
        # error::RuntimeWarning at -300 and -225 dB, the GA alone at -220 dB
        *[(WEAK_SAT_LINK + f"ref_gain_db = {db}\n", ("ref_gain_db", "pmax_w", "omega"))
          for db in (-300, -225, -220)],
        # exited 1 under -W error::RuntimeWarning: the GA's weighted
        # penalties overflowed
        ("ga_penalty_weight = 1e306\n", ("ga_penalty_weight",)),
        # at U = 3, omega = 0 priced an overflowed energy at 0 * inf: all four
        # algorithms wrote nan utilities and inf energies
        (OMEGA_0 + "switch_cap = 1e300\n", ("switch_cap",)),
        (OMEGA_0 + "uav_cpu_hz = 1e300\n", ("uav_cpu_hz",)),
        # the GA wrote nan, jcorm and atsm exited 1 under -W error::RuntimeWarning
        (OMEGA_0 + "leo_cpu_hz = 1e160\n", ("leo_cpu_hz",)),
        # a squared clock overflowed on its own: 0 cycle energy times inf
        ("num_uavs = 3\nds_size_min_bits = 0\nds_size_max_bits = 0\nuav_cpu_hz = 1e300\n",
         ("uav_cpu_hz",)),
        ("num_uavs = 3\nds_size_min_bits = 0\nds_size_max_bits = 0\nleo_cpu_hz = 1e300\n",
         ("leo_cpu_hz",)),
        # the DT uplink's SNR overflowed: no-offload and the GA exited 1 with a
        # ValueError (delta_tol must lie in [0, slot length]), jcorm and atsm
        # wrote nan and inf
        (OMEGA_0 + "dt_uplink_power_w = 1e308\n", ("dt_uplink_power_w",)),
        # cycles_per_bit * switch_cap overflowed: inf times the zero load is
        # nan, which passed every cap, and all four algorithms wrote nan
        ("num_uavs = 3\nds_size_min_bits = 0\nds_size_max_bits = 0\ncycles_per_bit = 1e200\n"
         "switch_cap = 1e200\n", ("cycles_per_bit", "switch_cap")),
    ], ids=["clock", "altitude-distance-0", "altitude-snr-inf", "altitude-distance-inf",
            "sat-link-300dB", "sat-link-225dB", "sat-link-220dB", "ga-penalty-1e306",
            "omega-0-switch-cap", "omega-0-uav-clock", "omega-0-leo-clock",
            "no-load-uav-clock", "no-load-leo-clock", "omega-0-dt-power", "no-load-cycle-cap"])
    def test_overflowing_clock_or_device_link_is_config_error(self, tmp_path, capsys, lines,
                                                              keys):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("num_uavs = 2\nnum_slots = 2\n" + lines)
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--seeds", "0", "--algos", "jcorm,ga",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and all(key in err for key in keys)

    @pytest.mark.parametrize("text, accepted", [
        # the satellite link's DS energy cap lies at -182.2227 dB here
        (WEAK_SAT_LINK + "ref_gain_db = -182.22\n", True),
        (WEAK_SAT_LINK + "ref_gain_db = -182.23\n", False),
        # the largest GA penalty weight of the U = 2, T = 2 run that
        # overflowed at 1e306
        ("num_uavs = 2\nnum_slots = 2\nga_penalty_weight = "
         f"{ScenarioConfig(num_uavs=2, num_slots=2).max_ga_penalty_weight!r}\n", True),
        # the faster clock squared overflows past 1.34e154, under a load or not
        (OMEGA_0 + "uav_cpu_hz = 1.3e154\nleo_cpu_hz = 1.3e154\n", True),
        (OMEGA_0 + "leo_cpu_hz = 1.35e154\n", False),
        ("num_uavs = 3\nnum_slots = 2\nds_size_min_bits = 0\nds_size_max_bits = 0\n"
         "uav_cpu_hz = 1.3e154\nleo_cpu_hz = 1.3e154\n", True),
        # the largest horizon energy at omega = 0 crosses 1e306 J between these
        (OMEGA_0 + "switch_cap = 2.7e275\n", True),
        (OMEGA_0 + "switch_cap = 2.8e275\n", False),
        # the DT uplink's SNR overflows between these, with a noise of 1e-303 W
        ("num_uavs = 3\nnum_slots = 2\nnoise_dbm = -3000\ndt_uplink_power_w = 5e13\n", True),
        ("num_uavs = 3\nnum_slots = 2\nnoise_dbm = -3000\ndt_uplink_power_w = 1e14\n", False),
    ], ids=["sat-link-inside", "sat-link-past", "ga-penalty-end", "clock-inside", "clock-past",
            "clock-inside-no-load", "energy-inside", "energy-past", "dt-snr-inside",
            "dt-snr-past"])
    def test_sat_link_and_ga_penalty_edges(self, tmp_path, capsys, text, accepted):
        # RuntimeWarning is an error here, so the accepted side runs all four
        # algorithms without an overflow
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--seeds", "0,1",
                     "--algos", "jcorm,atsm,ga,no-offload", "--out", str(out)])
        if accepted:
            assert code in (EXIT_OK, EXIT_INFEASIBLE)
            values = [cell for line in (out / "compare.csv").read_text().splitlines()[1:]
                      for cell in line.split(",")[6:10]]
            assert all(math.isfinite(float(v)) for v in values)
        else:
            assert code == EXIT_CONFIG and not out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("lines", [
        # the largest DS load's on-board time at its 1e300 s cap, past it,
        # and where it overflows
        "uav_cpu_hz = 6e-291", "uav_cpu_hz = 5.99e-291", "uav_cpu_hz = 1e-300",
        # the closest device link's SNR at unit fading just past overflow,
        # below it with fading that may overflow, and below any fading
        *[f"device_disc_radius_m = 0\nuav_altitude_m = {h}"
          for h in (1.2e-149, 1.3e-149, 1.6e-149, 1e-148)],
        # the farthest device link's distance just below and past overflow
        "uav_altitude_m = 1.3e154", "uav_altitude_m = 1.35e154",
        "device_disc_radius_m = 1.35e154",
    ])
    def test_near_the_edges_runs_finite_or_is_config_error(self, tmp_path, capsys, lines):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(TINY + lines + "\nga_population = 8\nga_generations = 3\n")
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--seeds", "0,1",
                     "--algos", "jcorm,atsm,ga,no-offload", "--out", str(out)])
        if code == EXIT_CONFIG:
            assert capsys.readouterr().err.startswith("configuration error")
            assert not out.exists()
        else:
            assert code in (EXIT_OK, EXIT_INFEASIBLE)
            values = [cell for line in (out / "compare.csv").read_text().splitlines()[1:]
                      for cell in line.split(",")[6:10]]
            assert all(math.isfinite(float(v)) for v in values)

    def test_delays_at_the_onboard_cap_sum_finite_over_a_run(self):
        # MAX_UAV_SLOTS delays near the cap, summed into each run's mean
        cfg = ScenarioConfig(num_uavs=1000, num_slots=10, slot_seconds=1.0,
                             uav_cpu_hz=6e-291)
        res = harness.run_compare(cfg, ["atsm", "no-offload"], [0, 1])
        delays = [r["ds_delay_s"] for r in res.rows]
        assert all(math.isfinite(d) for d in delays) and max(delays) > 1e299

    def test_oversized_tasks_exit_infeasible(self, tmp_path):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(TINY + "ds_size_min_bits = 1e9\nds_size_max_bits = 1e9\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_INFEASIBLE

    def test_sweep_writes_outputs(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--axis", "omega",
                     "--values", "1,10", "--seeds", "0", "--algos", "jcorm",
                     "--out", str(out)])
        assert code == EXIT_OK
        names = os.listdir(out)
        assert "omega.csv" in names
        assert any(n.endswith(".svg") for n in names)

    def test_compare_runs(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--algos",
                     "jcorm,atsm", "--seeds", "0,1", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "compare.csv").exists()

    def test_oracle_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("num_slots = 2\nnum_uavs = 2\n")
        code = main(["oracle", "--config", str(cfg), "--slot", "0",
                     "--points", "6", "--joint"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "grid best per UAV" in text

    def test_oracle_points_without_joint_is_config_error(self, tmp_path, capsys,
                                                         monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "generate_scenario", lambda *a: solves.append(a))
        cfg = tmp_path / "two.cfg"
        cfg.write_text("num_slots = 2\nnum_uavs = 2\n")
        code = main(["oracle", "--config", str(cfg), "--points", "3"])
        assert code == EXIT_CONFIG and solves == []
        assert "needs --joint" in capsys.readouterr().err

    def test_oracle_default_output(self, tmp_path, capsys):
        # the per-coordinate grids keep their 10001 points; the joint grid
        # defaults to 15 points per axis
        cfg_path = tmp_path / "two.cfg"
        cfg_path.write_text("num_slots = 2\nnum_uavs = 2\n")
        out = {}
        for extra in ((), ("--joint",), ("--joint", "--points", "15")):
            assert main(["oracle", "--config", str(cfg_path), "--slot", "0",
                         *extra]) == EXIT_OK
            out[extra] = capsys.readouterr().out
        assert out[("--joint",)] == out[("--joint", "--points", "15")]
        assert out[("--joint",)].startswith(out[()])
        assert "joint grid" in out[("--joint",)] and "joint grid" not in out[()]

        cfg = ScenarioConfig(num_slots=2, num_uavs=2)
        state = generate_scenario(cfg, cfg.seed)
        ctx = build_slot_context(cfg, state, 0, np.full(2, cfg.storage_initial_free_bits))
        decision, _ = solve_slot_jcorm(ctx, cfg)
        lines = out[()].splitlines()
        for line, (name, grid) in zip(lines[1:], (("power", grid_sp1), ("compute", grid_sp2),
                                                  ("start", grid_sp3), ("ratio", grid_sp4))):
            best = np.array2string(grid(ctx, decision).best, precision=4)
            assert line == f"  {name:8s} grid best per UAV: {best}"
        assert len(lines) == 5

    @pytest.mark.parametrize("text, points, message", [
        ("num_slots = 2\n", "15", "at most 2 UAVs"),     # the default 6 UAVs
        ("num_slots = 2\nnum_uavs = 2\n", "1", "--points in [2, 25]"),
        ("num_slots = 2\nnum_uavs = 2\n", "26", "--points in [2, 25]"),
    ], ids=["six-uavs", "points-1", "points-26"])
    def test_oracle_joint_limits_are_config_errors(self, tmp_path, capsys, monkeypatch,
                                                   text, points, message):
        solves = []
        monkeypatch.setattr(cli, "generate_scenario", lambda *a: solves.append(a))
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(text)
        code = main(["oracle", "--config", str(cfg), "--joint", "--points", points])
        assert code == EXIT_CONFIG and solves == []
        assert message in capsys.readouterr().err

    def test_workers_below_one_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "_run_group", lambda jobs: pytest.fail("a cell ran"))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        for workers in ("0", "-3"):
            code = main(["sweep", "--config", str(cfg), "--axis", "omega", "--values", "1,10",
                         "--algos", "no-offload", "--workers", workers,
                         "--out", str(tmp_path / "out")])
            assert code == EXIT_CONFIG
            assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_does_not_import_the_process_pool(self):
        # only a sweep or compare over several processes needs the pool
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, jcorm.cli; print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_console_script_installed(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from jcorm.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "utility" in proc.stdout
