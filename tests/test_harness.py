"""Experiment harness tests: scenario generation, config round-trips, CSV
determinism, sweep axes, and the command-line interface."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from jcorm import harness
from jcorm.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from jcorm.config import (CONFIG_KEYS, ConfigError, GaConfig, ScenarioConfig,
                          ToleranceConfig, load_config, load_config_text)
from jcorm.scenario import generate_scenario


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------

class TestScenario:
    def test_same_seed_identical(self):
        cfg = ScenarioConfig(seed=3)
        s1 = generate_scenario(cfg, 3)
        s2 = generate_scenario(cfg, 3)
        assert np.array_equal(s1.uav_xy, s2.uav_xy)
        assert np.array_equal(s1.n_sens, s2.n_sens)
        for a, b in zip(s1.ds_bits, s2.ds_bits):
            assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        cfg = ScenarioConfig()
        s1 = generate_scenario(cfg, 0)
        s2 = generate_scenario(cfg, 1)
        # placement is a deterministic grid; the device draws carry the seed
        assert (not np.array_equal(s1.n_sens, s2.n_sens)
                or not np.array_equal(s1.ds_bits[0], s2.ds_bits[0]))

    def test_device_counts_within_bounds(self):
        cfg = ScenarioConfig()
        for seed in range(5):
            state = generate_scenario(cfg, seed)
            assert np.all((state.n_sens >= cfg.k_sens_min)
                          & (state.n_sens <= cfg.k_sens_max))
            assert np.all((state.n_tol >= cfg.k_tol_min)
                          & (state.n_tol <= cfg.k_tol_max))

    def test_degenerate_area_colocates(self):
        cfg = ScenarioConfig(area_x_m=0.0, area_y_m=0.0)
        state = generate_scenario(cfg, 0)
        assert np.all(state.uav_xy == 0.0)

    def test_task_sizes_within_bounds(self):
        cfg = ScenarioConfig()
        state = generate_scenario(cfg, 2)
        for bits in state.ds_bits:
            assert np.all((bits >= cfg.ds_size_min_bits)
                          & (bits <= cfg.ds_size_max_bits))


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
        strings = {"uav_placement": "uniform", "algo": "atsm", "solver_mode": "strict"}
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
        assert set(expected) == set(CONFIG_KEYS) and len(expected) == 54
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
        assert len(keys) == 38 and "omega" in keys and "ga_penalty_weight" in keys
        for key in keys:
            for raw in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match="finite"):
                    load_config_text(f"{key} = {raw}\n")

    def test_non_finite_int_rejected(self):
        for raw in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError):
                load_config_text(f"num_uavs = {raw}\n")


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
        for bits in state.ds_bits:
            assert np.all(bits == 2e6)

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
        dict(device_power_sens_w=0.0),                  # DS delays near 1e306 s
        dict(switch_cap=1e150, omega=0.0),              # energies near 1e178 J
        dict(ds_size_max_bits=1e300, omega=0.0),
    ])
    def test_aggregates_finite_for_huge_run_values(self, overrides):
        res = harness.run_compare(small_cfg(**overrides), ["jcorm", "no-offload"], [0, 1])
        runs = [r for r in res.rows if r["kind"] == "run"]
        stats = [r for r in res.rows if r["kind"] in ("mean", "std")]
        for metric in harness._AGG_METRICS:
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

    def test_compare_pairs_seeds(self):
        res = harness.run_compare(small_cfg(), ["jcorm", "no-offload"], [0, 1])
        means = {a: res.stat_metric(a, "utility_bits", "mean")[0]
                 for a in ("jcorm", "no-offload")}
        assert means["jcorm"] >= means["no-offload"]
        run_rows = [r for r in res.rows if r["kind"] == "run"]
        assert len(run_rows) == 4    # 2 algorithms x 2 seeds

    def test_svg_rendering(self, tmp_path):
        res = harness.run_sweep(small_cfg(), "omega", [1.0, 10.0], [0],
                                algorithms=["jcorm"])
        written = harness.write_sweep_outputs(res, str(tmp_path),
                                              formats=("csv", "svg"))
        svgs = [p for p in written if p.endswith(".svg")]
        assert svgs
        text = open(svgs[0]).read()
        assert text.startswith("<svg") and "polyline" in text


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

TINY = "num_slots = 2\nnum_uavs = 3\n"


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

    def test_bad_usage_is_config_error(self, capsys):
        assert main(["run", "--no-such-flag"]) == EXIT_CONFIG
        assert main([]) == EXIT_CONFIG
        capsys.readouterr()

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
                     "--points", "6", "--joint", "--out", str(tmp_path)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "grid best per UAV" in text

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
