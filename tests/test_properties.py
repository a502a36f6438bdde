"""Property tests over configs that ``validate()`` accepts: every slot a
rotation solver does not hand to the fallback is feasible on its own
context, the buffer stays within [0, capacity], and utility is finite. And
over every config key: a config either runs to finite numbers or is a
configuration error. And over accepted configs with extreme magnitudes:
every model part at the corners of the decision box is finite, and the
horizon's energy, each slot at its costliest corner, stays within
validate()'s energy row. And over seeded slots: permuting the UAVs
permutes each slot solver's decision, and a slot that does not fall back
scores at least the on-board fallback wherever that is feasible.

RuntimeWarning is an error here as in the whole suite (pyproject.toml), so
a property run that overflows or divides by zero fails too."""

import contextlib
import csv
import dataclasses
import io
import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from jcorm import model
from jcorm.baselines import run_horizon_ga, solve_slot_atsm, solve_slot_no_offload
from jcorm.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from jcorm.config import (ALGORITHMS, CONFIG_KEYS, MAX_ENERGY_J, MAX_SLOTS, MAX_UAVS,
                          SOLVER_MODES, ConfigError, ScenarioConfig)
from jcorm.scenario import build_slot_context, generate_scenario
from jcorm.solver import fallback_decision, run_horizon, solve_slot_jcorm

from conftest import scenario_ctx

SLOT_SOLVERS = {"jcorm": solve_slot_jcorm, "atsm": solve_slot_atsm,
                "no-offload": solve_slot_no_offload}
FEASIBILITY_CHECKED = ("jcorm", "atsm")

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def configs(draw):
    """A small config that validate() accepts, varied on the axes that move
    the slot problem: fleet and horizon size, seed, energy price, power box,
    bands, task sizes, buffer state and deadline mode."""
    ds_min = draw(st.sampled_from([0.0, 1e3]) | _log_uniform(1e3, 2e7))
    ds_max = ds_min + draw(st.just(0.0) | _log_uniform(1e3, 2e7))
    capacity = draw(st.just(0.0) | _log_uniform(1e6, 4e10))
    cfg = ScenarioConfig(
        num_uavs=draw(st.integers(1, 8)),
        num_slots=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2 ** 63)),
        omega=draw(st.just(0.0) | _log_uniform(1e-3, 1e4)),
        pmax_w=draw(st.just(0.0) | _log_uniform(1e-3, 10.0)),
        leo_bandwidth_hz=draw(_log_uniform(1e5, 1e9)),
        uav_bandwidth_hz=draw(_log_uniform(1e5, 1e8)),
        ds_size_min_bits=ds_min,
        ds_size_max_bits=ds_max,
        storage_capacity_bits=capacity,
        storage_initial_free_bits=capacity * draw(st.floats(0.0, 1.0)),
        solver_mode=draw(st.sampled_from(SOLVER_MODES)),
    )
    cfg.validate()
    return cfg


def _recording(slot_solver, log):
    """``slot_solver`` that also keeps each (context, decision, trace)."""
    def solve(ctx, cfg):
        decision, trace = slot_solver(ctx, cfg)
        log.append((ctx, decision, trace))
        return decision, trace
    return solve


def _assert_physical(cfg, result):
    assert len(result.slot_metrics) == cfg.num_slots
    assert math.isfinite(result.utility_bits)
    for metrics in result.slot_metrics:
        assert math.isfinite(metrics.utility_bits)
        assert np.all(metrics.next_free >= 0.0)
        assert np.all(metrics.next_free <= cfg.storage_capacity_bits)


@PROPERTY_SETTINGS
@given(cfg=configs())
def test_slot_solvers_feasible_bounded_and_finite(cfg):
    state = generate_scenario(cfg, cfg.seed)
    for algo, slot_solver in SLOT_SOLVERS.items():
        log = []
        result = run_horizon(cfg, state, _recording(slot_solver, log))
        _assert_physical(cfg, result)
        assert len(log) == cfg.num_slots
        if algo in FEASIBILITY_CHECKED:
            for slot, (ctx, decision, trace) in enumerate(log):
                if not trace.fallback:
                    report = model.check_feasible(ctx, decision)
                    assert report.ok, (algo, slot, report.violations)


@PROPERTY_SETTINGS
@given(cfg=configs())
def test_ga_bounded_and_finite(cfg):
    cfg = cfg.copy(ga_population=6, ga_generations=2)
    _assert_physical(cfg, run_horizon_ga(cfg, generate_scenario(cfg, cfg.seed)))


# ---------------------------------------------------------------------------
# every config key through the CLI
# ---------------------------------------------------------------------------

# a fleet small enough that four algorithms over two seeds run in
# milliseconds; every accepted size stays within U <= 4, T <= 3,
# population <= 8 and generations <= 3
DEFAULTS = ScenarioConfig()
SMALL = dict(num_uavs=3, num_slots=2, ga_population=8, ga_generations=3)
SIZE_VALUES = {"num_uavs": [1, 2, 3, 4, 0, MAX_UAVS + 1],
               "num_slots": [0, 1, 2, 3, MAX_SLOTS + 1],
               "ga_population": [1, 2, 5, 8, 0],
               "ga_generations": [0, 1, 3, -1]}
# the bounds validate() checks besides zero, with a value just past each
# closed one, and the choices of the string keys
BOUNDS = {
    "k_sens_min": [1], "k_sens_max": [1], "k_tol_min": [1], "k_tol_max": [1],
    "elevation_deg": [-1e-9, 89.999, 90.0],
    "beta": [1.0, 1.0 + 1e-9], "ga_crossover_rate": [1.0, 1.5],
    "ga_mutation_rate": [1.0, -0.5], "ga_elitism": [-1], "ga_tournament": [1],
    "ga_penalty_weight": [-1.0], "seed": [-1], "ga_seed": [None, -1], "i_max": [1],
    "ds_size_min_bits": [DEFAULTS.ds_size_max_bits],
    "storage_initial_free_bits": [DEFAULTS.storage_capacity_bits],
    "ref_gain_db": [-4000.0, 4000.0], "antenna_gain_db": [4000.0],
    **dict.fromkeys(("uav_cpu_hz", "leo_cpu_hz", "switch_cap", "dt_uplink_power_w"), [1e300]),
    "noise_dbm": [-4000.0, 4000.0],
    "algo": list(ALGORITHMS) + ["annealing"], "solver_mode": list(SOLVER_MODES) + ["relaxed"],
}


def _key_value(key):
    """One value for ``key``: eight times in nine log-uniform within 10^+-1
    of the default (over (0, 1] for the shares, rounded up for integers),
    else zero or a bound."""
    if key in SIZE_VALUES:
        return st.sampled_from(SIZE_VALUES[key])
    owner, name, declared = CONFIG_KEYS[key]
    default = getattr(getattr(DEFAULTS, owner) if owner else DEFAULTS, name)
    if declared == "str":
        return st.sampled_from(BOUNDS[key])
    if key in ("beta", "ga_crossover_rate", "ga_mutation_rate"):
        near = st.floats(0.0, 1.0, exclude_min=True)
    elif default is None:
        near = st.integers(0, 2 ** 32)
    else:
        near = st.floats(-1.0, 1.0).map(lambda e: default * 10.0 ** e)
        if declared != "float":
            near = near.map(math.ceil)
    edges = st.sampled_from([0] + BOUNDS.get(key, []))
    return st.sampled_from([near] * 4 + [edges] + [near] * 4).flatmap(lambda pick: pick)


@st.composite
def key_overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), min_size=4, max_size=8,
                         unique=True))
    return {key: draw(_key_value(key)) for key in keys}


def _finite_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            for cell in row.values():
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), row


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(overrides=key_overrides())
# a DS load with no DS band: its upload time overflowed to inf
@example(overrides={"beta": 0.0, "ds_size_max_bits": 4e8})
# omega = 0 priced an overflowed energy at 0 * inf, which wrote nan
@example(overrides={"omega": 0.0, "switch_cap": 1e300})
@example(overrides={"omega": 0.0, "uav_cpu_hz": 1e300})
@example(overrides={"omega": 0.0, "leo_cpu_hz": 1e160})
# a squared clock overflowed under no load: 0 cycle energy times inf
@example(overrides={"ds_size_min_bits": 0.0, "ds_size_max_bits": 0.0, "uav_cpu_hz": 1e300})
@example(overrides={"ds_size_min_bits": 0.0, "ds_size_max_bits": 0.0, "leo_cpu_hz": 1e300})
# the DT uplink's SNR overflowed: a ValueError traceback, or nan and inf
@example(overrides={"omega": 0.0, "dt_uplink_power_w": 1e308})
# inf cycles_per_bit * switch_cap times the zero load: a nan energy bound
@example(overrides={"ds_size_min_bits": 0.0, "ds_size_max_bits": 0.0, "cycles_per_bit": 1e200,
                    "switch_cap": 1e200})
def test_every_key_runs_finite_or_is_config_error(overrides):
    text = "".join(f"{key} = {value}\n" for key, value in {**SMALL, **overrides}.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["compare", "--config", path, "--seeds", "0,1", "--algos",
                         ",".join(ALGORITHMS), "--out", out])
        if code == EXIT_CONFIG:
            assert "configuration error" in err.getvalue(), text
        else:
            assert code in (EXIT_OK, EXIT_INFEASIBLE), text
            _finite_csv(os.path.join(out, "compare.csv"))


# ---------------------------------------------------------------------------
# the magnitude envelope of validate()
# ---------------------------------------------------------------------------

def _zero_or(lo, hi):
    return st.just(0.0) | _log_uniform(lo, hi)


@st.composite
def envelope_configs(draw):
    """A config that validate() accepts, log-uniform over wide ranges of
    the clocks, the switched capacitance, both UAV powers, the DS load,
    omega and the satellite reference gain, each but the clocks and the
    capacitance 0 now and then."""
    ds_max = draw(_zero_or(1.0, 1e200))
    cfg = ScenarioConfig(
        num_uavs=draw(st.integers(1, 4)), num_slots=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2 ** 32)),
        uav_cpu_hz=draw(_log_uniform(1e-20, 1e200)), leo_cpu_hz=draw(_log_uniform(1e-20, 1e200)),
        switch_cap=draw(_log_uniform(1e-200, 1e200)),
        pmax_w=draw(_zero_or(1e-300, 1e300)), dt_uplink_power_w=draw(_zero_or(1e-300, 1e300)),
        ds_size_min_bits=ds_max * draw(st.floats(0.0, 1.0)), ds_size_max_bits=ds_max,
        omega=draw(_zero_or(1e-300, 1e300)),
        # half of them where the DS uplink is neither dead nor instant
        ref_gain_db=draw(st.floats(-3000.0, 3000.0) | st.floats(-250.0, 0.0)))
    try:
        cfg.validate()
    except ConfigError:
        reject()
    return cfg


# where ScenarioConfig.derived_magnitudes puts the largest horizon energy
ENERGY_ROW = -2


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(cfg=envelope_configs())
# a DS uplink that outlasts its slot at full power spends more than the
# radios do in a slot at full power
@example(cfg=ScenarioConfig(num_uavs=2, num_slots=2, ref_gain_db=-100.0))
def test_model_parts_stay_within_the_energy_row(cfg):
    # every Evaluation part at the corners of the decision box is finite,
    # and the horizon's energy, each slot at its costliest corner over its
    # UAVs, is within the horizon energy row
    state = generate_scenario(cfg, cfg.seed)
    _, energy, cap = cfg.derived_magnitudes(state.sat_gain)[ENERGY_ROW]
    assert cap == MAX_ENERGY_J
    spent = 0.0
    corners = [np.array(axis, dtype=float)[:, None] for axis in zip(*itertools.product(
        (0.0, cfg.pmax_w * 2.0 ** -53, cfg.pmax_w), (0.0, cfg.leo_cpu_hz),
        (0.0, cfg.slot_seconds), (0.0, 1.0)))]
    free = np.full(cfg.num_uavs, cfg.storage_initial_free_bits)
    for slot in range(cfg.num_slots):
        ev = model.Evaluation(build_slot_context(cfg, state, slot, free), *corners)
        for part in ("window", "e_ds", "e_comm", "e_uav", "e_leo", "terms"):
            assert np.isfinite(getattr(ev, part)).all(), part
        spent += (ev.e_comm + ev.e_uav + ev.e_leo).sum(axis=-1).max()
    assert spent <= energy * (1 + 1e-9)


# ---------------------------------------------------------------------------
# seeded slots: UAV permutations and the fallback
# ---------------------------------------------------------------------------

# settings that move the slot problem: deadline mode, a nearly full buffer,
# a fleet of 13, a weak radio, and a compute pool small enough that SP2
# scales the shares down to fit it
SLOT_CONFIGS = {
    "default": {}, "strict": dict(solver_mode="strict"),
    "tight-buffer": dict(storage_capacity_bits=2e9, storage_initial_free_bits=1e8),
    "U=13": dict(num_uavs=13),
    "weak-radio": dict(pmax_w=1e-4, ds_size_min_bits=5e6, ds_size_max_bits=5e6),
    "small-pool": dict(leo_cpu_hz=2e9),
}


@pytest.mark.parametrize("overrides", SLOT_CONFIGS.values(), ids=SLOT_CONFIGS.keys())
def test_permuting_the_uavs_permutes_the_decision(overrides):
    # every block is elementwise per UAV but for the pool sum, whose order
    # moves the shares SP2 scales down by rounding only
    scaled = 0
    for seed in range(8):
        for slot in (0, 1):
            ctx, cfg = scenario_ctx(seed, slot, **overrides)
            perm = np.random.default_rng(seed).permutation(cfg.num_uavs)
            permuted = dataclasses.replace(ctx, **{
                f.name: getattr(ctx, f.name)[perm] for f in dataclasses.fields(ctx)
                if isinstance(getattr(ctx, f.name), np.ndarray)})
            for algo, slot_solver in SLOT_SOLVERS.items():
                decision, trace = slot_solver(ctx, cfg)
                got, got_trace = slot_solver(permuted, cfg)
                assert got_trace.fallback == trace.fallback, (algo, seed, slot)
                scaled += trace.budget_scaled > 0
                for f in dataclasses.fields(decision):
                    want = getattr(decision, f.name)[perm]
                    if trace.budget_scaled:
                        np.testing.assert_allclose(getattr(got, f.name), want, rtol=1e-9, atol=0)
                    else:
                        assert getattr(got, f.name).tobytes() == want.tobytes(), (algo, f.name)
    if "leo_cpu_hz" in overrides:
        assert scaled > 0


# paper-relaxed jcorm and no-offload, where some slots neither fall back nor
# have an infeasible fallback (every no-offload slot falls back at the
# tight buffer)
NEVER_BELOW = [(algo, name) for algo in ("jcorm", "no-offload") for name in SLOT_CONFIGS
               if name != "strict" and (algo, name) != ("no-offload", "tight-buffer")]


@pytest.mark.parametrize("algo, config", NEVER_BELOW)
def test_never_below_a_feasible_fallback(algo, config):
    # on a horizon the on-board fallback can start forwarding before the
    # buffer's backlog floor, which scores the bits it cannot send; the
    # slots where it is feasible must not score below it. Strict-mode
    # jcorm and ATSM do end below it (README, "Slot solvers against the
    # fallback")
    compared = 0
    for seed in range(6):
        cfg = ScenarioConfig(seed=seed, algo=algo, **SLOT_CONFIGS[config])
        log = []
        run_horizon(cfg, generate_scenario(cfg, seed), _recording(SLOT_SOLVERS[algo], log))
        for slot, (ctx, decision, trace) in enumerate(log):
            safe = fallback_decision(ctx)
            if trace.fallback or not model.check_feasible(ctx, safe).ok:
                continue
            compared += 1
            assert model.slot_objective_mbit(ctx, decision) >= \
                model.slot_objective_mbit(ctx, safe), (seed, slot)
    assert compared >= 10
