"""Property tests over configs that ``validate()`` accepts: every slot a
rotation solver does not hand to the fallback is feasible on its own
context, the buffer stays within [0, capacity], and utility is finite.

RuntimeWarning is an error here as in the whole suite (pyproject.toml), so
a property run that overflows or divides by zero fails too."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jcorm import model
from jcorm.baselines import run_horizon_ga, solve_slot_atsm, solve_slot_no_offload
from jcorm.config import SOLVER_MODES, ScenarioConfig
from jcorm.scenario import generate_scenario
from jcorm.solver import run_horizon, solve_slot_jcorm

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
