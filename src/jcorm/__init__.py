"""Joint communication-compute resource management for a satellite-backed
UAV sensing network: slot simulator, block-rotation optimizer, baselines,
grid-search reference solvers, and an experiment harness."""

from .baselines import run_horizon_ga, solve_slot_atsm, solve_slot_no_offload
from .config import (ConfigError, GaConfig, ScenarioConfig, ToleranceConfig,
                     load_config, load_config_text)
from .harness import (ExperimentResult, SweepResult, run_compare,
                      run_experiment, run_sweep)
from .model import SlotContext, SlotDecision, SlotMetrics
from .oracle import grid_axes, grid_joint, grid_sp1, grid_sp2, grid_sp3, grid_sp4
from .scenario import NetworkState, build_slot_context, generate_scenario
from .solver import HorizonResult, run_horizon, run_horizons, solve_slot_jcorm

__all__ = [
    "ConfigError",
    "GaConfig",
    "ScenarioConfig",
    "ToleranceConfig",
    "load_config",
    "load_config_text",
    "SlotContext",
    "SlotDecision",
    "SlotMetrics",
    "NetworkState",
    "build_slot_context",
    "generate_scenario",
    "HorizonResult",
    "run_horizon",
    "run_horizons",
    "solve_slot_jcorm",
    "solve_slot_atsm",
    "solve_slot_no_offload",
    "run_horizon_ga",
    "grid_axes",
    "grid_sp1",
    "grid_sp2",
    "grid_sp3",
    "grid_sp4",
    "grid_joint",
    "ExperimentResult",
    "SweepResult",
    "run_experiment",
    "run_sweep",
    "run_compare",
]

__version__ = "0.1.0"
