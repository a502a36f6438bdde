"""Command-line entry point.

Subcommands:
  run      one experiment (one algorithm, one seed)
  sweep    parameter sweep over an axis, aggregated over seeds
  compare  paired-seed comparison of several algorithms
  oracle   debug grid search around the solver's decision on one slot

Exit codes: 0 success, 2 configuration error, 3 at least one slot needed the
infeasibility fallback (results are still written).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import (ALGORITHMS, SOLVER_MODES, ConfigError, ScenarioConfig, coerce,
                     load_config)
from . import harness
from .oracle import grid_joint, grid_sp1, grid_sp2, grid_sp3, grid_sp4
from .scenario import build_slot_context, generate_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _parse_floats(text: str) -> list:
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"cannot parse value list {text!r}") from None


def _parse_seeds(text: str) -> list:
    return [coerce("seed", token) for token in text.replace(",", " ").split()]


def _base_config(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.algo is not None:
        overrides["algo"] = args.algo
    if getattr(args, "mode", None) is not None:
        overrides["solver_mode"] = args.mode
    if overrides:
        cfg = cfg.copy(**overrides)
    cfg.validate()
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", default=None, help="scenario seed")
    parser.add_argument("--algo", choices=ALGORITHMS, default=None,
                        help="algorithm selector")
    parser.add_argument("--mode", choices=SOLVER_MODES, default=None,
                        help="deadline handling inside the slot solver")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", default="csv,svg",
                        help="comma-separated outputs: csv,svg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcorm",
        description="Satellite-UAV-IoT data collection and offloading simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="sweep one config axis over seeds")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         help=f"one of {sorted(harness.SWEEP_AXES)}")
    p_sweep.add_argument("--values", required=True,
                         help="axis values, comma or space separated")
    p_sweep.add_argument("--seeds", default="0",
                         help="seed list, comma or space separated")
    p_sweep.add_argument("--algos", default=None,
                         help="comma-separated algorithms (default: --algo)")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="most processes (>= 1); each fleet's cells are cut into "
                              "at least this many parts, up to the CPU count")

    p_cmp = sub.add_parser("compare", help="paired-seed algorithm comparison")
    _add_common(p_cmp)
    p_cmp.add_argument("--algos", default="jcorm,atsm,ga,no-offload",
                       help="comma-separated algorithms")
    p_cmp.add_argument("--seeds", default="0",
                       help="seed list, comma or space separated")

    p_orc = sub.add_parser("oracle", help="grid search one slot (debug)")
    _add_common(p_orc)
    p_orc.add_argument("--slot", type=int, default=0, help="slot index")
    p_orc.add_argument("--points", type=int, default=None,
                       help="joint grid points per axis (with --joint; default 15)")
    p_orc.add_argument("--joint", action="store_true",
                       help="also run the joint grid (needs <= 2 UAVs)")
    return parser


def _cmd_run(args) -> int:
    cfg = _base_config(args)
    result = harness.run_experiment(cfg)
    rows = harness.result_rows(result)
    rows.extend(harness.aggregate_rows(rows))
    os.makedirs(args.out, exist_ok=True)
    formats = args.format.split(",")
    path = os.path.join(args.out, f"run_{cfg.algo}_seed{cfg.seed}.csv")
    if "csv" in formats:
        harness.write_csv(rows, path)
    print(f"algorithm {cfg.algo}  seed {cfg.seed}  slots {len(result.figures)}")
    print(f"utility {result.utility_bits:.6g} bits  "
          f"uplinked {result.total_uplinked_bits:.6g} bits  "
          f"energy {result.total_energy_j:.6g} J  "
          f"mean DS delay {result.mean_ds_delay_s:.6g} s")
    print(f"wall {result.wall_seconds:.3f} s  "
          f"infeasible slots {result.infeasible_slots}")
    if "csv" in formats:
        print(f"wrote {path}")
    return EXIT_INFEASIBLE if result.infeasible_slots else EXIT_OK


def _sweep_common(args, result) -> int:
    formats = tuple(args.format.split(","))
    written = harness.write_sweep_outputs(result, args.out, formats)
    for path in written:
        print(f"wrote {path}")
    infeasible = sum(r["infeasible_slots"] for r in result.rows
                     if r["kind"] == "run")
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _base_config(args)
    values = _parse_floats(args.values)
    seeds = _parse_seeds(args.seeds)
    algos = args.algos.split(",") if args.algos else None
    result = harness.run_sweep(cfg, args.axis, values, seeds,
                               algorithms=algos, workers=args.workers)
    for algo in result.algorithms:
        means = result.stat_metric(algo, "utility_bits", "mean")
        pretty = ", ".join(format(m, ".6g") for m in means)
        print(f"{algo}: mean utility over {args.axis} = [{pretty}] bits")
    return _sweep_common(args, result)


def _cmd_compare(args) -> int:
    cfg = _base_config(args)
    algos = args.algos.split(",")
    seeds = _parse_seeds(args.seeds)
    result = harness.run_compare(cfg, algos, seeds)
    for algo in algos:
        mean = result.stat_metric(algo, "utility_bits", "mean")[0]
        std = result.stat_metric(algo, "utility_bits", "std")[0]
        print(f"{algo:12s} mean utility {mean:.6g} bits  (std {std:.6g}, "
              f"{len(seeds)} seeds)")
    return _sweep_common(args, result)


def _cmd_oracle(args) -> int:
    cfg = _base_config(args)
    if not 0 <= args.slot < cfg.num_slots:
        raise ConfigError(f"slot {args.slot} outside [0, {cfg.num_slots})")
    if args.points is not None and not args.joint:
        raise ConfigError("--points sets the joint grid and needs --joint")
    points = 15 if args.points is None else args.points
    if args.joint and cfg.num_uavs > 2:
        raise ConfigError(f"--joint needs at most 2 UAVs, got {cfg.num_uavs}")
    if args.joint and not 2 <= points <= 25:
        raise ConfigError(f"--joint needs --points in [2, 25], got {points}")
    state = generate_scenario(cfg, cfg.seed)
    storage = np.full(cfg.num_uavs, cfg.storage_initial_free_bits)
    ctx = build_slot_context(cfg, state, args.slot, storage)
    from .solver import solve_slot_jcorm
    decision, trace = solve_slot_jcorm(ctx, cfg)
    print(f"slot {args.slot}: solver objective "
          f"{trace.objective_mbit[-1] if trace.objective_mbit else float('nan'):.6f} Mbit "
          f"in {len(trace.objective_mbit)} passes")
    for name, fn in (("power", grid_sp1), ("compute", grid_sp2),
                     ("start", grid_sp3), ("ratio", grid_sp4)):
        res = fn(ctx, decision)
        best = np.array2string(res.best, precision=4)
        print(f"  {name:8s} grid best per UAV: {best}")
    if args.joint:
        joint = grid_joint(ctx, points)
        if joint.feasible:
            print(f"  joint grid optimum {joint.best_obj_mbit:.6f} Mbit")
        else:
            print("  joint grid found no feasible cell")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return int(exc.code or 0)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "compare": _cmd_compare, "oracle": _cmd_oracle}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
