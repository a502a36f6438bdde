"""Experiment harness: single runs, parameter sweeps, paired-seed algorithm
comparisons, CSV persistence, and self-contained SVG line plots.

The CSV files are the contract; plots are a convenience. One detail row per
(algorithm, axis value, seed, slot), one run row per (algorithm, axis value,
seed), and mean/std aggregate rows per (algorithm, axis value). Floats are
serialized with 9 significant digits, which is what the byte-identical
determinism guarantee is stated over.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .baselines import run_horizon_ga, solve_slot_atsm, solve_slot_no_offload
from .config import ConfigError, ScenarioConfig
from .scenario import UNREAD_FIELDS, generate_scenario, generate_scenarios
from .solver import FIGURES, HorizonResult, run_horizon, run_horizons, solve_slot_jcorm, stack_key


# ---------------------------------------------------------------------------
# single experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult(HorizonResult):
    """One algorithm run over one scenario horizon."""

    algorithm: str
    seed: int


_SLOT_SOLVERS = {
    "jcorm": solve_slot_jcorm,
    "atsm": solve_slot_atsm,
    "no-offload": solve_slot_no_offload,
}


def run_experiment(cfg: ScenarioConfig) -> ExperimentResult:
    """Generate the scenario for ``cfg.seed`` and run ``cfg.algo`` over the
    horizon. The genetic algorithm searches the whole horizon at once; the
    other algorithms decide slot by slot."""
    cfg.validate()
    state = generate_scenario(cfg, cfg.seed)
    if cfg.algo == "ga":
        horizon = run_horizon_ga(cfg, state)
    else:
        horizon = run_horizon(cfg, state, _SLOT_SOLVERS[cfg.algo])
    return ExperimentResult(**vars(horizon), algorithm=cfg.algo, seed=cfg.seed)


# ---------------------------------------------------------------------------
# sweep axes
# ---------------------------------------------------------------------------

def _plain_axis(name):
    def setter(cfg, value):
        return cfg.copy(**{name: value})
    return setter


def _set_ds_size(cfg, value):
    # the axis value is the exact per-device DS task volume
    return cfg.copy(ds_size_min_bits=value, ds_size_max_bits=value)


def _set_storage_capacity(cfg, value):
    free = min(cfg.storage_initial_free_bits, value)
    return cfg.copy(storage_capacity_bits=value, storage_initial_free_bits=free)


SWEEP_AXES = {
    "leo_bandwidth_hz": _plain_axis("leo_bandwidth_hz"),
    "uav_bandwidth_hz": _plain_axis("uav_bandwidth_hz"),
    "ds_size_bits": _set_ds_size,
    "storage_capacity_bits": _set_storage_capacity,
    "storage_initial_free_bits": _plain_axis("storage_initial_free_bits"),
    "rician_k0": _plain_axis("rician_k0"),
    "omega": _plain_axis("omega"),
    "beta": _plain_axis("beta"),
    "pmax_w": _plain_axis("pmax_w"),
    "num_uavs": _plain_axis("num_uavs"),
}


def apply_axis(cfg: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    """Return a copy of ``cfg`` with the sweep axis set to ``value``."""
    if axis not in SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; known axes: {sorted(SWEEP_AXES)}")
    return SWEEP_AXES[axis](cfg, value)


# ---------------------------------------------------------------------------
# result rows and CSV persistence
# ---------------------------------------------------------------------------

# wall-clock stays out of the CSV: identical inputs must give byte-identical
# files, and timings are not reproducible
CSV_COLUMNS = ("algorithm", "axis", "value", "seed", "slot", "kind",
               "utility_bits", "uplinked_bits", "energy_j", "ds_delay_s",
               "infeasible_slots")

_FLOAT_COLUMNS = {"value", "utility_bits", "uplinked_bits", "energy_j",
                  "ds_delay_s"}
_INT_COLUMNS = {"seed", "slot", "infeasible_slots"}


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def result_rows(result: ExperimentResult, axis: str = "", value=None) -> list:
    """Flatten one experiment into slot rows plus one run row."""
    rows = []
    bad = set(result.infeasible_slots)
    for t, figures in enumerate(result.figures.tolist()):
        rows.append({
            "algorithm": result.algorithm, "axis": axis, "value": value,
            "seed": result.seed, "slot": t, "kind": "slot",
            **dict(zip(FIGURES, figures)),
            "infeasible_slots": int(t in bad),
        })
    rows.append({
        "algorithm": result.algorithm, "axis": axis, "value": value,
        "seed": result.seed, "slot": None, "kind": "run",
        "utility_bits": result.utility_bits,
        "uplinked_bits": result.total_uplinked_bits,
        "energy_j": result.total_energy_j,
        "ds_delay_s": result.mean_ds_delay_s,
        "infeasible_slots": len(result.infeasible_slots),
    })
    return rows


def _finite_stat(stat, values: list) -> float:
    """``stat`` (np.mean or np.std) of the values. Where finite values
    overflow it (the std squares them), it is taken on the values divided
    by their largest magnitude and scaled back, so it stays finite."""
    if not all(map(math.isfinite, values)):
        return float(stat(values))
    with np.errstate(over="ignore", invalid="ignore"):
        out = float(stat(values))
    if not math.isfinite(out):
        scale = max(map(abs, values))
        out = float(stat(np.divide(values, scale))) * scale
    return out


def aggregate_rows(rows: list) -> list:
    """Mean and population-std rows per (algorithm, axis value), computed
    over the run rows, appended in first-seen group order."""
    groups: dict = {}
    for row in rows:
        if row["kind"] != "run":
            continue
        key = (row["algorithm"], row["axis"], row["value"])
        groups.setdefault(key, []).append(row)
    out = []
    for (algo, axis, value), runs in groups.items():
        for kind, stat in (("mean", np.mean), ("std", np.std)):
            agg = {
                "algorithm": algo, "axis": axis, "value": value,
                "seed": None, "slot": None, "kind": kind,
                "infeasible_slots": int(sum(r["infeasible_slots"] for r in runs))
                if kind == "mean" else None,
            }
            for metric in FIGURES:
                agg[metric] = _finite_stat(stat, [r[metric] for r in runs])
            out.append(agg)
    return out


# the ``_fmt`` of a value of each exact type, as the replacement field of
# the value at a given position of a line
_CELL_FORMATS = {type(None): "", str: "{{{0}}}", int: "{{{0}}}", float: "{{{0}:.9g}}"}


def _line_format(types: tuple):
    """The format string of a CSV line whose values have these exact
    types, or None where one has another type."""
    if not set(types) <= _CELL_FORMATS.keys():
        return None
    return ",".join(_CELL_FORMATS[t].format(i) for i, t in enumerate(types)) + "\n"


def write_csv(rows: list, path: str) -> None:
    """Write the rows in CSV_COLUMNS order, each value as ``_fmt`` gives it.
    A row is one format call, by a format string chosen by its values'
    types. A row with a value of another type, or with a string that CSV
    must quote (a delimiter, quote or line break makes its line hold more
    commas or line breaks than the columns, or a quote), goes through
    ``csv.writer`` value by value instead."""
    formats: dict = {}
    commas = len(CSV_COLUMNS) - 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            # not tuple(map(...)): such a tuple is resized as it fills, and
            # CPython's free lists kept one per row written
            values = [row.get(col) for col in CSV_COLUMNS]
            types = tuple([type(value) for value in values])
            if types not in formats:
                formats[types] = _line_format(types)
            line = formats[types]
            if line is not None:
                line = line.format(*values)
                if (line.count(",") == commas and line.count("\n") == 1
                        and '"' not in line and "\r" not in line):
                    fh.write(line)
                    continue
            writer.writerow([_fmt(value) for value in values])


def read_csv(path: str) -> list:
    """Read rows written by write_csv, parsing numeric columns back. Empty
    cells come back as None."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ConfigError(f"{path}: unexpected CSV header {reader.fieldnames}")
        for raw in reader:
            row = {}
            for col in CSV_COLUMNS:
                cell = raw[col]
                if cell == "":
                    row[col] = None
                elif col in _INT_COLUMNS:
                    row[col] = int(cell)
                elif col in _FLOAT_COLUMNS:
                    row[col] = float(cell)
                else:
                    row[col] = cell
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# sweeps and comparisons
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    axis: str
    values: list
    seeds: list
    algorithms: list
    rows: list                    # slot + run + aggregate rows, CSV-ready

    def stat_metric(self, algorithm: str, metric: str, kind: str = "mean") -> np.ndarray:
        """Aggregate metric per axis value, in self.values order."""
        table = {row["value"]: row[metric] for row in self.rows
                 if row["kind"] == kind and row["algorithm"] == algorithm}
        return np.array([table[v] for v in self.values], dtype=float)


# most UAV-slots (scenarios x fleet size x horizon) that one part of a
# sweep or compare holds at once. A part keeps its scenarios alive while
# every algorithm's stack runs on them, and its scenario tables, a
# stack's joined tables and the rotation's per-slot temporaries grow with
# U x T per scenario. Calibrated from the cells/s and peak RSS of
# compares at U in {6, 96, 1024} (README, "Parts and batches")
PART_UAV_SLOTS = 1 << 16

# every config field that generate_scenario may read keys the scenario
_BATCH_FIELDS = tuple(f.name for f in fields(ScenarioConfig)
                      if f.name not in UNREAD_FIELDS and f.name != "seed")


def _scenario_key(cfg: ScenarioConfig) -> tuple:
    """Cells with equal keys draw the same scenario. The key is (batch key,
    seed): scenarios whose batch keys are equal differ only in the seed,
    so they are generated as one batch. Any field not known to be unread
    by the scenario enters the key, so a new field can only lose sharing.
    Floats enter by their bits: 0.0 and -0.0 are equal but may draw
    apart."""
    batch = tuple(value.hex() if isinstance(value, float) else value
                  for value in (getattr(cfg, name) for name in _BATCH_FIELDS))
    return batch, cfg.seed


def _group_key(cfg: ScenarioConfig) -> tuple:
    """Cells with equal keys share an algorithm, ``solver.stack_key`` and
    buffer capacity, so their slots are solved and metered together as one
    stacked rotation. With one capacity, the stacked context holds it as a
    scalar, so a stack's next_free can be checked against one number (as
    the benchmark's traced storage check in bench/tracing.py does)."""
    return (cfg.algo, *stack_key(cfg), cfg.storage_capacity_bits)


def _run_group(cells: list, states: list) -> list:
    """Rows of each (config, axis, value) cell of one group, in order, on
    the cells' scenarios. The GA searches each cell's horizon on its own.
    A stack keeps no per-slot records, since the rows read only its
    figures."""
    cfgs = [cfg for cfg, _, _ in cells]
    if cfgs[0].algo == "ga":
        horizons = [run_horizon_ga(cfg, state) for cfg, state in zip(cfgs, states)]
    else:
        horizons = run_horizons(cfgs, states, _SLOT_SOLVERS[cfgs[0].algo],
                                keep_records=False)
    return [result_rows(ExperimentResult(**vars(h), algorithm=cfg.algo, seed=cfg.seed),
                        axis=axis, value=value)
            for h, (cfg, axis, value) in zip(horizons, cells)]


def _run_part(keyed: list) -> list:
    """Rows of each (config, axis, value) cell of one part, in order, from
    its (scenario key, cell) pairs. The part's distinct scenarios that
    differ only in the seed are generated as one batch, and each scenario
    is shared by every algorithm's cells; the cells then run as one stack
    per ``_group_key``."""
    batches: dict = {}
    for (batch, seed), (cfg, _, _) in keyed:
        batches.setdefault(batch, {}).setdefault(seed, cfg)
    states = {}
    for batch, seeds in batches.items():
        drawn = generate_scenarios(next(iter(seeds.values())), seeds)
        states.update(((batch, seed), state) for seed, state in zip(seeds, drawn))
    groups: dict = {}
    for i, (_, (cfg, _, _)) in enumerate(keyed):
        groups.setdefault(_group_key(cfg), []).append(i)
    per_cell = [None] * len(keyed)
    for members in groups.values():
        rows = _run_group([keyed[i][1] for i in members], [states[keyed[i][0]] for i in members])
        for i, cell_rows in zip(members, rows):
            per_cell[i] = cell_rows
    return per_cell


def _cut_parts(cells: list, keys: list, workers: int) -> list:
    """Cell indices of each part. A fleet (the cells that share ``num_uavs``
    and ``num_slots``) is cut by scenario: its distinct scenarios are split
    into near-equal contiguous chunks of at most ``PART_UAV_SLOTS``
    UAV-slots in all, and at least ``workers`` chunks, and a part runs every
    cell of its chunk's scenarios. A fleet with fewer scenarios than
    workers is cut by cell instead: each scenario's cells are split into
    enough parts for every worker, and each part generates its one
    scenario."""
    by_fleet: dict = {}
    for i, (cfg, _, _) in enumerate(cells):
        fleet = by_fleet.setdefault((cfg.num_uavs, cfg.num_slots), {})
        fleet.setdefault(keys[i], []).append(i)
    parts = []
    for (num_uavs, num_slots), scenarios in by_fleet.items():
        keyed = list(scenarios.values())
        if len(keyed) < workers:
            per_scenario = -(-workers // len(keyed))
            for members in keyed:
                parts.extend(chunk.tolist() for chunk in
                             np.array_split(members, min(per_scenario, len(members))))
            continue
        per_part = max(1, PART_UAV_SLOTS // max(1, num_uavs * num_slots))
        count = max(-(-len(keyed) // per_part), workers)
        for chunk in np.array_split(np.arange(len(keyed)), count):
            parts.append(sorted(i for k in chunk for i in keyed[k]))
    return parts


def _run_cells(cells: list, workers: int = 1) -> list:
    """Slot and run rows of every (config, axis, value) cell, in cell order.
    Every cell is validated before any runs. The cells are cut into parts
    (see ``_cut_parts``), which bounds the memory a part holds; with
    ``workers > 1`` the parts run over at most that many processes, one per
    part and CPU. Rows do not depend on the cut."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    for cfg, _, _ in cells:
        cfg.validate()
    keys = [_scenario_key(cfg) for cfg, _, _ in cells]
    cpus = os.cpu_count() or 1
    # a cut for more workers than CPUs would only split work no process runs
    parts = _cut_parts(cells, keys, min(workers, cpus))
    jobs = [[(keys[i], cells[i]) for i in part] for part in parts]
    # the pool forks all its processes up front, so size it to the work
    processes = min(workers, len(jobs), cpus)
    if processes > 1:
        # imported here: the pool's modules cost a serial run about 1.3 MB of RSS
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            done = list(pool.map(_run_part, jobs))
    else:
        done = map(_run_part, jobs)
    per_cell = [None] * len(cells)
    for part, part_rows in zip(parts, done):
        for i, cell_rows in zip(part, part_rows):
            per_cell[i] = cell_rows
    return [row for cell_rows in per_cell for row in cell_rows]


def _check_lists(**lists) -> None:
    # a repeated entry (==, so 4 and 4.0 are one) would run again and be
    # pooled as another sample
    for name, items in lists.items():
        if not items:
            raise ConfigError(f"the {name} list is empty")
        if len(set(items)) < len(items):
            repeat = next(item for i, item in enumerate(items) if item in items[:i])
            raise ConfigError(f"the {name} list repeats {repeat!r}")


def run_sweep(base_cfg: ScenarioConfig, axis: str, values, seeds,
              algorithms=None, workers: int = 1) -> SweepResult:
    """Run every (algorithm, axis value, seed) cell and assemble the row
    table (see ``_run_cells``). ``algorithms`` defaults to the base
    config's; an empty list, or one that repeats an entry, is a
    ``ConfigError``. Assembly order is fixed whatever the grouping and
    ``workers``, keeping the CSV byte-identical for identical inputs."""
    algorithms = [base_cfg.algo] if algorithms is None else list(algorithms)
    values = list(values)
    seeds = list(seeds)
    _check_lists(algorithms=algorithms, values=values, seeds=seeds)
    cells = [(apply_axis(base_cfg, axis, value).copy(algo=algo, seed=seed), axis, value)
             for algo in algorithms for value in values for seed in seeds]
    rows = _run_cells(cells, workers)
    rows.extend(aggregate_rows(rows))
    return SweepResult(axis, values, seeds, algorithms, rows)


def run_compare(base_cfg: ScenarioConfig, algorithms, seeds) -> SweepResult:
    """Paired-seed comparison of several algorithms at a fixed configuration.
    Modeled as a degenerate sweep over the single value None."""
    algorithms = list(algorithms)
    seeds = list(seeds)
    _check_lists(algorithms=algorithms, seeds=seeds)
    cells = [(base_cfg.copy(algo=algo, seed=seed), "", None)
             for algo in algorithms for seed in seeds]
    rows = _run_cells(cells)
    rows.extend(aggregate_rows(rows))
    return SweepResult("", [None], seeds, algorithms, rows)


# ---------------------------------------------------------------------------
# SVG line plots (self-contained, no renderer dependencies)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_METRIC_LABELS = {
    "utility_bits": "cumulative utility (bits)",
    "uplinked_bits": "total uplinked data (bits)",
    "energy_j": "total energy (J)",
    "ds_delay_s": "mean DS completion time (s)",
}


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def render_svg_lines(title: str, x_label: str, y_label: str, x_values,
                     series: dict) -> str:
    """Render line series {name: (means, stds)} into an SVG string."""
    width, height = 640, 440
    left, right, top, bottom = 80, 20, 40, 60
    pw, ph = width - left - right, height - top - bottom

    xs = np.asarray(x_values, dtype=float)
    ys = np.concatenate([np.asarray(m, dtype=float) for m, _ in series.values()])
    es = np.concatenate([np.asarray(s, dtype=float) for _, s in series.values()])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo = float(np.min(ys - es))
    y_hi = float(np.max(ys + es))
    pad = 0.05 * (y_hi - y_lo) or max(abs(y_hi), 1.0) * 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return top + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(xt):.1f}" y1="{top + ph}" x2="{sx(xt):.1f}" '
                     f'y2="{top + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{sx(xt):.1f}" y="{top + ph + 18}" '
                     f'text-anchor="middle">{format(xt, ".4g")}</text>')
    for yt in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{left - 5}" y1="{sy(yt):.1f}" x2="{left}" '
                     f'y2="{sy(yt):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{left - 8}" y="{sy(yt) + 4:.1f}" '
                     f'text-anchor="end">{format(yt, ".4g")}</text>')
    parts.append(f'<text x="{left + pw / 2:.1f}" y="{height - 15}" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="20" y="{top + ph / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 20 {top + ph / 2:.1f})">{y_label}</text>')

    for i, (name, (means, stds)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        means = np.asarray(means, dtype=float)
        stds = np.asarray(stds, dtype=float)
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, means))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        for x, y, e in zip(xs, means, stds):
            if e > 0:
                parts.append(f'<line x1="{sx(x):.2f}" y1="{sy(y - e):.2f}" '
                             f'x2="{sx(x):.2f}" y2="{sy(y + e):.2f}" '
                             f'stroke="{color}" stroke-width="1"/>')
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        ly = top + 14 + 16 * i
        parts.append(f'<line x1="{left + pw - 120}" y1="{ly - 4}" '
                     f'x2="{left + pw - 96}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{left + pw - 90}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def check_formats(formats) -> tuple:
    """The output formats of ``write_sweep_outputs``: a non-empty list
    from csv and svg, else a ``ConfigError`` naming the first other
    token."""
    formats = tuple(formats)
    if not formats:
        raise ConfigError("no output format given; choose from csv, svg")
    for token in formats:
        if token not in ("csv", "svg"):
            raise ConfigError(f"unknown output format {token!r}; choose from csv, svg")
    return formats


def write_sweep_outputs(result: SweepResult, out_dir: str,
                        formats=("csv", "svg")) -> list:
    """Persist a sweep: one CSV, and one SVG per metric when requested
    (see ``check_formats``). Returns the written paths."""
    formats = check_formats(formats)
    os.makedirs(out_dir, exist_ok=True)
    stem = result.axis or "compare"
    written = []
    if "csv" in formats:
        path = os.path.join(out_dir, f"{stem}.csv")
        write_csv(result.rows, path)
        written.append(path)
    if "svg" in formats and result.axis and result.values:
        xs = [float(v) for v in result.values]
        for metric, label in _METRIC_LABELS.items():
            series = {}
            for algo in result.algorithms:
                means = result.stat_metric(algo, metric, "mean")
                stds = result.stat_metric(algo, metric, "std")
                series[algo] = (means, stds)
            svg = render_svg_lines(f"{metric} vs {result.axis}", result.axis,
                                   label, xs, series)
            path = os.path.join(out_dir, f"{stem}_{metric}.svg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(svg)
            written.append(path)
    return written
