"""The three workloads of the jcorm benchmark and the checks on their output.

Each workload is a closed loop with one client: a round runs the whole input
set once, serially, through the public harness API, and writes the files the
matching ``jcorm`` subcommand writes. The input set is a fixed function of
the seed base, so every round of one run repeats the same work and must
produce byte-identical CSV files. Why each workload exists is in README.md.

The harness is always reached as ``harness.<name>`` at call time, so the
traced run can wrap those functions from the benchmark's own files.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import traceback
from dataclasses import dataclass, field

from jcorm import ConfigError, ScenarioConfig, harness

SLOTS = ScenarioConfig().num_slots          # T of every cell
ROW_FLOATS = ("utility_bits", "uplinked_bits", "energy_j", "ds_delay_s")
ALGORITHMS = ("jcorm", "atsm", "ga", "no-offload")


def scenario_seeds(seed_base: int, count: int) -> list:
    """Scenario seeds of one run: disjoint blocks for distinct seed bases."""
    return [seed_base * 1000 + i for i in range(count)]


@dataclass
class Outcome:
    """What one round produced: CSV rows in file order, the files written,
    and its cells attempted and failed."""

    rows: list
    csv_paths: list
    attempted: int
    failed: int = 0
    expected_rows: int = 0


@dataclass
class Workload:
    """One workload: its cell configurations and the harness call that runs
    them. ``cells`` are built and validated in the constructor, which is
    the part of set-up that the set-up probe times."""

    seed_base: int
    cells: list = field(init=False)

    def __post_init__(self):
        self.cells = self.build_cells()
        for cfg in self.cells:
            cfg.validate()

    def build_cells(self) -> list:
        raise NotImplementedError

    def run(self, out_dir: str) -> Outcome:
        raise NotImplementedError


class SingleRuns(Workload):
    """Independent ``run_experiment`` calls, each followed by the
    ``write_csv`` that ``jcorm run`` performs."""

    name = "single-runs"
    seeds_per_round = 8

    def build_cells(self):
        return [ScenarioConfig(seed=s, algo=a)
                for s in scenario_seeds(self.seed_base, self.seeds_per_round)
                for a in ALGORITHMS]

    def run(self, out_dir):
        rows, paths, failed = [], [], 0
        for cfg in self.cells:
            try:
                result = harness.run_experiment(cfg)
            except Exception:
                # one failing cell must not stop the others; it is counted
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            cell_rows = harness.result_rows(result)
            cell_rows.extend(harness.aggregate_rows(cell_rows))
            path = os.path.join(out_dir, f"run_{cfg.algo}_seed{cfg.seed}.csv")
            harness.write_csv(cell_rows, path)
            rows.extend(cell_rows)
            paths.append(path)
        ok = len(self.cells) - failed
        return Outcome(rows, paths, len(self.cells), failed,
                       expected_rows=ok * (SLOTS + 1 + 2))


class _GroupedRun(Workload):
    """A workload that is one harness call over all cells; if that call
    raises, every cell of the round is lost and counts as failed."""

    algorithms: tuple = ()
    axis_values: tuple = (None,)

    def call(self):
        raise NotImplementedError

    def run(self, out_dir):
        try:
            result = self.call()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Outcome([], [], len(self.cells), len(self.cells))
        formats = ("csv", "svg") if result.axis else ("csv",)
        written = harness.write_sweep_outputs(result, out_dir, formats)
        groups = len(self.algorithms) * len(self.axis_values)
        return Outcome(result.rows, [p for p in written if p.endswith(".csv")],
                       len(self.cells), 0,
                       expected_rows=len(self.cells) * (SLOTS + 1) + 2 * groups)


class SweepBandwidth(_GroupedRun):
    """One ``run_sweep`` over the satellite band, then the CSV and SVG files
    of ``jcorm sweep``."""

    name = "sweep-bandwidth"
    axis = "leo_bandwidth_hz"
    axis_values = (20e6, 25e6, 30e6, 35e6, 40e6)
    algorithms = ("jcorm", "no-offload")
    seeds_per_round = 4

    def build_cells(self):
        self.base = ScenarioConfig()
        self.seeds = scenario_seeds(self.seed_base, self.seeds_per_round)
        return [harness.apply_axis(self.base, self.axis, v).copy(algo=a, seed=s)
                for a in self.algorithms for v in self.axis_values for s in self.seeds]

    def call(self):
        return harness.run_sweep(self.base, self.axis, self.axis_values,
                                 self.seeds, algorithms=self.algorithms)


class FleetLarge(_GroupedRun):
    """One ``run_compare`` with a 96-UAV fleet, then the CSV of
    ``jcorm compare``."""

    name = "fleet-large"
    num_uavs = 96
    algorithms = ("atsm", "no-offload")
    seeds_per_round = 20

    def build_cells(self):
        self.base = ScenarioConfig(num_uavs=self.num_uavs)
        self.seeds = scenario_seeds(self.seed_base, self.seeds_per_round)
        return [self.base.copy(algo=a, seed=s)
                for a in self.algorithms for s in self.seeds]

    def call(self):
        return harness.run_compare(self.base, self.algorithms, self.seeds)


WORKLOADS = {w.name: w for w in (SingleRuns, SweepBandwidth, FleetLarge)}


# ---------------------------------------------------------------------------
# checks on a round's output
# ---------------------------------------------------------------------------

def nonfinite_runs(rows: list) -> int:
    """Cells whose run row carries a non-finite utility, energy or delay."""
    return sum(1 for row in rows if row["kind"] == "run"
               and not all(math.isfinite(row[c]) for c in ROW_FLOATS))


def _as_written(value):
    """A row value as it reads back from the CSV: nine significant digits,
    and an empty cell for ``None`` or ``""``."""
    if value is None or value == "":
        return None
    if isinstance(value, float):
        return float(format(value, ".9g"))
    return value


def check_outcome(outcome: Outcome) -> list:
    """Problems with one round's output; an empty list means it is correct.

    Every row is finite, the row count is cells x (T + 1) plus the
    aggregate rows, and the CSV files read back through ``read_csv`` (which
    rejects an unexpected header) to the rows that were written."""
    problems = []
    bad = [i for i, row in enumerate(outcome.rows)
           if not all(row[c] is not None and math.isfinite(row[c]) for c in ROW_FLOATS)]
    if bad:
        problems.append(f"{len(bad)} rows with non-finite values, first row {bad[0]}")
    if len(outcome.rows) != outcome.expected_rows:
        problems.append(f"{len(outcome.rows)} rows, expected {outcome.expected_rows}")
    read = []
    try:
        for path in outcome.csv_paths:
            read.extend(harness.read_csv(path))
    except ConfigError as exc:
        return problems + [str(exc)]
    written = [{c: _as_written(row.get(c)) for c in harness.CSV_COLUMNS}
               for row in outcome.rows]
    if len(read) != len(written):
        problems.append(f"CSV holds {len(read)} rows, {len(written)} were written")
    else:
        for i, (got, want) in enumerate(zip(read, written)):
            # NaN never compares equal; the finiteness check reports it
            if got != want and not bad:
                problems.append(f"CSV row {i} reads back as {got}, wrote {want}")
                break
    return problems


def csv_fingerprint(paths: list) -> str:
    """SHA-256 over the round's CSV files, in the order they were written."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()
