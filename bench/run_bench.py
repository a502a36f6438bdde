"""The jcorm benchmark.

    python3 bench/run_bench.py --workload sweep-bandwidth --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` it measures the end-to-end metrics untraced; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead. The metric names and units are
the ones ``BENCHMARK.json`` lists. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is a JSON record of the environment, the round timings, the
warnings and the CSV fingerprint. Exits non-zero without a result when the
checkout has no package to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5


def pin_threads() -> None:
    """One BLAS/OpenMP thread, here and in every child; must run before
    numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_checkout():
    """Import jcorm from this checkout's ``src/``, or exit non-zero."""
    package = ROOT / "src" / "jcorm"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no jcorm package at {package}")
    sys.path.insert(0, str(package.parent))
    import jcorm
    if Path(jcorm.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported jcorm from {jcorm.__file__}, not {package}")
    return jcorm


def git_sha() -> str | None:
    """HEAD of the checkout, read from its own ``.git``; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": loadavg,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> list:
    """Wall times of fresh interpreters that import jcorm and build the
    workload's validated configs. The first probe also compiles bytecode,
    so it is left out."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times[1:]


class Runner:
    """Runs rounds of one workload and keeps the tallies of the run."""

    def __init__(self, workload, out_dir: str, warning_log: list):
        self.workload = workload
        self.out_dir = out_dir
        self.warning_log = warning_log
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.reference = None       # the first round's outcome
        self.fingerprint = None

    def round(self, tracer=None) -> tuple:
        """One pass over the input set, traced when given a tracer. Returns
        (wall seconds, cells done, RuntimeWarnings by source module)."""
        from tracing import check_traced_slots, installed
        from workloads import check_outcome, csv_fingerprint, nonfinite_runs

        t0 = time.perf_counter()
        if tracer is None:
            outcome = self.workload.run(self.out_dir)
        else:
            with installed(tracer):
                tracer.begin("round")
                try:
                    outcome = self.workload.run(self.out_dir)
                finally:
                    tracer.end()
        wall = time.perf_counter() - t0

        warns = Counter(Path(w.filename).stem for w in self.warning_log
                        if issubclass(w.category, RuntimeWarning))
        self.warning_log.clear()
        failed = outcome.failed + nonfinite_runs(outcome.rows)
        self.attempted += outcome.attempted
        self.failed += failed
        self.problems += check_outcome(outcome)
        if tracer is not None:
            self.problems += check_traced_slots(tracer)
        fingerprint = csv_fingerprint(outcome.csv_paths)
        if self.reference is None:
            self.reference, self.fingerprint = outcome, fingerprint
        elif fingerprint != self.fingerprint:
            self.problems.append("CSV output differs between rounds of identical input")
        return wall, outcome.attempted - failed, warns

    def csv_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.reference.csv_paths)


def until(deadline: float, walls: list) -> bool:
    """Whether to start another round: always the first, then while one more
    round of the median length ends by ``deadline``."""
    return not walls or time.perf_counter() + statistics.median(walls) <= deadline


def end_to_end(runner: Runner, seconds: float, setup: list) -> tuple:
    from tracing import timing_summary
    from workloads import SLOTS

    walls, done = [], 0
    deadline = time.perf_counter() + seconds
    while until(deadline, walls):
        wall, cells, _ = runner.round()
        walls.append(wall)
        done += cells
    runs = [r for r in runner.reference.rows if r["kind"] == "run"]
    fallback = sum(r["infeasible_slots"] for r in runs)
    metrics = {
        "cells_per_s": done / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "utility_mbit": statistics.fmean(r["utility_bits"] for r in runs) / 1e6 if runs else 0.0,
        "feasible_share": 1.0 - fallback / (len(runs) * SLOTS) if runs else 0.0,
    }
    return metrics, {"round_s": timing_summary(walls), "rounds": walls, "setup_s": setup}


def per_layer(runner: Runner, seconds: float, first_warnings: Counter) -> tuple:
    from tracing import Tracer, layer_metrics, timing_summary

    tracer = Tracer()
    plain, traced, warns = [], [], Counter()
    deadline = time.perf_counter() + seconds
    while until(deadline, [p + t for p, t in zip(plain, traced)]):
        plain.append(runner.round()[0])
        wall, _, round_warns = runner.round(tracer)
        traced.append(wall)
        warns += round_warns
    rounds = len(traced)
    per_round = Counter({k: v // rounds for k, v in warns.items()})
    if per_round != first_warnings:
        runner.problems.append(f"warnings differ between rounds: {per_round} vs {first_warnings}")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = layer_metrics(tracer, rounds, per_round, runner.csv_bytes(), overhead)
    slot_ms = [(s.end - s.start) / 1e6 for s in tracer.spans if s.name == "solve_slot_jcorm"]
    record = {"round_s": timing_summary(plain), "traced_round_s": timing_summary(traced),
              "jcorm_slot_ms": timing_summary(slot_ms), "spans": len(tracer.spans)}
    return metrics, record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed base; the run's scenario seeds derive from it")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    import_checkout()
    from workloads import WORKLOADS

    env = environment()
    setup = measure_setup(args.workload, args.seed) if not args.trace else []
    workload = WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_out-") as out_dir, \
            warnings.catch_warnings(record=True) as warning_log:
        # every occurrence is recorded, none printed, so counts repeat exactly
        warnings.simplefilter("always")
        runner = Runner(workload, out_dir, warning_log)
        _, _, first_warnings = runner.round()    # warm-up and reference output
        if args.trace:
            metrics, record = per_layer(runner, args.seconds, first_warnings)
            listed = spec["per_layer"]
        else:
            metrics, record = end_to_end(runner, args.seconds, setup)
            listed = spec["end_to_end"]

    record.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "cells_per_round": len(workload.cells), "env": env,
                   "csv_sha256": runner.fingerprint,
                   "runtime_warnings_per_round": dict(first_warnings),
                   "problems": runner.problems[:20]})
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {}
    for m in listed:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:16s} {m['name']:34s} {value:14.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
