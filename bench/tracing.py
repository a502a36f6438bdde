"""Spans around the calls into jcorm's layers, and the per-layer metrics
computed from them.

The traced run wraps public functions from here, without touching the
package: it replaces module attributes that the harness, solver and
baselines look up at call time, and puts them back afterwards. Each span
records its name, start, end and parent; spans stay in memory until the
run ends. A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# layer of each span name (the part before the first ".")
LAYERS = {
    "generate_scenario": "scenario",
    "build_slot_context": "scenario",
    "solve_slot_jcorm": "solver",
    "solve_slot_atsm": "baselines",
    "solve_slot_no_offload": "baselines",
    "run_horizon_ga": "baselines",
    "meter_slot": "model",
    "objective_terms": "model",
    "run_experiment": "harness",
    "write_csv": "harness",
    "write_sweep_outputs": "harness",
    "round": "harness",     # the benchmark's root span; it drives the harness
}
OUTPUT_SPANS = ("write_csv", "write_sweep_outputs")
FEASIBILITY_CHECKED = ("solve_slot_jcorm", "solve_slot_atsm")


class Span(NamedTuple):
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int | None  # index of the enclosing span


class Tracer:
    """Records spans, plus what the correctness checks and the solver
    metrics need from the wrapped calls."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []       # (index, name, parent, start), innermost last
        self.slots: list = []       # (solver name, ctx, decision, trace), unchecked
        self.slot_traces: list = [] # (solver name, trace) per checked slot
        self.meters: list = []      # (capacity, next_free) per metered slot
        self.ga_cells: list = []    # (span index, population, num_slots)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else None
        self.spans.append(None)
        self._open.append((index, name, parent, time.perf_counter_ns()))
        return index

    def end(self) -> None:
        end = time.perf_counter_ns()
        index, name, parent, start = self._open.pop()
        self.spans[index] = Span(name, start, end, parent)

    def wrap(self, fn, name, after=None):
        """``fn`` inside a span. ``name`` is a string or a function of the
        call's arguments; ``after(index, args, result)`` runs once the span
        has closed."""
        def traced(*args, **kwargs):
            index = self.begin(name if isinstance(name, str) else name(*args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(index, args, result)
            return result
        return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap jcorm's public functions in spans for the duration of the block."""
    from jcorm import harness, model, scenario

    def keep_slot(name):
        def after(index, args, result):
            tracer.slots.append((name, args[0], *result))
        return after

    def traced_run_horizon(cfg, state, slot_solver):
        name = slot_solver.__name__
        return run_horizon(cfg, state, tracer.wrap(slot_solver, name, keep_slot(name)))

    def keep_ga(index, args, result):
        cfg = args[0]
        tracer.ga_cells.append((index, cfg.ga.population, cfg.num_slots))

    def keep_meter(index, args, result):
        tracer.meters.append((args[0].storage_capacity, result.next_free))

    run_horizon = harness.run_horizon
    patches = [
        (harness, "run_experiment", lambda fn: tracer.wrap(
            fn, lambda cfg: "run_experiment." + cfg.algo)),
        (harness, "generate_scenario", lambda fn: tracer.wrap(fn, "generate_scenario")),
        (scenario, "build_slot_context", lambda fn: tracer.wrap(fn, "build_slot_context")),
        (harness, "run_horizon", lambda fn: traced_run_horizon),
        (harness, "run_horizon_ga", lambda fn: tracer.wrap(fn, "run_horizon_ga", keep_ga)),
        (model, "meter_slot", lambda fn: tracer.wrap(fn, "meter_slot", keep_meter)),
        (model, "objective_terms", lambda fn: tracer.wrap(fn, "objective_terms")),
        (harness, "write_csv", lambda fn: tracer.wrap(fn, "write_csv")),
        (harness, "write_sweep_outputs", lambda fn: tracer.wrap(fn, "write_sweep_outputs")),
    ]
    originals = []
    try:
        for module, attr, make in patches:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, make(original))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def check_traced_slots(tracer: Tracer) -> list:
    """Problems in the slots recorded since the last call: every jcorm or
    atsm decision that did not fall back must pass an independent
    ``check_feasible``, and storage must stay within [0, capacity]. The
    checked slots move to ``slot_traces`` without their contexts."""
    from jcorm import model

    problems = []
    for name, ctx, decision, trace in tracer.slots:
        if name in FEASIBILITY_CHECKED and not trace.fallback:
            report = model.check_feasible(ctx, decision)
            if not report.ok:
                problems.append(f"{name}: infeasible decision {report.violations}")
        tracer.slot_traces.append((name, trace))
    for capacity, free in tracer.meters:
        if float(free.min()) < 0.0 or float(free.max()) > capacity:
            problems.append(f"next_free outside [0, {capacity}]: {free}")
    tracer.slots.clear()
    tracer.meters.clear()
    return problems


# ---------------------------------------------------------------------------
# arithmetic on spans
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Per span, its duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


def layer_times(spans: list) -> tuple:
    """(self time, inclusive time) per layer, in ns. Inclusive time counts
    each layer's outermost spans, so a layer's own nesting is not counted
    twice but the lower layers it calls are included."""
    own = self_times(spans)
    layers = [layer_of(s.name) for s in spans]
    self_ns, incl_ns = Counter(), Counter()
    for i, s in enumerate(spans):
        self_ns[layers[i]] += own[i]
        p = s.parent
        while p is not None and layers[p] != layers[i]:
            p = spans[p].parent
        if p is None:
            incl_ns[layers[i]] += s.end - s.start
    return self_ns, incl_ns


# the percentiles a timing may be reported at, in per mille
PERCENTILE_LADDER = (500, 900, 990, 999)


def tail_permille(n: int) -> int | None:
    """The highest percentile of the ladder, in per mille, that leaves at
    least ten of ``n`` samples beyond it; None below twenty samples."""
    best = None
    for pm in PERCENTILE_LADDER:
        if n * (1000 - pm) // 1000 >= 10:
            best = pm
    return best


def percentile(values, pm: int) -> float:
    """Nearest-rank percentile, ``pm`` in per mille."""
    ordered = sorted(values)
    rank = -(-len(ordered) * pm // 1000)
    return ordered[max(rank, 1) - 1]


def timing_summary(values: list) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if n else None}
    pm = tail_permille(n)
    if pm is not None and pm > 500:
        out[f"p{pm / 10:g}"] = percentile(values, pm)
    return out


def layer_metrics(tracer: Tracer, rounds: int, warnings_per_round: Counter,
                  csv_bytes_per_round: int, overhead_share: float) -> dict:
    """Per-layer metrics of the traced rounds. Times are medians per call
    unless named a total; counts and totals are per round. A metric whose
    layer did not run in this workload reads 0."""
    spans = tracer.spans
    durations = defaultdict(list)
    for s in spans:
        durations[s.name].append((s.end - s.start) / 1e6)

    def median_ms(name):
        return statistics.median(durations[name]) if durations[name] else 0.0

    wall = sum(durations["round"])
    self_ns, incl_ns = layer_times(spans)
    own = self_times(spans)

    def share(ns):
        return ns / 1e6 / wall if wall else 0.0

    jcorm = [t for name, t in tracer.slot_traces if name == "solve_slot_jcorm"]
    obj_self = [own[i] for i, s in enumerate(spans) if s.name == "objective_terms"]
    # objective_terms calls per enclosing span
    evals = Counter(s.parent for s in spans if s.name == "objective_terms")
    jcorm_evals = sum(n for i, n in evals.items()
                      if i is not None and spans[i].name == "solve_slot_jcorm")

    # a GA fitness call evaluates the population with one objective_terms
    # call per slot
    ga_ns = sum(spans[i].end - spans[i].start for i, _, _ in tracer.ga_cells)
    ga_genomes = sum(evals[i] // slots * pop for i, pop, slots in tracer.ga_cells)

    output_ns = 0
    for s in spans:
        if s.name in OUTPUT_SPANS and (s.parent is None
                                       or spans[s.parent].name not in OUTPUT_SPANS):
            output_ns += s.end - s.start

    slot_ms = durations["solve_slot_jcorm"]
    out = {
        "scenario.generate_ms": median_ms("generate_scenario"),
        "scenario.context_ms": median_ms("build_slot_context"),
        "scenario.share": share(self_ns["scenario"]),
        "solver.slot_p50_ms": statistics.median(slot_ms) if slot_ms else 0.0,
        "solver.slot_p90_ms": percentile(slot_ms, 900) if slot_ms else 0.0,
    }
    for block in ("sp1", "sp2", "sp3", "sp4"):
        out[f"solver.{block}_ms"] = (statistics.median(t.sp_seconds[block] * 1e3 for t in jcorm)
                                     if jcorm else 0.0)
    out.update({
        "solver.passes_per_slot": statistics.fmean(t.iterations for t in jcorm) if jcorm else 0.0,
        "solver.converged_share": statistics.fmean(t.converged for t in jcorm) if jcorm else 0.0,
        "solver.objective_evals_per_slot": jcorm_evals / len(jcorm) if jcorm else 0.0,
        "solver.runtime_warnings": warnings_per_round["solver"],
        "solver.share": share(incl_ns["solver"]),
        "baselines.ga_cell_ms": median_ms("run_horizon_ga"),
        "baselines.ga_share": share(ga_ns),
        "baselines.ga_fitness_evals_per_s": ga_genomes / (ga_ns / 1e9) if ga_ns else 0.0,
        "baselines.atsm_slot_ms": median_ms("solve_slot_atsm"),
        "baselines.no_offload_slot_ms": median_ms("solve_slot_no_offload"),
        "baselines.share": share(incl_ns["baselines"]),
        "model.meter_ms": median_ms("meter_slot"),
        "model.objective_terms_ms": sum(obj_self) / 1e6 / rounds,
        "model.objective_terms_calls": len(obj_self) // rounds,
        "model.share": share(self_ns["model"]),
    })
    for algo in ("jcorm", "atsm", "ga", "no-offload"):
        out[f"harness.cell_ms.{algo}"] = median_ms(f"run_experiment.{algo}")
    out.update({
        "harness.output_ms": output_ns / 1e6 / rounds,
        "harness.csv_bytes": csv_bytes_per_round,
        "harness.share": share(self_ns["harness"]),
        "trace.overhead_share": overhead_share,
    })
    return out
