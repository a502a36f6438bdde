"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q bench
"""

import json
import time
from collections import Counter

import pytest

import run_bench

run_bench.import_checkout()

from jcorm import ScenarioConfig, harness  # noqa: E402

from tracing import (Span, Tracer, check_traced_slots, installed,  # noqa: E402
                     layer_metrics, layer_times, percentile, self_times,
                     tail_permille)
from workloads import (FleetLarge, SingleRuns, check_outcome,  # noqa: E402
                       nonfinite_runs)


def test_self_time_is_span_minus_children():
    spans = [Span("round", 0, 100, None),
             Span("run_experiment.jcorm", 10, 90, 0),
             Span("objective_terms", 20, 30, 1),
             Span("meter_slot", 40, 45, 1),
             Span("write_csv", 92, 98, 0)]
    assert self_times(spans) == [100 - 80 - 6, 80 - 10 - 5, 10, 5, 6]
    self_ns, incl_ns = layer_times(spans)
    assert self_ns["model"] == 15 and incl_ns["model"] == 15
    assert incl_ns["harness"] == 100       # nested harness spans count once
    assert self_ns["harness"] == 14 + 65 + 6


def test_tracer_records_parents_and_nesting():
    tracer = Tracer()

    def inner():
        time.sleep(0.001)

    wrapped_inner = tracer.wrap(inner, "meter_slot")

    def outer():
        wrapped_inner()
        wrapped_inner()

    tracer.wrap(outer, "run_experiment.atsm")()
    parent, first, second = tracer.spans
    assert (parent.parent, first.parent, second.parent) == (None, 0, 0)
    assert first.end <= second.start
    own = self_times(tracer.spans)
    assert own[0] == (parent.end - parent.start) - (first.end - first.start) \
        - (second.end - second.start)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 500), (99, 500), (100, 900), (999, 900),
    (1000, 990), (9999, 990), (10000, 999)])
def test_percentile_rule_leaves_ten_samples_beyond(n, expected):
    assert tail_permille(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 900) == 90
    assert percentile(values, 500) == 50
    assert percentile([7.0], 900) == 7.0


def _cheap_single_runs():
    workload = SingleRuns(0)
    workload.cells = [ScenarioConfig(seed=s, algo="no-offload") for s in (0, 1)]
    return workload


def test_check_fails_on_injected_nonfinite_row(tmp_path):
    outcome = _cheap_single_runs().run(str(tmp_path))
    assert check_outcome(outcome) == []
    assert nonfinite_runs(outcome.rows) == 0

    run_row = next(r for r in outcome.rows if r["kind"] == "run")
    run_row["energy_j"] = float("nan")
    problems = check_outcome(outcome)
    assert any("non-finite" in p for p in problems)
    assert nonfinite_runs(outcome.rows) == 1


def test_check_fails_on_lost_rows_and_bad_header(tmp_path):
    outcome = _cheap_single_runs().run(str(tmp_path))
    outcome.rows.pop()
    assert any("expected" in p for p in check_outcome(outcome))

    outcome = _cheap_single_runs().run(str(tmp_path))
    path = outcome.csv_paths[0]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("utility_bits", "utility", 1))
    assert any("header" in p for p in check_outcome(outcome))


def test_raising_cell_counts_as_failed(tmp_path, monkeypatch):
    real = harness.run_experiment

    def flaky(cfg):
        if cfg.seed == 1:
            raise FloatingPointError("injected")
        return real(cfg)

    monkeypatch.setattr(harness, "run_experiment", flaky)
    outcome = _cheap_single_runs().run(str(tmp_path))
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert check_outcome(outcome) == []     # the surviving cell is intact


def test_raising_grouped_call_fails_every_cell(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(harness, "run_compare", broken)
    workload = FleetLarge(0)
    outcome = workload.run(str(tmp_path))
    assert outcome.attempted == outcome.failed == len(workload.cells)


def test_traced_round_reports_every_listed_metric(tmp_path):
    workload = SingleRuns(0)
    workload.cells = [ScenarioConfig(seed=0, algo=a)
                      for a in ("jcorm", "atsm", "no-offload")]
    workload.cells.append(ScenarioConfig(seed=0, algo="ga").copy(ga_generations=2))
    tracer = Tracer()
    with installed(tracer):
        tracer.begin("round")
        workload.run(str(tmp_path))
        tracer.end()
    assert harness.run_experiment.__name__ == "run_experiment"   # restored
    assert check_traced_slots(tracer) == []
    metrics = layer_metrics(tracer, 1, Counter(), 1, 0.0)

    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert metrics["model.objective_terms_calls"] > 0
    assert metrics["baselines.ga_fitness_evals_per_s"] > 0
    assert 0.0 < metrics["solver.share"] < 1.0
