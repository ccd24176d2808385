"""Benchmark: seed sensitivity of the headline result.

Not a paper figure: a reproduction-quality check.  The Figure-10
high-load improvement is re-measured over five independent seeds; the
conclusion ("PowerChief improves the mean latency by an order of
magnitude under high load") must hold for *every* seed, not just the
default, and the run-to-run spread is reported.
"""

from __future__ import annotations

import statistics

from repro.experiments.parallel import run_cells
from repro.experiments.report import format_heading, format_table
from repro.scenario import ScenarioSpec
from repro.workloads.sirius import sirius_load_levels

from benchmarks.conftest import engine_workers, run_once, show

SEEDS = (3, 5, 11, 23, 42)


def run_all(duration_s: float = 600.0):
    rate = sirius_load_levels().high_qps
    specs = [
        ScenarioSpec.latency(
            "sirius", policy, ("constant", rate), duration_s, seed=seed
        )
        for seed in SEEDS
        for policy in ("static", "powerchief")
    ]
    report = run_cells(specs, max_workers=engine_workers(len(specs)))
    results = report.results()
    improvements = {}
    for index, seed in enumerate(SEEDS):
        baseline, chief = results[2 * index], results[2 * index + 1]
        improvements[seed] = (
            baseline.latency.mean / chief.latency.mean,
            baseline.latency.p99 / chief.latency.p99,
        )
    return improvements


def test_seed_sensitivity(benchmark):
    improvements = run_once(benchmark, run_all)
    rows = [
        (seed, f"{avg:.1f}x", f"{p99:.1f}x")
        for seed, (avg, p99) in improvements.items()
    ]
    avgs = [avg for avg, _ in improvements.values()]
    cv = statistics.stdev(avgs) / statistics.mean(avgs)
    show(
        format_heading(
            "Seed sensitivity: Sirius high-load improvement (5 seeds)"
        )
        + "\n"
        + format_table(["seed", "avg improvement", "p99 improvement"], rows)
        + f"\nmean {statistics.mean(avgs):.1f}x, CV {cv:.2f}"
    )
    # The conclusion holds for every seed...
    assert all(avg > 8.0 for avg in avgs)
    # ... and the spread is moderate (not a one-seed fluke).
    assert cv < 0.5
