"""Benchmark: Figure 2 — Sirius latency when boosting single stages.

Shape to reproduce: boosting the QA stage is the best decision, boosting
the IMM stage is the worst, and the gap between the best and worst
decisions is large — the paper's motivation for intelligent boosting.
"""

from __future__ import annotations

from repro.experiments.figures import fig02, render_fig02

from benchmarks.conftest import run_figures_once, show


def test_fig02_single_stage_boosting(benchmark):
    (result,) = run_figures_once(
        benchmark, fig02.figure(duration_s=600.0, seeds=(3, 5))
    )
    show(render_fig02(result))

    best = result.best()
    worst = result.worst()
    # The optimal decision targets the QA stage (the heavy bottleneck).
    assert best.stage == "QA"
    # Boosting the light IMM stage is the worst use of the budget.
    assert worst.stage == "IMM"
    # A wrong decision costs dramatically more than the right one.
    assert worst.normalized_latency > 1.3 * best.normalized_latency
    # Boosting QA at least matches the balanced baseline.
    assert best.normalized_latency <= 1.05
