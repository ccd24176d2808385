"""Benchmark: Figure 4 — frequency vs instance boosting at low/high load.

Shape to reproduce: instance boosting wins by an order of magnitude under
high load (queuing delay dominates); under low load frequency boosting is
at least competitive (serving time dominates) and the huge high-load gap
disappears.
"""

from __future__ import annotations

from repro.experiments.figures import fig04, render_fig04

from benchmarks.conftest import run_figures_once, show


def test_fig04_boosting_tradeoff(benchmark):
    (result,) = run_figures_once(
        benchmark, fig04.figure(duration_s=600.0, seeds=(3, 5))
    )
    show(render_fig04(result))

    low_freq = result.cell("freq-boost", "low")
    low_inst = result.cell("inst-boost", "low")
    high_freq = result.cell("freq-boost", "high")
    high_inst = result.cell("inst-boost", "high")

    # High load: instance boosting dominates (paper: 25.11x vs 1.82x).
    assert high_inst.avg_improvement > 3.0 * high_freq.avg_improvement
    assert high_inst.avg_improvement > 8.0
    # Low load: the gap collapses; frequency boosting is competitive on
    # the tail (paper: 1.41x vs 1.04x p99).
    assert low_freq.p99_improvement >= 0.9 * low_inst.p99_improvement
    assert low_inst.avg_improvement < 2.0
    # The crossover: instance boosting's advantage grows with load.
    assert (
        high_inst.avg_improvement / high_freq.avg_improvement
        > low_inst.avg_improvement / low_freq.avg_improvement
    )
