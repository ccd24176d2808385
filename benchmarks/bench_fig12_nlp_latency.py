"""Benchmark: Figure 12 — NLP latency improvement grid.

Shape to reproduce (paper, Section 8.3): same structure as Figure 10 on
the NLP application — PowerChief achieves the most reduction, with a
particularly large advantage at high load (paper: 52.2x avg / 28.4x p99
at high load; 32.4x / 19.4x across loads on their testbed), tracking
frequency boosting at low load and instance boosting at medium load.
"""

from __future__ import annotations

from repro.experiments.figures import fig12, render_fig12

from benchmarks.conftest import run_figures_once, show


def test_fig12_nlp_improvement_grid(benchmark):
    (result,) = run_figures_once(
        benchmark, fig12.figure(duration_s=600.0, seeds=(3, 5))
    )
    show(render_fig12(result))

    high_chief = result.cell("powerchief", "high")
    assert high_chief.avg_improvement > 10.0
    assert high_chief.p99_improvement > 5.0

    # At medium load PowerChief tracks instance boosting (paper: 41.6x vs
    # similar); at low load it tracks frequency boosting (paper: 3.4x).
    med_chief = result.cell("powerchief", "medium")
    med_inst = result.cell("inst-boost", "medium")
    assert med_chief.avg_improvement >= 0.8 * med_inst.avg_improvement

    low_chief = result.cell("powerchief", "low")
    low_freq = result.cell("freq-boost", "low")
    assert low_chief.p99_improvement >= 0.9 * low_freq.p99_improvement

    # Instance boosting >> frequency boosting at high load.
    assert (
        result.cell("inst-boost", "high").avg_improvement
        > 3.0 * result.cell("freq-boost", "high").avg_improvement
    )
