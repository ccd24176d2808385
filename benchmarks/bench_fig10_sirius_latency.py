"""Benchmark: Figure 10 — Sirius latency improvement grid.

Shape to reproduce (paper, Section 8.2): PowerChief achieves the most
latency reduction across loads — tracking frequency boosting at low load
and instance boosting at medium/high load — with order-of-magnitude
average improvement at high load (paper headline: 20.3x avg / 13.3x p99
across loads on their testbed).
"""

from __future__ import annotations

from repro.experiments.figures import fig10, render_improvement_figure

from benchmarks.conftest import run_figures_once, show


def test_fig10_sirius_improvement_grid(benchmark):
    (result,) = run_figures_once(
        benchmark, fig10.figure(duration_s=600.0, seeds=(3, 5))
    )
    show(render_improvement_figure(result))

    high_chief = result.cell("powerchief", "high")
    high_freq = result.cell("freq-boost", "high")
    high_inst = result.cell("inst-boost", "high")
    # Order-of-magnitude improvement at high load.
    assert high_chief.avg_improvement > 10.0
    assert high_chief.p99_improvement > 5.0
    # PowerChief tracks the better technique at every load level.
    for load in ("low", "medium", "high"):
        chief = result.cell("powerchief", load)
        best = max(
            result.cell("freq-boost", load).avg_improvement,
            result.cell("inst-boost", load).avg_improvement,
        )
        assert chief.avg_improvement >= 0.85 * best
    # Instance boosting beats frequency boosting under high load.
    assert high_inst.avg_improvement > high_freq.avg_improvement
    # Across-load headline: PowerChief is the best policy overall.
    chief_avg, chief_p99 = result.average_improvement("powerchief")
    freq_avg, _ = result.average_improvement("freq-boost")
    assert chief_avg > freq_avg
    assert chief_avg > 5.0
