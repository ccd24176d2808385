"""Benchmark: Figure 14 — power saving under the Web Search 250 ms QoS.

Shape to reproduce (paper: PowerChief saves 43% over the baseline,
Pegasus 10%): on the scatter-gather topology the leaf tier's latency
slack is large, so PowerChief's per-instance conservation saves deeply
while Pegasus saves a modest amount.
"""

from __future__ import annotations

from repro.experiments.figures import fig14, render_fig14

from benchmarks.conftest import run_figures_once, show


def test_fig14_websearch_power_saving(benchmark):
    (result,) = run_figures_once(
        benchmark, fig14.figure(duration_s=200.0, seed=3)
    )
    show(render_fig14(result))

    baseline = result.run_for("baseline")
    pegasus = result.run_for("pegasus")
    powerchief = result.run_for("powerchief")

    assert baseline.average_power_fraction == 1.0

    # Ordering: PowerChief > Pegasus > baseline savings.
    assert (
        powerchief.average_power_fraction
        < pegasus.average_power_fraction
        <= baseline.average_power_fraction
    )
    # Deep saving on the over-provisioned leaf tier (paper: 43%).
    assert result.saving_over_baseline("powerchief") > 0.25
    # QoS held almost everywhere.
    assert powerchief.violation_fraction < 0.10
