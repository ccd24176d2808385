"""Benchmark: Figure 13 — power saving under the Sirius 2 s QoS.

Shape to reproduce (paper: PowerChief saves 25% over the baseline,
Pegasus 2%, both meeting the QoS): PowerChief's stage-aware conservation
saves substantially more power than Pegasus's stage-agnostic controller,
with the QoS held for almost the entire timeline.
"""

from __future__ import annotations

from repro.experiments.figures import fig13, render_fig13

from benchmarks.conftest import run_figures_once, show


def test_fig13_sirius_power_saving(benchmark):
    (result,) = run_figures_once(
        benchmark, fig13.figure(duration_s=800.0, seed=3)
    )
    show(render_fig13(result))

    baseline = result.run_for("baseline")
    pegasus = result.run_for("pegasus")
    powerchief = result.run_for("powerchief")

    # The uncontrolled baseline pins the reference draw.
    assert baseline.average_power_fraction == 1.0
    assert baseline.violation_fraction == 0.0

    # PowerChief saves substantially more than Pegasus.
    assert (
        powerchief.average_power_fraction < pegasus.average_power_fraction
    )
    assert result.saving_over_baseline("powerchief") > 0.15
    # Pegasus's instantaneous-latency bail-outs keep it near peak power
    # (paper: 2% saving).
    assert result.saving_over_baseline("pegasus") < 0.15

    # QoS is held almost everywhere.
    assert powerchief.violation_fraction < 0.10
    assert pegasus.violation_fraction < 0.10
