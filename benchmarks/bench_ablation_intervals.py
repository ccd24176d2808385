"""Ablation: adjust-interval and balance-threshold sensitivity.

Table 2 fixes the adjust interval at 25 s and uses a balance threshold to
"avoid the oscillation of power reallocation" (Section 8.1).  This bench
sweeps both knobs under medium Sirius load: PowerChief should be robust
over a sensible range (the default within ~25% of the best setting), and
an enormous threshold — which disables boosting entirely — must clearly
hurt, confirming the threshold's role is gating noise rather than
disabling the mechanism.
"""

from __future__ import annotations

from repro.core.controller import ControllerConfig
from repro.experiments.report import format_heading, format_table
from repro.scenario import ScenarioSpec, run_scenario
from repro.workloads.sirius import sirius_load_levels

from benchmarks.conftest import run_once, show

ADJUST_INTERVALS = (10.0, 25.0, 50.0, 100.0)
THRESHOLDS = (0.0, 0.25, 1.0, 1000.0)


def run_sweep(duration_s=600.0, seed=3):
    rate = sirius_load_levels().medium_qps

    def run(config):
        return run_scenario(
            ScenarioSpec.latency(
                "sirius",
                "powerchief",
                ("constant", rate),
                duration_s,
                seed=seed,
                controller=config,
            )
        )

    interval_results = {}
    for interval in ADJUST_INTERVALS:
        config = ControllerConfig(
            adjust_interval_s=interval,
            balance_threshold_s=0.25,
            withdraw_interval_s=150.0,
        )
        interval_results[interval] = run(config).latency.mean
    threshold_results = {}
    for threshold in THRESHOLDS:
        config = ControllerConfig(
            adjust_interval_s=25.0,
            balance_threshold_s=threshold,
            withdraw_interval_s=150.0,
        )
        threshold_results[threshold] = run(config).latency.mean
    return interval_results, threshold_results


def test_ablation_intervals(benchmark):
    interval_results, threshold_results = run_once(benchmark, run_sweep)
    show(
        format_heading("Ablation: adjust interval (Sirius, medium load)")
        + "\n"
        + format_table(
            ["adjust interval", "mean latency"],
            [(f"{k:g}s", f"{v:.3f}s") for k, v in interval_results.items()],
        )
        + "\n\n"
        + format_heading("Ablation: balance threshold (Sirius, medium load)")
        + "\n"
        + format_table(
            ["balance threshold", "mean latency"],
            [(f"{k:g}s", f"{v:.3f}s") for k, v in threshold_results.items()],
        )
    )
    # The Table-2 interval (25 s) is within 30% of the best sweep point.
    best_interval = min(interval_results.values())
    assert interval_results[25.0] <= 1.3 * best_interval
    # A huge threshold disables the mechanism and clearly hurts.
    assert threshold_results[1000.0] > 1.5 * threshold_results[0.25]
    # The calibrated threshold behaves like the no-threshold setting
    # under steady load (it only gates noise).
    assert threshold_results[0.25] <= 1.3 * threshold_results[0.0]
