"""Ablation: the Equation-1 latency metric vs the plain Table-1 metrics.

Runs the full PowerChief controller with bottleneck identification driven
by each candidate metric under bursty high load.  The paper's claim
(Section 4.2): metrics that ignore the realtime queue length mis-identify
bottlenecks, so the Equation-1 metric should deliver the best (or
equal-best) end-to-end latency.
"""

from __future__ import annotations

from repro.core.controller import ControllerConfig
from repro.core.metrics import MetricKind
from repro.scenario import ScenarioSpec, run_scenario
from repro.workloads.sirius import sirius_load_levels

from benchmarks.conftest import run_once, show
from repro.experiments.report import format_heading, format_table

ABLATED_METRICS = (
    MetricKind.POWERCHIEF,
    MetricKind.AVG_SERVING,
    MetricKind.AVG_PROCESSING,
    MetricKind.P99_PROCESSING,
    MetricKind.AVG_QUEUING,
)


def run_ablation(duration_s=600.0, seeds=(3, 5)):
    rate = sirius_load_levels().high_qps
    results = {}
    for kind in ABLATED_METRICS:
        config = ControllerConfig(
            adjust_interval_s=25.0,
            balance_threshold_s=0.25,
            withdraw_interval_s=150.0,
            metric_kind=kind,
        )
        means = []
        p99s = []
        for seed in seeds:
            run = run_scenario(
                ScenarioSpec.latency(
                    "sirius",
                    "powerchief",
                    ("constant", rate),
                    duration_s,
                    seed=seed,
                    controller=config,
                )
            )
            means.append(run.latency.mean)
            p99s.append(run.latency.p99)
        results[kind] = (sum(means) / len(means), sum(p99s) / len(p99s))
    return results


def test_ablation_bottleneck_metric(benchmark):
    results = run_once(benchmark, run_ablation)
    rows = [
        (kind.value, f"{mean:.3f}s", f"{p99:.3f}s")
        for kind, (mean, p99) in sorted(results.items(), key=lambda kv: kv[1][0])
    ]
    show(
        format_heading("Ablation: bottleneck-identification metric (Sirius, high load)")
        + "\n"
        + format_table(["metric", "mean latency", "p99 latency"], rows)
    )
    equation1_mean = results[MetricKind.POWERCHIEF][0]
    # Equation 1 is the best or within 10% of the best candidate ...
    best = min(mean for mean, _ in results.values())
    assert equation1_mean <= best * 1.1
    # ... and clearly better than pure serving-time history, which cannot
    # see queue build-up at all.
    assert equation1_mean < results[MetricKind.AVG_SERVING][0]
