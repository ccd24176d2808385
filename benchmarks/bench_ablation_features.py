"""Ablation: PowerChief's mechanisms switched off one at a time.

* **withdraw off** — Section 6.2 credits instance withdraw for escaping
  the all-at-the-floor lock-in; without it PowerChief under fluctuating
  load must do no better than with it.
* **de-boost cloning off** — the literal Algorithm 1 prices clones at the
  bottleneck's current (possibly boosted) power and can skip forever;
  this bench quantifies what the documented extension buys.
* **adaptive off** — forcing a single technique (the Figure-10 baselines)
  against the full engine, under the fluctuating trace where neither
  single technique is right all the time.
"""

from __future__ import annotations

from repro.core.boosting import BoostingDecisionEngine
from repro.core.controller import ControllerConfig, PowerChiefController
from repro.experiments.report import format_heading, format_table
from repro.scenario import ScenarioSpec, run_scenario
from repro.workloads.sirius import sirius_load_levels
from repro.workloads.traces import FIG11_DURATION_S, fig11_trace

from benchmarks.conftest import run_once, show


def run_variant(policy, trace, *, enable_withdraw=True, enable_deboost=True, seed=3):
    config = ControllerConfig(
        adjust_interval_s=25.0,
        balance_threshold_s=0.25,
        withdraw_interval_s=150.0,
        enable_withdraw=enable_withdraw,
    )
    spec = ScenarioSpec.latency(
        "sirius", policy, trace, FIG11_DURATION_S, seed=seed, controller=config
    )
    if enable_deboost:
        return run_scenario(spec)

    from repro.scenario.builder import LATENCY_CONTROLLERS

    class NoDeboostController(PowerChiefController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.engine = BoostingDecisionEngine(
                self.command_center,
                self.budget,
                self.budget.machine,
                self.recycler,
                min_queue_for_instance=self.config.min_queue_for_instance,
                enable_deboost_clone=False,
            )

    original = LATENCY_CONTROLLERS["powerchief"]
    LATENCY_CONTROLLERS["powerchief"] = NoDeboostController
    try:
        return run_scenario(spec)
    finally:
        LATENCY_CONTROLLERS["powerchief"] = original


def run_ablation():
    trace = fig11_trace(sirius_load_levels().high_qps)
    return {
        "full PowerChief": run_variant("powerchief", trace),
        "no instance withdraw": run_variant(
            "powerchief", trace, enable_withdraw=False
        ),
        "no de-boost cloning": run_variant(
            "powerchief", trace, enable_deboost=False
        ),
        "frequency boosting only": run_variant("freq-boost", trace),
        "instance boosting only": run_variant("inst-boost", trace),
    }


def test_ablation_powerchief_features(benchmark):
    results = run_once(benchmark, run_ablation)
    rows = [
        (name, f"{run.latency.mean:.3f}s", f"{run.latency.p99:.3f}s")
        for name, run in sorted(
            results.items(), key=lambda kv: kv[1].latency.mean
        )
    ]
    show(
        format_heading(
            "Ablation: PowerChief mechanisms (Sirius, Figure-11 load trace)"
        )
        + "\n"
        + format_table(["variant", "mean latency", "p99 latency"], rows)
    )
    full = results["full PowerChief"].latency.mean
    # The full engine beats both single-technique policies.
    assert full <= results["frequency boosting only"].latency.mean
    assert full <= results["instance boosting only"].latency.mean * 1.3
    # Removing de-boost cloning reproduces the boosted-bottleneck lock-in
    # and costs a large factor under this trace.
    assert results["no de-boost cloning"].latency.mean > 1.5 * full
    # Removing withdraw never helps.
    assert results["no instance withdraw"].latency.mean >= 0.9 * full
