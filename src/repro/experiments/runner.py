"""Experiment runners.

Two entry points drive every figure of the evaluation:

* :func:`run_latency_experiment` — the Sections 8.2/8.3 scenario: reduce
  response latency while guarding the Table-2 power budget, under a
  chosen policy (static baseline, frequency boosting, instance boosting
  or PowerChief).
* :func:`run_qos_experiment` — the Section 8.4 scenario: reduce power
  while meeting a latency QoS on a Table-3 over-provisioned deployment
  (no-control baseline, Pegasus, or PowerChief-conserve).

Both are thin wrappers now: each keyword signature folds into a
:class:`~repro.scenario.spec.ScenarioSpec` and the stack is assembled and
driven by the one :class:`~repro.scenario.builder.StackBuilder` lifecycle
— no component is wired here.  Runs with the same seed replay
byte-identical arrivals and demands across policies, so improvement
ratios compare the policies and nothing else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.faults.chaos import ChaosHarness

from repro.cluster.contention import ContentionModel
from repro.obs import Observability
from repro.core.controller import ControllerConfig
from repro.guard.config import GuardConfig
from repro.scenario.config import (
    TABLE2_CONTROLLER_CONFIG,
    TABLE2_INITIAL_FREQ_GHZ,
    TABLE2_POWER_BUDGET_WATTS,
    Table3Setup,
)
from repro.scenario.builder import StackBuilder
from repro.scenario.results import QosRunResult, RunResult
from repro.scenario.spec import ScenarioSpec, StageAllocation
from repro.workloads.loadgen import LoadTrace

__all__ = ["run_latency_experiment", "run_qos_experiment"]


# ----------------------------------------------------------------------
# Latency-mitigation runs (Sections 8.2 / 8.3)
# ----------------------------------------------------------------------
def run_latency_experiment(
    app: str,
    policy: str,
    trace: LoadTrace,
    duration_s: float,
    seed: int = 1,
    budget_watts: float = TABLE2_POWER_BUDGET_WATTS,
    initial_freq_ghz: float = TABLE2_INITIAL_FREQ_GHZ,
    controller_config: ControllerConfig = TABLE2_CONTROLLER_CONFIG,
    allocation: Optional[Mapping[str, StageAllocation]] = None,
    n_cores: int = 16,
    sample_interval_s: float = 5.0,
    stats_window_s: float = 60.0,
    contention: Optional[ContentionModel] = None,
    observability: Optional[Observability] = None,
    chaos: Optional["ChaosHarness"] = None,
    drain_s: float = 0.0,
    guard: Optional[GuardConfig] = None,
) -> RunResult:
    """Run one (application, policy, load) cell of Figures 2/4/10/11/12.

    ``allocation`` overrides the Table-2 one-instance-per-stage deployment
    (Figure 2's static single-stage boosts use this).  ``observability``
    (kept by the caller) collects query spans, registry metrics and the
    controller's decision audit log for the run.  ``chaos`` (a
    :class:`~repro.faults.chaos.ChaosHarness`) arms fault injection and
    the resilience layer; ``drain_s`` extends the run past the last
    arrival so retried queries can settle — both default off and leave
    the fault-free path bit-identical.  ``guard`` wraps the policy in a
    :class:`~repro.guard.SupervisedController` (invariant monitors plus
    the graceful-degradation ladder); ``None`` builds the bare policy.
    """
    spec = ScenarioSpec.latency(
        app,
        policy,
        trace,
        duration_s,
        seed=seed,
        budget_watts=budget_watts,
        initial_freq_ghz=initial_freq_ghz,
        controller=controller_config,
        allocation=allocation,
        contention=contention,
        guard=guard,
        n_cores=n_cores,
        sample_interval_s=sample_interval_s,
        stats_window_s=stats_window_s,
        drain_s=drain_s,
    )
    result = StackBuilder(
        spec,
        trace=trace,
        contention=contention,
        observability=observability,
        chaos=chaos,
    ).execute()
    assert isinstance(result, RunResult)
    return result


# ----------------------------------------------------------------------
# QoS-mode runs (Section 8.4)
# ----------------------------------------------------------------------
def run_qos_experiment(
    setup: Table3Setup,
    policy: str,
    rate_qps: float,
    duration_s: float,
    seed: int = 1,
    hold_fraction: float = 0.85,
    conserve_fraction: float = 0.75,
    guard_fraction: float = 0.92,
    n_cores: int = 16,
    sample_interval_s: float = 5.0,
    e2e_window_s: Optional[float] = None,
    observability: Optional[Observability] = None,
) -> QosRunResult:
    """Run one (deployment, policy) timeline of Figures 13/14.

    The reference power for the fraction-of-peak axis is the
    over-provisioned deployment's draw at the maximum frequency — the
    baseline's constant consumption, which Figures 13/14 normalise to.
    """
    options: dict[str, float] = {
        "hold_fraction": hold_fraction,
        "conserve_fraction": conserve_fraction,
        "guard_fraction": guard_fraction,
    }
    if e2e_window_s is not None:
        options["e2e_window_s"] = e2e_window_s
    spec = ScenarioSpec.qos(
        setup.app,
        policy,
        rate_qps,
        duration_s,
        seed=seed,
        n_cores=n_cores,
        sample_interval_s=sample_interval_s,
        **options,
    )
    result = StackBuilder(
        spec,
        observability=observability,
        table3_setup=setup,
    ).execute()
    assert isinstance(result, QosRunResult)
    return result
