"""The scenario layer: declarative specs and the one staged assembler.

A :class:`ScenarioSpec` is the frozen, JSON-round-trippable description
of one experiment; :class:`StackBuilder` is the *only* place the repo
turns such a description into a live stack (simulator, machine(s),
application(s), budget, command center, controller, loadgen, chaos,
observability), through an explicit ``build → arm → start → run → drain
→ collect`` lifecycle.  The figures, every CLI run, the parallel cell
engine's cache digests, the sharded runs and the ``reprod``
daemon all sit on top of this package.
"""

from repro.scenario.builder import (
    LATENCY_CONTROLLERS,
    StackBuilder,
    run_scenario,
)
from repro.scenario.results import (
    QosRunResult,
    RunResult,
    ShardResult,
    ShardedRunResult,
)
from repro.scenario.spec import (
    LATENCY_POLICIES,
    QOS_POLICIES,
    SCENARIO_FORMAT_VERSION,
    ScenarioSpec,
    StageAllocation,
    build_trace,
    chaos_to_spec,
    contention_from_spec,
    contention_to_spec,
    controller_from_spec,
    controller_to_spec,
    trace_to_spec,
)

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "LATENCY_POLICIES",
    "QOS_POLICIES",
    "LATENCY_CONTROLLERS",
    "ScenarioSpec",
    "StageAllocation",
    "StackBuilder",
    "run_scenario",
    "RunResult",
    "QosRunResult",
    "ShardResult",
    "ShardedRunResult",
    "trace_to_spec",
    "build_trace",
    "contention_to_spec",
    "contention_from_spec",
    "controller_to_spec",
    "controller_from_spec",
    "chaos_to_spec",
]
