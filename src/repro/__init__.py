"""PowerChief reproduction.

A full Python reproduction of *PowerChief: Intelligent Power Allocation
for Multi-Stage Applications to Improve Responsiveness on Power
Constrained CMP* (Yang et al., ISCA 2017), including the discrete-event
CMP/service substrate the evaluation needs.

Quick start::

    from repro import (
        Simulator, Machine, PowerBudget, DvfsActuator, CommandCenter,
        PowerChiefController, build_sirius, HASWELL_LADDER,
    )

    sim = Simulator()
    machine = Machine(sim)
    app = build_sirius(sim, machine, HASWELL_LADDER.level_of(1.8))
    command_center = CommandCenter(sim, app)
    controller = PowerChiefController(
        sim, app, command_center, PowerBudget(machine, 13.56),
        DvfsActuator(sim),
    )
    controller.start()
    # ... submit queries, sim.run(...)

or describe the whole run declaratively and let the scenario layer
assemble it (every figure, CLI command and example goes through this
path)::

    from repro import ScenarioSpec, run_scenario
    from repro.workloads import sirius_load_levels

    spec = ScenarioSpec.latency(
        "sirius", "powerchief",
        ("constant", sirius_load_levels().high_qps), 600.0,
    )
    print(run_scenario(spec).latency)
"""

from repro.analysis import mg1_mean_wait, mm1_mean_wait
from repro.cluster import (
    DEFAULT_POWER_MODEL,
    HASWELL_LADDER,
    CubicPowerModel,
    DvfsActuator,
    FrequencyLadder,
    Machine,
    PowerBudget,
    PowerModel,
    PowerTelemetry,
    TabularPowerModel,
)
from repro.core import (
    BoostingDecisionEngine,
    BoostKind,
    BottleneckIdentifier,
    ControllerConfig,
    FreqBoostController,
    InstanceWithdrawer,
    InstBoostController,
    MetricKind,
    PegasusController,
    PowerChiefConserveController,
    PowerChiefController,
    PowerRecycler,
    StaticController,
)
from repro.cluster.calibration import fit_cubic_model, reference_power_table
from repro.errors import ReproError
from repro.scenario import (
    ScenarioSpec,
    ShardedRunResult,
    StackBuilder,
    run_scenario,
)
from repro.service import (
    Application,
    CommandCenter,
    LogNormalDemand,
    PowerLawSpeedup,
    Query,
    ServiceInstance,
    ServiceProfile,
    Stage,
    StageKind,
)
from repro.sim import PeriodicProcess, RandomStreams, Simulator
from repro.workloads import (
    ConstantLoad,
    PiecewiseLoad,
    PoissonLoadGenerator,
    QueryFactory,
    build_application,
    build_nlp,
    build_sirius,
    build_websearch,
    nlp_load_levels,
    sirius_load_levels,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # analysis
    "mm1_mean_wait",
    "mg1_mean_wait",
    # calibration
    "fit_cubic_model",
    "reference_power_table",
    # scenario
    "ScenarioSpec",
    "StackBuilder",
    "run_scenario",
    "ShardedRunResult",
    # sim
    "Simulator",
    "PeriodicProcess",
    "RandomStreams",
    # cluster
    "FrequencyLadder",
    "HASWELL_LADDER",
    "PowerModel",
    "CubicPowerModel",
    "TabularPowerModel",
    "DEFAULT_POWER_MODEL",
    "Machine",
    "PowerBudget",
    "DvfsActuator",
    "PowerTelemetry",
    # service
    "Application",
    "CommandCenter",
    "Query",
    "ServiceInstance",
    "ServiceProfile",
    "Stage",
    "StageKind",
    "LogNormalDemand",
    "PowerLawSpeedup",
    # core
    "MetricKind",
    "BottleneckIdentifier",
    "BoostingDecisionEngine",
    "BoostKind",
    "PowerRecycler",
    "InstanceWithdrawer",
    "ControllerConfig",
    "PowerChiefController",
    "StaticController",
    "FreqBoostController",
    "InstBoostController",
    "PegasusController",
    "PowerChiefConserveController",
    # workloads
    "ConstantLoad",
    "PiecewiseLoad",
    "PoissonLoadGenerator",
    "QueryFactory",
    "build_application",
    "build_sirius",
    "build_nlp",
    "build_websearch",
    "sirius_load_levels",
    "nlp_load_levels",
]
