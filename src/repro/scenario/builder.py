"""The staged stack builder: the only place an experiment is assembled.

:class:`StackBuilder` turns a :class:`~repro.scenario.spec.ScenarioSpec`
into a running stack through an explicit lifecycle::

    build -> arm -> start -> run -> drain -> collect

``build`` constructs the simulator, the stack(s), the load generator and
the timeline sampler; ``arm`` attaches observability and installs chaos;
``start`` schedules the initial events; ``run`` advances the simulation
through the arrival window; ``drain`` lets retries settle past the last
arrival; ``collect`` finalises observability, re-asserts the power
budgets and returns the result record.  :meth:`StackBuilder.execute`
walks all six phases, and :func:`run_scenario` is the one-call
convenience around it.

There is one kind of stack: a machine, an application, a power budget, a
command center, a controller and an optional chaos harness — one CMP
server.  A single latency run builds one; a sharded run builds one per
shard behind a query router (Section 7.2: the services duplicated
"into multiple shardings across CMP servers", one PowerChief each); a
QoS run builds one from its Table-3 deployment.  The kinds differ only
in the data the stack is built from (:class:`_StackPlan`).

The run/drain phases are driven incrementally underneath: once
``start`` has armed the initial events, :meth:`StackBuilder.tick`
advances the stack to any simulated-time deadline an external clock
chooses — the ``reprod`` daemon paces ticks against the wall clock —
and walks the ``run -> drain`` boundary transitions (controllers and
sampler stop at the end of the arrival window, chaos teardown at the
end of the drain window) exactly where the batch path does, so a run
split across any sequence of ``tick`` deadlines replays the one-shot
event sequence byte for byte.  ``run``/``drain`` are thin ticks to the
phase boundaries, and :meth:`StackBuilder.abort` releases every live
resource (periodic processes, telemetry listeners, observability
hooks) from any phase when a run must be torn down early.

The spec is the whole input: trace, contention, chaos plan, Table-3
deployment and the observability pillars (``observe`` plus the ``slo_*``
and ``stream_interval_s`` options) all come from it.  The pillars a run
armed are read back from :attr:`StackBuilder.observability`; a spec
names no file, so a caller that wants the stream on disk sets its
``path`` before ``arm``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.faults.chaos import ChaosHarness
    from repro.service.rpc import RpcFabric

from repro.errors import ConfigurationError, ExperimentError
from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.machine import Machine
from repro.cluster.telemetry import PowerTelemetry
from repro.obs import (
    AttributionCollector,
    AuditLog,
    EnergyAttributor,
    MetricsRegistry,
    Observability,
    SloTracker,
    StreamExporter,
    TraceBuffer,
    bind_simulator,
    unbind_simulator,
)
from repro.core.baselines import (
    FreqBoostController,
    InstBoostController,
    StaticController,
)
from repro.core.conserve import PowerChiefConserveController
from repro.core.controller import BaseController, PowerChiefController
from repro.core.pegasus import PegasusController
from repro.guard.supervisor import SupervisedController
from repro.scenario.config import (
    TABLE2_CONTROLLER_CONFIG,
    TABLE2_INITIAL_FREQ_GHZ,
    TABLE2_POWER_BUDGET_WATTS,
    TABLE3_SETUPS,
    app_stages,
)
from repro.scenario.sampling import QosSampler, StateSampler
from repro.scenario.results import (
    QosRunResult,
    RunResult,
    ShardResult,
    ShardedRunResult,
)
from repro.scenario.spec import (
    ScenarioSpec,
    StageAllocation,
    build_trace,
    contention_from_spec,
)
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.query import Query
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.util.percentile import LatencySummary, summarize
from repro.workloads.loadgen import (
    ConstantLoad,
    PoissonLoadGenerator,
    QueryFactory,
)

__all__ = [
    "StackBuilder",
    "run_scenario",
    "LATENCY_CONTROLLERS",
]

#: Latency-policy name -> controller class; the single policy dispatch.
LATENCY_CONTROLLERS: dict[str, type[BaseController]] = {
    "static": StaticController,
    "freq-boost": FreqBoostController,
    "inst-boost": InstBoostController,
    "powerchief": PowerChiefController,
}

_PHASES = ("new", "built", "armed", "started", "ran", "drained", "collected")

#: Phases :meth:`StackBuilder.tick` may be called from: the arrival
#: window ("started") and the drain window ("ran").
_TICKABLE_PHASES = ("started", "ran")


def _build_app(
    app: str,
    sim: Simulator,
    machine: Machine,
    allocation: Mapping[str, StageAllocation],
    observability: Optional[Observability],
    fabric: Optional["RpcFabric"],
    name: str,
) -> Application:
    application = Application(
        name, sim, machine, fabric=fabric, observability=observability
    )
    for profile, kind in app_stages(app):
        stage = application.add_stage(profile, kind=kind)
        # The spec guarantees an entry for every stage.
        stage_alloc = allocation[profile.name]
        for _ in range(stage_alloc.count):
            stage.launch_instance(stage_alloc.level)
    return application


def _uniform_allocation(
    app: str,
    level: int,
    instances_per_stage: Mapping[str, int] | int,
) -> dict[str, StageAllocation]:
    allocation: dict[str, StageAllocation] = {}
    for profile, _ in app_stages(app):
        if isinstance(instances_per_stage, int):
            count = instances_per_stage
        else:
            count = instances_per_stage.get(profile.name, 1)
        allocation[profile.name] = StageAllocation(count=count, level=level)
    return allocation


def _observability_from_spec(
    spec: ScenarioSpec,
    qos_target_s: Optional[float],
) -> Optional[Observability]:
    """An observability bundle with exactly the pillars the spec arms.

    ``build`` hands the bundle to every application it makes, where each
    producer reads its pillars; the ``arm`` phase subscribes the
    listening pillars to whatever ``build`` produced.
    An SLO pillar resolves its target from the ``slo_target_s`` option
    (mandatory for latency scenarios) or the Table-3 deployment's QoS
    target (the qos default).
    """
    if not spec.observe:
        return None
    observe = set(spec.observe)
    options = dict(spec.options)
    metrics = MetricsRegistry() if "metrics" in observe else None
    slo = None
    if "slo" in observe:
        target = options.get("slo_target_s")
        slo = SloTracker(
            target_s=float(qos_target_s if target is None else target),
            attainment_goal=float(options.get("slo_attainment", 0.99)),
            window_s=float(options.get("slo_window_s", 60.0)),
            registry=metrics,
        )
    stream = None
    if "stream" in observe:
        stream = StreamExporter(
            interval_s=float(options.get("stream_interval_s", 5.0))
        )
    return Observability(
        tracer=(
            TraceBuffer(max_spans=200_000, registry=metrics)
            if "trace" in observe
            else None
        ),
        metrics=metrics,
        audit=AuditLog(max_entries=100_000) if "audit" in observe else None,
        attribution=(
            AttributionCollector(registry=metrics)
            if "attribution" in observe
            else None
        ),
        slo=slo,
        energy=EnergyAttributor(registry=metrics) if "energy" in observe else None,
        stream=stream,
    )


@dataclass(frozen=True)
class _StackPlan:
    """What every stack of one run is built from.

    A latency stack, a shard and a QoS stack differ only in this data.
    """

    app: str
    allocation: Mapping[str, StageAllocation]
    #: ``None``: the machine's peak power (QoS mode has no budget ceiling).
    budget_watts: Optional[float]
    #: ``(sim, application) -> CommandCenter``.
    command_center: Callable[[Simulator, Application], CommandCenter]
    #: ``(sim, application, command_center, budget, dvfs) -> controller``;
    #: ``None`` runs the stack uncontrolled (the QoS baseline).
    controller: Optional[Callable[..., BaseController]]


@dataclass(frozen=True)
class _Stack:
    """One CMP server's stack."""

    machine: Machine
    application: Application
    budget: PowerBudget
    command_center: CommandCenter
    controller: Optional[BaseController]
    harness: Optional["ChaosHarness"]
    streams: RandomStreams
    #: Teardown-label suffix: empty for a single stack, ``[shard<i>]``.
    tag: str


class _ShardRouter:
    """The front end of a sharded run: hands each arriving query to one
    shard's application.

    ``round-robin`` cycles through the shards; ``least-in-flight`` takes
    the first application with the fewest queries in flight.
    """

    def __init__(self, applications: Sequence[Application], splitter: str) -> None:
        self._applications = tuple(applications)
        self._cycle = itertools.cycle(self._applications)
        self._round_robin = splitter == "round-robin"

    def submit(self, query: Query) -> None:
        if self._round_robin:
            application = next(self._cycle)
        else:
            application = min(self._applications, key=lambda app: app.in_flight)
        application.submit(query)


class StackBuilder:
    """Assemble and drive the stack one scenario describes.

    The phases must be walked in order; calling one out of order raises
    :class:`~repro.errors.ExperimentError`.  :meth:`execute` walks the
    whole lifecycle and aborts the stack when a phase raises, so
    observability hooks unwind even then.  The spec is the builder's
    only input.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        # The spec guarantees a QoS app names a Table-3 deployment.
        self._setup = TABLE3_SETUPS[spec.app] if spec.kind == "qos" else None
        self._observability = _observability_from_spec(
            spec, None if self._setup is None else self._setup.qos_target_s
        )
        self._phase = "new"
        #: Teardown steps that raised during :meth:`abort`, as
        #: ``(label, exception)`` pairs; abort never raises itself.
        self.abort_errors: list[tuple[str, Exception]] = []
        # Populated by build()/arm(); the single-stack views stay None
        # on sharded runs (each shard is one of ``_stacks``).
        self.sim: Optional[Simulator] = None
        self.machine: Optional[Machine] = None
        self.application: Optional[Application] = None
        self.budget: Optional[PowerBudget] = None
        self.command_center: Optional[CommandCenter] = None
        self.controller: Optional[BaseController] = None
        self.generator: Optional[PoissonLoadGenerator] = None
        self.chaos: Optional["ChaosHarness"] = None
        self.telemetry: Optional[PowerTelemetry] = None
        self._stacks: list[_Stack] = []
        self._sampler: Union[StateSampler, QosSampler, None] = None
        #: Observability teardowns, run last-armed first.
        self._closers: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Phase bookkeeping
    # ------------------------------------------------------------------
    @property
    def phase(self) -> str:
        return self._phase

    @property
    def observability(self) -> Optional[Observability]:
        """The bundle this run observes through (None when nothing armed)."""
        return self._observability

    @property
    def end_s(self) -> float:
        """Simulated time at which the drain window closes."""
        return self.spec.duration_s + self.spec.drain_s

    @property
    def finished(self) -> bool:
        """Whether the stack has drained (collect is the only step left)."""
        return self._phase in ("drained", "collected")

    def _require(self, expected: str, to: str) -> None:
        if self._phase != expected:
            raise ExperimentError(
                f"cannot {to} from phase {self._phase!r}; the lifecycle is "
                f"{' -> '.join(_PHASES[1:])}"
            )

    def _advance(self, expected: str, to: str) -> None:
        self._require(expected, to)
        self._phase = to

    # ------------------------------------------------------------------
    # Phase 1: build
    # ------------------------------------------------------------------
    def build(self) -> "StackBuilder":
        """Construct every component the scenario names (no events yet)."""
        self._advance("new", "built")
        spec = self.spec
        plan = self._plan()
        trace = (
            ConstantLoad(spec.rate_qps)
            if self._setup is not None
            else build_trace(spec.trace)
        )
        sim = Simulator()
        # Streams are name-derived (creation order never shifts seeds).
        streams = RandomStreams(spec.seed)
        target: Union[Application, _ShardRouter]
        if spec.shards > 1:
            # Each shard forks its own stream universe, so shard count
            # never perturbs the shared arrival/demand streams and every
            # shard's faults draw from an independent source.
            target = _ShardRouter(
                [
                    self._build_stack(
                        sim,
                        plan,
                        streams.fork(f"shard{index}"),
                        f"{plan.app}[{index}]",
                        f"[shard{index}]",
                    ).application
                    for index in range(spec.shards)
                ],
                spec.splitter,
            )
        else:
            stack = self._build_stack(sim, plan, streams, plan.app, "")
            target = self.application = stack.application
            self.machine = stack.machine
            self.budget = stack.budget
            self.command_center = stack.command_center
            self.controller = stack.controller
            self.chaos = stack.harness
            if self._setup is not None:
                # Figures 13/14 normalise power to the over-provisioned
                # deployment's draw as built: the baseline's constant draw.
                self._sampler = QosSampler(
                    sim,
                    stack.application,
                    stack.command_center,
                    qos_target_s=self._setup.qos_target_s,
                    reference_power_watts=stack.application.total_power(),
                    sample_interval_s=spec.sample_interval_s,
                )
            else:
                self._sampler = StateSampler(
                    sim, stack.application, spec.sample_interval_s
                )
        # One shared workload: arrivals and demands are byte-identical
        # regardless of shard count — only the routing differs.
        factory = QueryFactory(
            [profile for profile, _ in app_stages(plan.app)], streams
        )
        self.generator = PoissonLoadGenerator(
            sim, target, factory, trace, streams, spec.duration_s
        )
        self.sim = sim
        return self

    def _plan(self) -> _StackPlan:
        """The data this run's stacks are built from."""
        spec = self.spec
        setup = self._setup
        if setup is None:
            allocation = spec.allocation_mapping()
            if allocation is None:
                freq = (
                    spec.initial_freq_ghz
                    if spec.initial_freq_ghz is not None
                    else TABLE2_INITIAL_FREQ_GHZ
                )
                allocation = _uniform_allocation(
                    spec.app, HASWELL_LADDER.level_of(freq), 1
                )
            config = spec.controller_config()
            if config is None:
                config = TABLE2_CONTROLLER_CONFIG
            policy = LATENCY_CONTROLLERS[spec.policy]
            guard = spec.guard_config()
            return _StackPlan(
                app=spec.app,
                allocation=allocation,
                budget_watts=(
                    spec.budget_watts
                    if spec.budget_watts is not None
                    else TABLE2_POWER_BUDGET_WATTS
                ),
                command_center=partial(
                    CommandCenter, window_s=spec.stats_window_s
                ),
                controller=(
                    partial(policy, config=config)
                    if guard is None
                    else partial(
                        SupervisedController,
                        config=config,
                        policy=policy,
                        guard=guard,
                    )
                ),
            )
        options = dict(spec.options)
        e2e_window_s = options.get("e2e_window_s")
        window = (
            float(e2e_window_s)
            if e2e_window_s is not None
            else max(3.0 * setup.adjust_interval_s, 10.0)
        )
        qos_args = {
            "qos_target_s": setup.qos_target_s,
            "config": setup.controller_config(),
        }
        controllers: dict[str, Callable[..., BaseController]] = {
            "pegasus": partial(
                PegasusController,
                hold_fraction=float(options.get("hold_fraction", 0.85)),
                **qos_args,
            ),
            "powerchief": partial(
                PowerChiefConserveController,
                conserve_fraction=float(options.get("conserve_fraction", 0.75)),
                guard_fraction=float(options.get("guard_fraction", 0.92)),
                **qos_args,
            ),
        }
        return _StackPlan(
            app=setup.app,
            allocation=_uniform_allocation(
                setup.app,
                HASWELL_LADDER.level_of(setup.initial_freq_ghz),
                dict(setup.instances_per_stage),
            ),
            budget_watts=None,
            command_center=partial(
                CommandCenter, window_s=window, e2e_window_s=window
            ),
            controller=controllers.get(spec.policy),
        )

    def _build_stack(
        self,
        sim: Simulator,
        plan: _StackPlan,
        streams: RandomStreams,
        name: str,
        tag: str,
    ) -> _Stack:
        """Build one stack (a whole run's, or one shard's) from the plan."""
        spec = self.spec
        harness = None
        if spec.chaos is not None:
            from repro.faults.chaos import ChaosHarness

            harness = ChaosHarness(spec.chaos_plan())
        machine = Machine(
            sim,
            n_cores=spec.n_cores,
            contention=contention_from_spec(spec.contention),
        )
        application = _build_app(
            plan.app,
            sim,
            machine,
            plan.allocation,
            self._observability,
            None if harness is None else harness.build_fabric(sim, streams),
            name,
        )
        budget = PowerBudget(
            machine,
            machine.peak_power() if plan.budget_watts is None else plan.budget_watts,
        )
        budget.assert_within(f"the {spec.app} allocation")
        command_center = plan.command_center(sim, application)
        dvfs = DvfsActuator(sim)
        controller = (
            None
            if plan.controller is None
            else plan.controller(sim, application, command_center, budget, dvfs)
        )
        stack = _Stack(
            machine=machine,
            application=application,
            budget=budget,
            command_center=command_center,
            controller=controller,
            harness=harness,
            streams=streams,
            tag=tag,
        )
        self._stacks.append(stack)
        return stack

    # ------------------------------------------------------------------
    # Phase 2: arm
    # ------------------------------------------------------------------
    def arm(self) -> "StackBuilder":
        """Attach observability hooks and install the chaos subsystem.

        The simulator-wide pieces (time binding, event counter, power
        telemetry) are wired once, then every stack is armed the same
        way, then the run-wide collectors (energy, stream) attach.
        Power telemetry and energy attribution need a single machine, so
        only single-stack runs sample power.
        """
        self._advance("built", "armed")
        sim = self.sim
        assert sim is not None
        obs = self._observability
        if obs is not None:
            bind_simulator(lambda: sim.now)
            self._closers.append(unbind_simulator)
            if obs.metrics is not None:
                # The simulator already counts the events it fires: read
                # that count, and freeze it when the builder closes.
                events = obs.metrics.counter(
                    "repro_sim_events_total", "Simulation events fired"
                )
                armed_at = sim.events_processed
                events.set_function(lambda: sim.events_processed - armed_at)

                def freeze() -> None:
                    fired = sim.events_processed - armed_at
                    events.set_function(lambda: fired)

                self._closers.append(freeze)
                if len(self._stacks) == 1:
                    self.telemetry = PowerTelemetry(
                        sim,
                        self._stacks[0].machine,
                        sample_interval_s=self.spec.sample_interval_s,
                        registry=obs.metrics,
                    )
                    self.telemetry.start()
                    self._closers.append(self.telemetry.stop)
        for stack in self._stacks:
            self._arm_stack(stack)
        if obs is not None and obs.energy is not None:
            if self.telemetry is None:
                raise ConfigurationError(
                    "the energy attributor needs the power telemetry of a "
                    "single-stack run; arm the 'metrics' pillar alongside "
                    "'energy'"
                )
            obs.energy.attach(self._stacks[0].application.stages, self.telemetry)
            self._closers.append(obs.energy.detach)
        if obs is not None and obs.stream is not None:
            self._attach_stream(obs.stream, obs.slo)
        return self

    def _arm_stack(self, stack: _Stack) -> None:
        """Subscribe the run's listening pillars to one stack and install
        chaos.  Every producer already reads its pillars from the
        application it was built on."""
        obs = self._observability
        application = stack.application
        if obs is not None:
            if obs.attribution is not None:
                obs.attribution.attach(application)
            if obs.slo is not None:
                obs.slo.attach(application)
        if stack.harness is not None:
            assert self.sim is not None and stack.controller is not None
            stack.harness.install(
                sim=self.sim,
                machine=stack.machine,
                application=application,
                controller=stack.controller,
                budget=stack.budget,
                telemetry=self.telemetry,
                streams=stack.streams,
            )

    def _attach_stream(
        self, stream: StreamExporter, slo: Optional[SloTracker]
    ) -> None:
        """Register the standard probes and hook the exporter on."""
        sim = self.sim
        assert sim is not None
        stacks = self._stacks
        if len(stacks) == 1:
            application = stacks[0].application
            stream.add_probe(
                "queries",
                lambda: {
                    "submitted": application.submitted,
                    "completed": application.completed,
                    "timed_out": application.timed_out,
                    "in_flight": application.in_flight,
                },
            )
            stream.add_probe("power_watts", stacks[0].machine.total_power)
            stream.add_probe(
                "stages",
                lambda: {
                    stage.name: stage.snapshot()
                    for stage in application.stages
                },
            )
        else:
            stream.add_probe(
                "queries",
                lambda: {
                    "completed": sum(s.application.completed for s in stacks),
                    "per_shard": {
                        str(index): s.application.completed
                        for index, s in enumerate(stacks)
                    },
                },
            )
        if slo is not None:
            stream.add_probe(
                "slo",
                lambda: {
                    "attainment": slo.attainment(),
                    "burn_rate": slo.burn_rate(sim.now),
                },
            )
        stream.attach(sim)
        self._closers.append(stream.close)

    def _finalize_obs(self) -> None:
        """Unwind every observability hook, last-armed first (idempotent)."""
        while self._closers:
            self._closers.pop()()

    # ------------------------------------------------------------------
    # Phase 3: start
    # ------------------------------------------------------------------
    def start(self) -> "StackBuilder":
        """Schedule the initial events (controllers, sampler, chaos,
        arrivals)."""
        self._advance("armed", "started")
        assert self.generator is not None
        for stack in self._stacks:
            if stack.controller is not None:
                stack.controller.start()
        if self._sampler is not None:
            self._sampler.start()
        for stack in self._stacks:
            if stack.harness is not None:
                stack.harness.start()
        self.generator.start()
        return self

    # ------------------------------------------------------------------
    # Phases 4+5: run / drain — incremental underneath
    # ------------------------------------------------------------------
    def tick(self, until: float) -> "StackBuilder":
        """Advance the stack to simulated time ``until`` (clamped to
        :attr:`end_s`), walking any window boundary it crosses.

        Legal from the arrival window (phase ``started``) and the drain
        window (phase ``ran``); crossing ``duration_s`` stops the
        controllers/sampler exactly as :meth:`run` does, and reaching
        :attr:`end_s` performs the chaos teardown exactly as
        :meth:`drain` does — so any sequence of tick deadlines replays
        the batch path's event sequence byte for byte.  A deadline at or
        before the current clock (after clamping) is a no-op, never a
        replay of already-fired events.
        """
        if self._phase not in _TICKABLE_PHASES:
            raise ExperimentError(
                f"cannot tick from phase {self._phase!r}; tick is legal "
                f"from {' and '.join(repr(p) for p in _TICKABLE_PHASES)}"
            )
        assert self.sim is not None
        if until < self.sim.now:
            raise ExperimentError(
                f"cannot tick to t={until}; the stack is already at "
                f"t={self.sim.now}"
            )
        if self._phase == "started":
            self._tick_run_window(min(until, self.spec.duration_s))
        if self._phase == "ran":
            self._tick_drain_window(min(until, self.end_s))
        return self

    def _tick_run_window(self, target: float) -> None:
        """Advance within the arrival window; stop samplers at its end."""
        assert self.sim is not None
        if target > self.sim.now:
            self.sim.run_until(target)
        if self.sim.now >= self.spec.duration_s:
            self._on_arrivals_complete()

    def _tick_drain_window(self, target: float) -> None:
        """Advance within the drain window; tear chaos down at its end.

        The batch path never touches the simulator when the spec has no
        drain window, so this only runs the clock when the target is
        strictly ahead — events scheduled at exactly ``duration_s`` by
        the stop hooks must not fire here.
        """
        assert self.sim is not None
        if target > self.sim.now:
            # The generator stopped at ``duration_s``; the health monitor
            # keeps respawning while retries settle.
            self.sim.run_until(target)
        if self.sim.now >= self.end_s:
            self._on_drain_complete()

    def _on_arrivals_complete(self) -> None:
        """The arrival window closed: stop the controllers and sampler
        (arrivals cease; retries may linger through the drain window)."""
        self._advance("started", "ran")
        for stack in self._stacks:
            if stack.controller is not None:
                stack.controller.stop()
        if self._sampler is not None:
            self._sampler.stop()

    def _on_drain_complete(self) -> None:
        """The drain window closed: tear down the chaos subsystem."""
        self._advance("ran", "drained")
        for stack in self._stacks:
            if stack.harness is not None:
                stack.harness.stop()

    def run(self) -> "StackBuilder":
        """Advance the simulation through the arrival window, then stop
        the controllers and sampler (arrivals cease; retries may linger)."""
        self._require("started", "ran")
        self._tick_run_window(self.spec.duration_s)
        return self

    def drain(self) -> "StackBuilder":
        """Let in-flight retries/timeouts settle past the last arrival.

        A no-op when the spec has no drain window, but the phase is still
        walked so chaos teardown has one well-defined home.
        """
        self._require("ran", "drained")
        self._tick_drain_window(self.end_s)
        return self

    # ------------------------------------------------------------------
    # Abort: off-lifecycle teardown
    # ------------------------------------------------------------------
    def abort(self) -> "StackBuilder":
        """Tear the stack down from whatever phase it is in.

        Releases everything live — periodic processes (controllers,
        sampler, chaos harnesses), telemetry listeners, stream exporters
        and the simulator-time binding — so a failed or cancelled run
        never strands global observability state.  Legal from any phase;
        a second call (or a call after ``collect``, which already
        finalised) is a no-op.  Teardown is best-effort: a step that
        raises is recorded in :attr:`abort_errors` rather than masking
        whatever error caused the abort.
        """
        if self._phase in ("collected", "aborted"):
            return self

        def safely(label: str, action: Callable[[], None]) -> None:
            try:
                action()
            except Exception as exc:  # noqa: BLE001 - best-effort teardown
                self.abort_errors.append((label, exc))

        if self._phase == "started":
            # Periodic processes are live; stop() is idempotent on all
            # of them, so over-stopping is safe.
            for stack in self._stacks:
                if stack.controller is not None:
                    safely(f"controller{stack.tag}", stack.controller.stop)
            if self._sampler is not None:
                safely("sampler", self._sampler.stop)
        if self._phase in ("started", "ran"):
            # Chaos outlives the arrival window; stop it from either.
            for stack in self._stacks:
                if stack.harness is not None:
                    safely(f"chaos{stack.tag}", stack.harness.stop)
        # Armed or later: observability hooks/listeners are attached.
        safely("observability", self._finalize_obs)
        self._closers.clear()
        self._phase = "aborted"
        return self

    def status(self) -> dict[str, object]:
        """A JSON-able snapshot of where the stack is — the control-plane
        daemon's ``status`` answer."""
        return {
            "phase": self._phase,
            "app": self.spec.app,
            "policy": self.spec.policy,
            "digest": self.spec.digest(),
            "now_s": self.sim.now if self.sim is not None else 0.0,
            "duration_s": self.spec.duration_s,
            "end_s": self.end_s,
            "finished": self.finished,
            "queries_submitted": (
                self.generator.queries_submitted
                if self.generator is not None
                else 0
            ),
            "queries_completed": sum(
                stack.application.completed for stack in self._stacks
            ),
        }

    # ------------------------------------------------------------------
    # Phase 6: collect
    # ------------------------------------------------------------------
    def collect(self) -> Union[RunResult, QosRunResult, ShardedRunResult]:
        """Finalise observability, re-check budgets, return the result."""
        self._advance("drained", "collected")
        self._finalize_obs()
        for stack in self._stacks:
            stack.budget.assert_within()
        spec = self.spec
        assert self.generator is not None
        total_s = spec.duration_s + spec.drain_s
        if spec.shards > 1:
            shards = tuple(
                ShardResult(
                    index=index,
                    queries_completed=stack.application.completed,
                    latency=(
                        summarize(stack.command_center.all_latencies)
                        if stack.command_center.all_latencies
                        else None
                    ),
                    average_power_watts=stack.machine.total_energy() / total_s,
                    actions=_actions(stack.controller),
                )
                for index, stack in enumerate(self._stacks)
            )
            return ShardedRunResult(
                app=spec.app,
                policy=spec.policy,
                duration_s=spec.duration_s,
                n_shards=spec.shards,
                splitter=spec.splitter,
                queries_submitted=self.generator.queries_submitted,
                queries_completed=sum(shard.queries_completed for shard in shards),
                latency=_summarize_completed(
                    [
                        latency
                        for stack in self._stacks
                        for latency in stack.command_center.all_latencies
                    ],
                    f"{spec.app}/{spec.policy} x{spec.shards} sharded run",
                ),
                average_power_watts=sum(
                    shard.average_power_watts for shard in shards
                ),
                shards=shards,
            )
        stack = self._stacks[0]
        if isinstance(self._sampler, QosSampler):
            assert self._setup is not None
            return QosRunResult(
                app=self._setup.app,
                policy=spec.policy,
                duration_s=spec.duration_s,
                qos_target_s=self._setup.qos_target_s,
                reference_power_watts=self._sampler.reference_power_watts,
                queries_submitted=self.generator.queries_submitted,
                queries_completed=stack.application.completed,
                latency=_summarize_completed(
                    stack.command_center.all_latencies,
                    f"{self._setup.app}/{spec.policy} QoS run",
                ),
                average_power_fraction=self._sampler.average_power_fraction(),
                violation_fraction=self._sampler.violation_fraction(),
                actions=_actions(stack.controller),
                qos_samples=tuple(self._sampler.samples),
            )
        assert isinstance(self._sampler, StateSampler)
        return RunResult(
            app=spec.app,
            policy=spec.policy,
            duration_s=spec.duration_s,
            queries_submitted=self.generator.queries_submitted,
            queries_completed=stack.application.completed,
            latency=_summarize_completed(
                stack.command_center.all_latencies,
                f"{spec.app}/{spec.policy} latency run",
            ),
            average_power_watts=stack.machine.total_energy() / total_s,
            actions=_actions(stack.controller),
            state_samples=tuple(self._sampler.samples),
        )

    # ------------------------------------------------------------------
    def execute(self) -> Union[RunResult, QosRunResult, ShardedRunResult]:
        """Walk the whole lifecycle: build, arm, start, run, drain, collect.

        Observability hooks unwind even when the run raises.
        """
        self.build()
        self.arm()
        try:
            self.start()
            self.run()
            self.drain()
        except BaseException:
            self.abort()
            raise
        return self.collect()


def _actions(controller: Optional[BaseController]) -> tuple:
    return () if controller is None else tuple(controller.actions)


def _summarize_completed(latencies: list[float], context: str) -> LatencySummary:
    if not latencies:
        raise ExperimentError(
            f"{context}: no queries completed; extend the duration or "
            f"raise the arrival rate"
        )
    return summarize(latencies)


def run_scenario(
    spec: ScenarioSpec,
) -> Union[RunResult, QosRunResult, ShardedRunResult]:
    """Build and run the stack one scenario describes, end to end."""
    return StackBuilder(spec).execute()
