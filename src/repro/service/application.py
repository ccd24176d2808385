"""A multi-stage application: an ordered pipeline of stages.

"A query to an IPA application flows through Automatic Speech Recognition,
Natural Language Processing, Image Matching and Question-Answering stages
to generate an intelligent response." (Section 1, Figure 1)

The application routes queries stage to stage, stamps arrival and
completion times, and notifies completion listeners — the command center
registers itself as one to ingest the per-instance latency records the
query carried along.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Optional

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, StageError
from repro.cluster.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs import Observability
    from repro.obs.metrics import MetricsRegistry
    from repro.service.resilience import RetryPolicy
    from repro.service.rpc import RpcFabric
    from repro.sim.rng import RandomStreams
from repro.service.instance import ServiceInstance
from repro.service.profile import ServiceProfile
from repro.service.query import Query
from repro.service.stage import Stage, StageKind
from repro.sim.engine import Simulator

__all__ = ["Application"]

CompletionListener = Callable[[Query], None]
FailureListener = Callable[[Query], None]
CrashListener = Callable[[Stage, ServiceInstance], None]


class Application:
    """An ordered pipeline of :class:`Stage` objects sharing one machine.

    Hops between stages are instantaneous, as in the paper's own
    evaluation.  Passing an :class:`~repro.service.rpc.RpcFabric` routes
    every hop — and the per-query statistics report to the command
    center — through the fabric, with its latency and message accounting
    (Section 8.5: "the joint design of service and query in our approach
    is extensible to include the network delays").
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        machine: Machine,
        fabric: Optional["RpcFabric"] = None,
        observability: Optional["Observability"] = None,
    ) -> None:
        if not name:
            raise ConfigurationError("application needs a non-empty name")
        self.name = name
        self.sim = sim
        self.machine = machine
        self.fabric = fabric
        self.observability = observability
        self._metrics = None if observability is None else observability.metrics
        self._stages: list[Stage] = []
        self._stage_by_name: dict[str, Stage] = {}
        # One pre-bound onward route per stage index: creating a fresh
        # closure per submit per stage is pure allocation churn, and the
        # routes never change once the topology is built.
        self._hop_callbacks: list[Callable[[Query], None]] = []
        self._iid_counter = itertools.count(0)
        self._listeners: list[CompletionListener] = []
        self._failure_listeners: list[FailureListener] = []
        self._crash_listeners: list[CrashListener] = []
        self._submitted = 0
        self._completed = 0
        self._timed_out = 0
        self._retried_completed = 0
        self._resilient = False

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_stage(
        self,
        profile: ServiceProfile,
        kind: StageKind = StageKind.PIPELINE,
    ) -> Stage:
        """Append a stage to the pipeline; queries flow in add order."""
        if profile.name in self._stage_by_name:
            raise ConfigurationError(
                f"application {self.name} already has a stage {profile.name!r}"
            )
        stage = Stage(
            name=profile.name,
            profile=profile,
            machine=self.machine,
            sim=self.sim,
            iid_counter=self._iid_counter,
            kind=kind,
            tracer=(
                None
                if self.observability is None
                else self.observability.tracer
            ),
        )
        self._stages.append(stage)
        self._stage_by_name[profile.name] = stage
        self._hop_callbacks.append(partial(self._hop, len(self._stages)))
        stage.add_crash_listener(self._on_instance_crash)
        return stage

    def attach_resilience(
        self,
        policy: "RetryPolicy",
        streams: "RandomStreams",
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        """Attach a timeout/retry layer to every stage of the pipeline.

        Each stage gets its own named stream (``resilience:<stage>``) so
        backoff jitter never perturbs the workload streams, and adding a
        stage's retries never shifts another stage's.
        """
        self._resilient = True
        for stage in self._stages:
            stage.attach_resilience(
                policy, streams.stream(f"resilience:{stage.name}"), metrics
            )

    @property
    def stages(self) -> tuple[Stage, ...]:
        return tuple(self._stages)

    def stage(self, name: str) -> Stage:
        try:
            return self._stage_by_name[name]
        except KeyError:
            raise StageError(
                f"application {self.name} has no stage {name!r}"
            ) from None

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self._stages]

    # ------------------------------------------------------------------
    # Instance-pool views
    # ------------------------------------------------------------------
    def all_instances(self) -> list[ServiceInstance]:
        """Every non-withdrawn instance across all stages."""
        return [inst for stage in self._stages for inst in stage.instances]

    def running_instances(self) -> list[ServiceInstance]:
        return [
            inst for stage in self._stages for inst in stage.running_instances()
        ]

    def total_power(self) -> float:
        return sum(stage.total_power() for stage in self._stages)

    def total_queue_length(self) -> int:
        return sum(stage.total_queue_length() for stage in self._stages)

    # ------------------------------------------------------------------
    # Query flow
    # ------------------------------------------------------------------
    def add_completion_listener(self, listener: CompletionListener) -> None:
        """Subscribe to query completions (the command center does this)."""
        self._listeners.append(listener)

    def add_failure_listener(self, listener: FailureListener) -> None:
        """Subscribe to terminal query failures (retry budget exhausted)."""
        self._failure_listeners.append(listener)

    def add_crash_listener(self, listener: CrashListener) -> None:
        """Subscribe to instance crashes on any stage (health monitor)."""
        self._crash_listeners.append(listener)

    @property
    def submitted(self) -> int:
        return self._submitted

    @property
    def completed(self) -> int:
        return self._completed

    @property
    def timed_out(self) -> int:
        """Queries that failed terminally after exhausting their retries."""
        return self._timed_out

    @property
    def retried_completed(self) -> int:
        """Completed queries that needed at least one retry on the way."""
        return self._retried_completed

    @property
    def in_flight(self) -> int:
        return self._submitted - self._completed - self._timed_out

    def submit(self, query: Query) -> None:
        """Inject a query into the first stage."""
        if not self._stages:
            raise StageError(f"application {self.name} has no stages")
        if not query.demands.keys() >= self._stage_by_name.keys():
            missing = [
                stage.name
                for stage in self._stages
                if stage.name not in query.demands
            ]
            raise StageError(
                f"query {query.qid} lacks demands for stages {missing}"
            )
        query.arrival_time = self.sim._now
        self._submitted += 1
        if self._metrics is not None:
            self._metrics.counter(
                "repro_queries_submitted_total", "Queries injected into the pipeline"
            ).inc(app=self.name)
        self._advance(query, 0)

    def _advance(self, query: Query, stage_index: int) -> None:
        stages = self._stages
        if stage_index >= len(stages):
            query.completion_time = self.sim._now
            self._completed += 1
            if query.retried:
                self._retried_completed += 1
            if self._metrics is not None:
                self._metrics.counter(
                    "repro_queries_completed_total",
                    "Queries that finished the last pipeline stage",
                ).inc(app=self.name)
                self._metrics.histogram(
                    "repro_query_e2e_latency_seconds",
                    "End-to-end response latency",
                ).observe(query.end_to_end_latency)
            if self.fabric is not None:
                # The latency statistics travel to the command center as
                # one RPC message per query (Section 4.1, Figure 6).
                self.fabric.send(
                    f"stage:{self._stages[-1].name}",
                    "command-center",
                    lambda: self._notify(query),
                )
            else:
                self._notify(query)
            return
        stage = stages[stage_index]
        on_stage_done = self._hop_callbacks[stage_index]
        if self._resilient:
            stage.submit(query, on_stage_done, self._fail_query)
        else:
            stage.submit(query, on_stage_done)

    def _fail_query(self, query: Query) -> None:
        """Terminal failure: the query exhausted a stage's retry budget."""
        query.failed_time = self.sim.now
        self._timed_out += 1
        if self._metrics is not None:
            self._metrics.counter(
                "repro_queries_timed_out_total",
                "Queries that failed terminally after exhausting retries",
            ).inc(app=self.name)
        for listener in tuple(self._failure_listeners):
            listener(query)

    def _on_instance_crash(self, stage: Stage, instance: ServiceInstance) -> None:
        for listener in tuple(self._crash_listeners):
            listener(stage, instance)

    def _notify(self, query: Query) -> None:
        for listener in tuple(self._listeners):
            listener(query)

    def _hop(self, next_index: int, query: Query) -> None:
        """Route onward, over the fabric when there is one."""
        if self.fabric is None:
            self._advance(query, next_index)
            return
        src = f"stage:{self._stages[next_index - 1].name}"
        dst = (
            f"stage:{self._stages[next_index].name}"
            if next_index < len(self._stages)
            else "user"
        )
        self.fabric.send(src, dst, lambda: self._advance(query, next_index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = " -> ".join(self.stage_names())
        return f"Application({self.name!r}: {names})"
