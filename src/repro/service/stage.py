"""A processing stage: a pool of service instances fed shortest-queue first.

"To sustain the large amount of user queries, each stage consists of
multiple service instances to alleviate the load." (Section 1, Figure 3)

Two stage kinds are supported:

* ``PIPELINE`` — the default: each query is served by exactly one instance
  of the stage (Sirius's ASR/IMM/QA, NLP's POS/PSG/SRL).
* ``SCATTER_GATHER`` — every query fans out to *all* running instances,
  each serving an equal shard, and the stage completes when the last shard
  finishes.  This models Web Search's leaf tier (Table 3: "1 aggregation
  service and 10 leaf services"), where withdrawing a leaf redistributes
  its shard of the index across the survivors.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import StageError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceBuffer
    from repro.sim.rng import SeededStream
from repro.cluster.machine import Machine
from repro.service.dispatch import shortest_queue
from repro.service.instance import InstanceState, Job, ServiceInstance
from repro.service.profile import ServiceProfile
from repro.service.query import Query
from repro.service.resilience import RetryPolicy, StageResilience
from repro.sim.engine import Simulator

__all__ = ["Stage", "StageKind"]

CrashListener = Callable[["Stage", ServiceInstance], None]


class StageKind(enum.Enum):
    """How queries map onto the stage's instance pool."""

    PIPELINE = "pipeline"
    SCATTER_GATHER = "scatter_gather"


_PIPELINE = StageKind.PIPELINE


class Stage:
    """One stage of a multi-stage application."""

    def __init__(
        self,
        name: str,
        profile: ServiceProfile,
        machine: Machine,
        sim: Simulator,
        iid_counter: "itertools.count[int]",
        kind: StageKind = StageKind.PIPELINE,
        tracer: Optional["TraceBuffer"] = None,
    ) -> None:
        if not name:
            raise StageError("stage needs a non-empty name")
        self.name = name
        self.profile = profile
        self.machine = machine
        self.sim = sim
        self.kind = kind
        self.tracer = tracer
        self._iid_counter = iid_counter
        self._name_counter = itertools.count(1)
        self._instances: list[ServiceInstance] = []
        # Cached running-instance list, rebuilt lazily; invalidated on
        # every pool mutation and every instance lifecycle transition
        # (each instance notifies via its state listener).  Callers of
        # the private accessor must treat the list as read-only.
        self._running_cache: Optional[list[ServiceInstance]] = None
        self._launches = 0
        self._withdrawals = 0
        self._crashes = 0
        self._orphaned_jobs = 0
        self._resilience: Optional[StageResilience] = None
        self._crash_listeners: list[CrashListener] = []

    # ------------------------------------------------------------------
    # Pool introspection
    # ------------------------------------------------------------------
    @property
    def instances(self) -> tuple[ServiceInstance, ...]:
        """All non-withdrawn instances (running and draining)."""
        return tuple(self._instances)

    def running_instances(self) -> list[ServiceInstance]:
        return list(self._running())

    def _running(self) -> list[ServiceInstance]:
        """The cached running pool; treat the returned list as read-only."""
        cache = self._running_cache
        if cache is None:
            cache = self._running_cache = [
                inst
                for inst in self._instances
                if inst._state is InstanceState.RUNNING
            ]
        return cache

    def _invalidate_running_cache(self, _instance: ServiceInstance) -> None:
        self._running_cache = None

    @property
    def instance_count(self) -> int:
        return len(self._instances)

    @property
    def launches(self) -> int:
        """Total instances launched into this stage over the run."""
        return self._launches

    @property
    def withdrawals(self) -> int:
        """Total instances withdrawn from this stage over the run."""
        return self._withdrawals

    @property
    def crashes(self) -> int:
        """Total instances killed by fault injection over the run."""
        return self._crashes

    @property
    def orphaned_jobs(self) -> int:
        """Jobs lost to crashes with no surviving instance and no resilience.

        Must stay zero whenever a :class:`StageResilience` is attached —
        the zero-orphan invariant the chaos harness asserts.
        """
        return self._orphaned_jobs

    @property
    def resilience(self) -> Optional[StageResilience]:
        """The attached retry layer, if any."""
        return self._resilience

    def total_power(self) -> float:
        return sum(inst.power_watts for inst in self._instances)

    def total_queue_length(self) -> int:
        return sum(inst.queue_length for inst in self._instances)

    def snapshot(self) -> dict[str, float]:
        """One stream-probe sample: pool size, backlog and draw right now."""
        return {
            "instances": float(len(self._instances)),
            "running": float(len(self._running())),
            "queued": float(self.total_queue_length()),
            "watts": float(self.total_power()),
        }

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def launch_instance(self, level: int) -> ServiceInstance:
        """Start a new instance at the given ladder level.

        Acquires a core from the machine; power-budget enforcement is the
        caller's job (the controller checks before boosting).
        """
        core = self.machine.acquire_core(level)
        name = f"{self.name}_{next(self._name_counter)}"
        instance = ServiceInstance(
            iid=next(self._iid_counter),
            name=name,
            stage_name=self.name,
            profile=self.profile,
            core=core,
            sim=self.sim,
            machine=self.machine,
            tracer=self.tracer,
        )
        instance.set_state_listener(self._invalidate_running_cache)
        self._instances.append(instance)
        self._running_cache = None
        self._launches += 1
        return instance

    def withdraw_instance(
        self,
        instance: ServiceInstance,
        redirect_to: Optional[ServiceInstance] = None,
    ) -> None:
        """Withdraw an instance: redirect its waiting load, drain, release.

        "The additional load is then redirected to the fastest service
        instance that has the least possibility to be overwhelmed"
        (Section 6.2): the PowerChief withdrawer passes that instance as
        ``redirect_to``; without it each job joins the shortest queue of
        the remaining pool.  A stage never drops to zero
        instances ("an underutilized instance can be withdrew only if there
        are more than one instance within the same stage").
        """
        if instance not in self._instances:
            raise StageError(f"{instance.name} is not in stage {self.name}")
        if not instance.running:
            raise StageError(f"{instance.name} is already {instance.state.value}")
        remaining = [inst for inst in self.running_instances() if inst is not instance]
        if not remaining:
            raise StageError(
                f"cannot withdraw the only instance of stage {self.name}"
            )
        if redirect_to is not None and redirect_to not in remaining:
            raise StageError(
                f"redirect target {redirect_to.name} is not a running "
                f"instance of stage {self.name}"
            )
        for job in instance.take_all_waiting():
            target = (
                redirect_to
                if redirect_to is not None
                else shortest_queue(remaining)
            )
            target.enqueue(job)
        self._withdrawals += 1
        instance.drain(self._on_drained)

    def _on_drained(self, instance: ServiceInstance) -> None:
        self.machine.release_core(instance.core)
        self._instances.remove(instance)
        self._running_cache = None

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def add_crash_listener(self, listener: CrashListener) -> None:
        """Subscribe to instance crashes (the health monitor does this)."""
        self._crash_listeners.append(listener)

    def crash_instance(self, instance: ServiceInstance) -> int:
        """Kill an instance; requeue its orphaned jobs; return orphan count.

        Orphans are re-dispatched through the resilience layer when one
        is attached (preserving each attempt's live timeout), otherwise
        directly onto surviving running instances.  Only when the stage
        has neither resilience nor survivors are jobs truly lost — the
        loss is counted in :attr:`orphaned_jobs` rather than silently
        dropped.
        """
        if instance not in self._instances:
            raise StageError(f"{instance.name} is not in stage {self.name}")
        if instance.state not in (InstanceState.RUNNING, InstanceState.DRAINING):
            raise StageError(
                f"{instance.name} is already {instance.state.value}; cannot crash"
            )
        orphans = instance.crash()
        self._crashes += 1
        self._instances.remove(instance)
        self._running_cache = None
        self.machine.release_core(instance.core)
        if self._resilience is not None:
            unowned = self._resilience.requeue_orphans(orphans)
        else:
            unowned = orphans
        survivors = self.running_instances()
        lost = 0
        for job in unowned:
            if job.cancelled:
                continue
            if survivors:
                shortest_queue(survivors).enqueue(job)
            else:
                lost += 1
        self._orphaned_jobs += lost
        for listener in tuple(self._crash_listeners):
            listener(self, instance)
        return len(orphans)

    def attach_resilience(
        self,
        policy: RetryPolicy,
        stream: "SeededStream",
        metrics: Optional["MetricsRegistry"] = None,
    ) -> StageResilience:
        """Route every future submit through the timeout/retry discipline."""
        if self._resilience is not None:
            raise StageError(f"stage {self.name} already has a resilience layer")
        self._resilience = StageResilience(self, policy, stream, metrics)
        return self._resilience

    # ------------------------------------------------------------------
    # Query flow
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        on_stage_done: Callable[[Query], None],
        on_stage_failed: Optional[Callable[[Query], None]] = None,
    ) -> None:
        """Route a query into the stage; ``on_stage_done`` fires on completion.

        With a resilience layer attached, ``on_stage_failed`` fires
        instead when the retry budget is exhausted; an empty instance
        pool is then tolerated (the layer re-probes until an instance
        respawns or the attempt times out).  Without one, the legacy
        contract holds: the pool must be non-empty and the stage never
        gives up on a query.
        """
        if self._resilience is not None:
            if on_stage_failed is None:
                raise StageError(
                    f"stage {self.name} has a resilience layer; submit needs "
                    f"an on_stage_failed callback"
                )
            self._submit_resilient(query, on_stage_done, on_stage_failed)
            return
        running = self._running_cache
        if running is None:
            running = self._running()
        if not running:
            raise StageError(f"stage {self.name} has no running instances")
        if self.kind is _PIPELINE:
            work = query.demand_for(self.name)
            shortest_queue(running).enqueue(Job(query, work, on_stage_done))
        else:
            self._submit_scatter_gather(query, running, on_stage_done)

    def _submit_scatter_gather(
        self,
        query: Query,
        running: list[ServiceInstance],
        on_stage_done: Callable[[Query], None],
    ) -> None:
        total_work = query.demand_for(self.name)
        shard_work = total_work / len(running)
        outstanding = len(running)

        def shard_done(done_query: Query) -> None:
            nonlocal outstanding
            outstanding -= 1
            if outstanding == 0:
                on_stage_done(done_query)

        for instance in running:
            instance.enqueue(Job(query=query, work=shard_work, on_done=shard_done))

    def _submit_resilient(
        self,
        query: Query,
        on_stage_done: Callable[[Query], None],
        on_stage_failed: Callable[[Query], None],
    ) -> None:
        resilience = self._resilience
        assert resilience is not None
        work = query.demand_for(self.name)
        if self.kind is StageKind.PIPELINE:
            resilience.submit(query, work, on_stage_done, on_stage_failed)
            return
        # Scatter-gather: shard over the pool as seen at submit time; each
        # shard retries independently.  One shard exhausting its budget
        # fails the whole query and abandons the surviving siblings.  With
        # the pool momentarily empty, degrade to a single full-work shard —
        # a retry will find the respawned pool.
        shard_count = max(1, len(self.running_instances()))
        shard_work = work / shard_count
        outstanding = shard_count
        failed = False
        attempts = []

        def shard_done(done_query: Query) -> None:
            nonlocal outstanding
            if failed:
                return
            outstanding -= 1
            if outstanding == 0:
                on_stage_done(done_query)

        def shard_failed(failed_query: Query) -> None:
            nonlocal failed
            if failed:
                return
            failed = True
            for sibling in attempts:
                resilience.cancel(sibling)
            on_stage_failed(failed_query)

        for _ in range(shard_count):
            attempts.append(
                resilience.submit(query, shard_work, shard_done, shard_failed)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stage({self.name!r}, {self.kind.value}, "
            f"{len(self._instances)} instances)"
        )
