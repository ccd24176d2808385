"""A service instance: one worker process pinned to one core.

"Each service instance is running on an individual processor core and
maintains its own queue structure to smooth load burst.  In the meanwhile,
each service instance can adjust its processing speed through manipulating
the core frequency." (Section 2.1)

The instance implements the timing side of the service/query joint design.
A waiting job carries its enqueue time and the queue length it found, not
a record: the :class:`StageRecord` is created when service starts,
stamped with both and with the start time and the core's level, and is
appended to the query, finish time stamped, when serving completes.  The
instance also keeps the busy-time accounting that the withdraw
mechanism's 20 %-utilisation rule reads (Section 6.2).

Serving is work-based: a job carries ``work`` seconds of execution at the
slowest ladder frequency; the wall-clock serving time is that work
divided by the instance's current *work rate* — the speedup curve at the
core's frequency, further divided by the machine's contention slowdown
when a :class:`~repro.cluster.contention.ContentionModel` is active.  If
DVFS retunes the core (or machine occupancy shifts the contention)
mid-service, the remaining work is rescaled and the completion event
rescheduled — frequency boosting therefore accelerates the query already
on the core, not just future ones.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from typing import TYPE_CHECKING

from repro.errors import InstanceStateError
from repro.units import exactly
from repro.cluster.core import Core
from repro.service.profile import ServiceProfile

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.cluster.machine import Machine
    from repro.obs.trace import TraceBuffer
from repro.service.query import Query
from repro.service.records import StageRecord
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventPriority

__all__ = ["Job", "InstanceState", "ServiceInstance"]

_COMPLETION = EventPriority.COMPLETION


@dataclass(slots=True)
class Job:
    """One unit of work submitted to an instance.

    ``on_done`` is invoked with the query when serving finishes; the stage
    uses it to route the query onward (or to count scatter-gather shards).
    ``enqueue_time`` is normally stamped by the instance; work stealing and
    withdraw redirection preserve the original stamp so processing-delay
    accounting spans the whole time the query spent waiting.
    ``queue_at_arrival`` is stamped by each instance the job joins.  A
    waiting job carries no ``record``: the instance creates it when the
    job starts.
    """

    query: Query
    work: float
    on_done: Callable[[Query], None]
    enqueue_time: Optional[float] = None
    #: The instance's queue length ``L_i`` when the job joined it.
    queue_at_arrival: int = 0
    record: Optional[StageRecord] = field(default=None, repr=False)
    #: Set when the submitting layer abandoned the job (attempt timed out
    #: or was re-dispatched after a crash); a cancelled job may still sit
    #: in a queue, but serving it produces no record and fires no
    #: ``on_done``.
    cancelled: bool = False
    #: Back-reference for the resilience layer (opaque to the instance).
    attempt: Optional[object] = field(default=None, repr=False)


class InstanceState(enum.Enum):
    """Lifecycle of a service instance."""

    RUNNING = "running"
    DRAINING = "draining"
    CRASHED = "crashed"
    WITHDRAWN = "withdrawn"


#: The only legal lifecycle transitions.  RUNNING instances drain (the
#: withdraw mechanism) or crash (fault injection); DRAINING instances
#: finish the drain or crash mid-drain; CRASHED and WITHDRAWN are
#: terminal.  Every state write funnels through
#: :meth:`ServiceInstance._transition`, which enforces this table — a
#: crash during a drain, for example, must never *also* complete the
#: drain and double-fire ``on_drained``.
_ALLOWED_TRANSITIONS: dict[InstanceState, frozenset[InstanceState]] = {
    InstanceState.RUNNING: frozenset(
        {InstanceState.DRAINING, InstanceState.CRASHED}
    ),
    InstanceState.DRAINING: frozenset(
        {InstanceState.WITHDRAWN, InstanceState.CRASHED}
    ),
    InstanceState.CRASHED: frozenset(),
    InstanceState.WITHDRAWN: frozenset(),
}

# Module constants: reading a member off the enum class is several
# times slower, and ``enqueue`` and ``_complete`` check the state on
# every stage visit.
_RUNNING = InstanceState.RUNNING
_DRAINING = InstanceState.DRAINING


class ServiceInstance:
    """A single-core worker with a private FIFO queue."""

    __slots__ = (
        "iid",
        "name",
        "stage_name",
        "profile",
        "core",
        "sim",
        "_machine",
        "_contended",
        "_tracer",
        "_state",
        "_queue",
        "_qlen",
        "_current",
        "_remaining_work",
        "_segment_start",
        "_segment_rate",
        "_completion",
        "_hung",
        "_degrade_factor",
        "_degraded",
        "_crash_level",
        "_on_drained",
        "_on_state_change",
        "_busy_accumulated",
        "_busy_since",
        "_queries_served",
        "_speedup_by_level",
        "_complete_cb",
    )

    def __init__(
        self,
        iid: int,
        name: str,
        stage_name: str,
        profile: ServiceProfile,
        core: Core,
        sim: Simulator,
        machine: Optional["Machine"] = None,
        tracer: Optional["TraceBuffer"] = None,
    ) -> None:
        self.iid = iid
        self.name = name
        self.stage_name = stage_name
        self.profile = profile
        self.core = core
        self.sim = sim
        self._machine = machine
        # Without a contention model the slowdown is exactly 1.0 and
        # dividing by it is an identity, so the serving path skips it.
        self._contended = machine is not None and not machine._no_contention
        self._tracer = tracer
        self._state = InstanceState.RUNNING
        self._queue: deque[Job] = deque()
        # Maintained realtime queue length L_i (waiting + in service).
        # The dispatcher's argmin scan reads this once per instance per
        # query; every queue/current mutation below keeps it exact.
        self._qlen = 0
        self._current: Optional[Job] = None
        self._remaining_work = 0.0
        self._segment_start = 0.0
        self._segment_rate = 1.0
        self._completion: Optional[Event] = None
        self._hung = False
        self._degrade_factor = 1.0
        self._degraded = False
        self._crash_level: Optional[int] = None
        self._on_drained: Optional[Callable[["ServiceInstance"], None]] = None
        self._on_state_change: Optional[Callable[["ServiceInstance"], None]] = None
        # Speedup is a pure function of the ladder level; memoising per
        # level returns the *same* float the curve would produce, so
        # cached and uncached runs stay byte-identical.
        self._speedup_by_level: dict[int, float] = {}
        self._busy_accumulated = 0.0
        self._busy_since: Optional[float] = None
        self._queries_served = 0
        # Bound once: reading ``self._complete`` makes a new bound method
        # each time, and every served job schedules a completion.
        self._complete_cb = self._complete
        core.add_observer(self._on_frequency_change)
        if machine is not None:
            machine.add_occupancy_listener(self._on_occupancy_change)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> InstanceState:
        return self._state

    @property
    def running(self) -> bool:
        return self._state is _RUNNING

    @property
    def hung(self) -> bool:
        """Whether the instance is hung (accepts work, serves nothing)."""
        return self._hung

    @property
    def degrade_factor(self) -> float:
        """Work-rate multiplier applied by fault injection (1.0 = healthy)."""
        return self._degrade_factor

    @property
    def crash_level(self) -> Optional[int]:
        """Ladder level held at crash time (``None`` before any crash).

        Read this instead of :attr:`level` after a crash: releasing the
        core resets its frequency, so by the time crash listeners run the
        live level no longer says what the victim was worth.
        """
        return self._crash_level

    @property
    def busy(self) -> bool:
        """Whether a job is currently being served."""
        return self._current is not None

    @property
    def waiting_count(self) -> int:
        """Jobs waiting in the queue (excluding the one in service)."""
        return len(self._queue)

    @property
    def queue_length(self) -> int:
        """Realtime queue length ``L_i``: waiting jobs plus the one in service.

        This is the ``L`` of Equation 1 — with a single query on the core
        and nothing waiting, the expected delay for a newcomer is one
        queuing term plus its own serving time.
        """
        return self._qlen

    @property
    def frequency_ghz(self) -> float:
        return self.core.frequency_ghz

    @property
    def level(self) -> int:
        return self.core.level

    @property
    def power_watts(self) -> float:
        return self.core.power_watts

    @property
    def queries_served(self) -> int:
        return self._queries_served

    def busy_seconds(self) -> float:
        """Cumulative time this instance has spent serving queries."""
        total = self._busy_accumulated
        if self._busy_since is not None:
            total += self.sim.now - self._busy_since
        return total

    def current_service_elapsed(self, now: float) -> Optional[float]:
        """How long the job currently in service has been on the core.

        ``None`` when idle.  The health monitor uses this to spot hung
        instances: a job that has been "in service" far longer than any
        plausible serving time means the instance stopped making progress.
        """
        job = self._current
        if job is None or job.record is None or job.record.start_time is None:
            return None
        return now - job.record.start_time

    # ------------------------------------------------------------------
    # Work submission
    # ------------------------------------------------------------------
    def enqueue(self, job: Job) -> None:
        """Accept a job; only RUNNING instances take new work.

        An idle instance starts the job at once; a busy or hung one
        queues it.  A running instance that is neither busy nor hung has
        an empty queue, so the job would be next anyway.
        """
        if self._state is not _RUNNING:
            raise InstanceStateError(
                f"instance {self.name} is {self._state.value}; cannot enqueue"
            )
        if job.work < 0.0:
            raise InstanceStateError(f"job work must be >= 0, got {job.work}")
        if job.enqueue_time is None:
            job.enqueue_time = self.sim._now
        job.queue_at_arrival = self._qlen
        self._qlen += 1
        if self._current is None and not self._hung:
            self._start(job)
        else:
            self._queue.append(job)

    # ------------------------------------------------------------------
    # Boosting support
    # ------------------------------------------------------------------
    def steal_half(self) -> list[Job]:
        """Remove the back half of the waiting queue for a cloned instance.

        Instance boosting offloads "half of the queries queued at the
        bottleneck instance" to the new clone (Section 5.1, Figure 7(a)).
        The in-service job is never stolen.  The jobs keep their original
        enqueue stamps so their eventual records cover the full wait.
        """
        steal_count = len(self._queue) // 2
        stolen = [self._queue.pop() for _ in range(steal_count)]
        self._qlen -= steal_count
        stolen.reverse()
        return stolen

    def take_all_waiting(self) -> list[Job]:
        """Remove every waiting job (withdraw redirects them elsewhere)."""
        taken = list(self._queue)
        self._queue.clear()
        self._qlen -= len(taken)
        return taken

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def _transition(self, target: InstanceState) -> None:
        """Move to ``target``, enforcing the lifecycle transition table."""
        allowed = _ALLOWED_TRANSITIONS[self._state]
        if target not in allowed:
            raise InstanceStateError(
                f"instance {self.name}: illegal transition "
                f"{self._state.value} -> {target.value}"
            )
        self._state = target
        if self._on_state_change is not None:
            self._on_state_change(self)

    def set_state_listener(
        self, listener: Optional[Callable[["ServiceInstance"], None]]
    ) -> None:
        """Register the single lifecycle listener (the owning stage).

        The stage caches its running-instance list and must hear about
        every state flip to invalidate it; a listener slot (rather than a
        list) keeps the per-transition cost at one comparison.
        """
        self._on_state_change = listener

    # ------------------------------------------------------------------
    # Withdraw lifecycle
    # ------------------------------------------------------------------
    def drain(self, on_drained: Callable[["ServiceInstance"], None]) -> None:
        """Stop accepting work and call back once fully idle.

        The withdraw mechanism "assur[es] there is no query waiting or
        running on the underutilized service instance" before the core is
        released (Section 6.2).
        """
        if self._state is not _RUNNING:
            raise InstanceStateError(
                f"instance {self.name} is {self._state.value}; cannot drain"
            )
        self._transition(InstanceState.DRAINING)
        self._on_drained = on_drained
        if self._current is None and not self._queue:
            self._finish_drain()

    def _finish_drain(self) -> None:
        self._transition(InstanceState.WITHDRAWN)
        self.core.remove_observer(self._on_frequency_change)
        if self._machine is not None:
            self._machine.remove_occupancy_listener(self._on_occupancy_change)
        callback = self._on_drained
        self._on_drained = None
        if callback is not None:
            callback(self)

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def crash(self) -> list[Job]:
        """Kill the instance immediately; return every orphaned job.

        The in-flight job (if any) is dropped mid-service and returned
        first, followed by the waiting queue in FIFO order.  Crashing is
        legal from RUNNING or DRAINING; a crash during a drain clears the
        pending ``on_drained`` callback so the drain can never *also*
        complete — the callback fires at most once per instance, ever.
        """
        self._transition(InstanceState.CRASHED)
        self._crash_level = self.core.level
        # A crash mid-drain must not later fire the drain callback.
        self._on_drained = None
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        orphans: list[Job] = []
        if self._current is not None:
            job = self._current
            job.record = None
            orphans.append(job)
            self._current = None
            self._remaining_work = 0.0
        orphans.extend(self._queue)
        self._queue.clear()
        self._qlen = 0
        if self._busy_since is not None:
            self._busy_accumulated += self.sim.now - self._busy_since
            self._busy_since = None
        self._hung = False
        self.core.remove_observer(self._on_frequency_change)
        if self._machine is not None:
            self._machine.remove_occupancy_listener(self._on_occupancy_change)
        return orphans

    def hang(self) -> None:
        """Stop making progress without dying: serve nothing until repaired.

        The in-flight job's consumed work up to now is banked (the segment
        closes); new arrivals queue up behind it.  From the outside the
        instance looks alive — state stays RUNNING, the dispatcher may
        still route to it — which is exactly what makes hangs nastier
        than crashes.
        """
        if self._state is not _RUNNING:
            raise InstanceStateError(
                f"instance {self.name} is {self._state.value}; cannot hang"
            )
        if self._hung:
            return
        self._hung = True
        if self._current is not None:
            elapsed = self.sim.now - self._segment_start
            consumed = elapsed * self._segment_rate
            self._remaining_work = max(0.0, self._remaining_work - consumed)
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None

    def repair(self) -> None:
        """Undo :meth:`hang`: resume serving from the banked progress.

        A draining instance resumes too: a hung instance withdrawn while
        holding a job finishes that job, and then its drain.
        """
        if not self._hung:
            return
        self._hung = False
        if self._state is not _RUNNING and self._state is not _DRAINING:
            return
        if self._current is not None:
            self._start_segment()
        elif self._queue:
            self._start(self._queue.popleft())

    def degrade(self, factor: float) -> None:
        """Apply a work-rate multiplier (``factor < 1`` slows the instance).

        Models a sick-but-alive worker (thermal throttling, a noisy
        co-tenant).  ``degrade(1.0)`` restores full speed.  The job in
        service is rescaled immediately.  A factor that is not a finite
        number > 0 is refused before anything changes.
        """
        if not (math.isfinite(factor) and factor > 0.0):
            raise InstanceStateError(
                f"degrade factor must be a finite number > 0, got {factor}"
            )
        if exactly(factor, self._degrade_factor):
            return
        self._degrade_factor = factor
        self._degraded = not exactly(factor, 1.0)
        if not self._hung:
            self._rescale()

    # ------------------------------------------------------------------
    # Attempt cancellation (resilience layer)
    # ------------------------------------------------------------------
    def remove_waiting(self, job: Job) -> bool:
        """Pull a specific waiting job out of the queue (timeout path).

        Returns ``False`` when the job is not waiting here (already in
        service, already served, or stolen by another instance).
        """
        try:
            self._queue.remove(job)
        except ValueError:
            return False
        self._qlen -= 1
        return True

    def abort_current(self, job: Job) -> bool:
        """Abandon ``job`` if it is the one in service; free the core.

        Used when an attempt times out mid-service: the work already
        consumed is wasted, the instance moves on to the next waiting
        job.  Returns ``False`` when ``job`` is not in service here.
        """
        if self._current is not job:
            return False
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        self._current = None
        self._qlen -= 1
        self._remaining_work = 0.0
        job.record = None
        if self._queue and not self._hung:
            self._start(self._queue.popleft())
        elif self._busy_since is not None:
            self._busy_accumulated += self.sim.now - self._busy_since
            self._busy_since = None
        if (
            self._state is _DRAINING
            and self._current is None
            and not self._queue
        ):
            self._finish_drain()
        return True

    # ------------------------------------------------------------------
    # Serving internals
    # ------------------------------------------------------------------
    def _start_segment(self) -> None:
        """Open a constant-rate serving segment for the current job.

        The work rate is the speedup at the core's level, divided by the
        machine's contention slowdown when a contention model is active
        (without one the divisor is exactly 1.0, so it is skipped), then
        scaled by any fault degradation.
        """
        sim = self.sim
        self._segment_start = sim._now
        level = self.core._level
        try:
            rate = self._speedup_by_level[level]
        except KeyError:
            rate = self._speedup_by_level[level] = self.profile.speedup.speedup(
                self.core.frequency_ghz
            )
        if self._contended:
            rate /= self._machine.contention_slowdown()
        if self._degraded:
            rate *= self._degrade_factor
        self._segment_rate = rate
        self._completion = sim.schedule(
            self._remaining_work / rate, self._complete_cb, priority=_COMPLETION
        )

    def _start(self, job: Job) -> None:
        """Put ``job`` on the core: create its record, stamped with its
        enqueue, its start and the core's level, and open its first
        serving segment.  The only place a job starts."""
        self._current = job
        self._remaining_work = job.work
        now = self.sim._now
        enqueue_time = job.enqueue_time
        assert enqueue_time is not None
        # Positional: instance_id, instance_name, stage_name, enqueue_time,
        # start_time, finish_time, queue_at_arrival, service_level.
        job.record = StageRecord(
            self.iid,
            self.name,
            self.stage_name,
            enqueue_time,
            now,
            None,
            job.queue_at_arrival,
            self.core._level,
        )
        if self._busy_since is None:
            self._busy_since = now
        self._start_segment()

    def _complete(self) -> None:
        job = self._current
        assert job is not None
        now = self.sim._now
        if not job.cancelled:
            record = job.record
            assert record is not None
            record.finish_time = now
            job.query.records.append(record)
            if self._tracer is not None:
                self._tracer.emit_record(job.query.qid, job.work, record)
            self._queries_served += 1
        self._current = None
        self._qlen -= 1
        self._completion = None
        self._remaining_work = 0.0
        if self._queue:
            self._start(self._queue.popleft())
        elif self._busy_since is not None:
            self._busy_accumulated += now - self._busy_since
            self._busy_since = None
        if not job.cancelled:
            job.on_done(job.query)
        if (
            self._state is _DRAINING
            and self._current is None
            and not self._queue
        ):
            self._finish_drain()

    def _rescale(self) -> None:
        """Close the current serving segment and reopen at the new rate.

        Called when anything that determines the work rate changes —
        a DVFS retune of this core, or (under a contention model) any
        occupancy change on the machine.
        """
        if self._current is None or self._hung:
            return
        elapsed = self.sim.now - self._segment_start
        consumed = elapsed * self._segment_rate
        self._remaining_work = max(0.0, self._remaining_work - consumed)
        if self._completion is not None:
            self._completion.cancel()
        self._start_segment()

    def _on_frequency_change(self, core: Core, old_level: int, new_level: int) -> None:
        self._rescale()

    def _on_occupancy_change(self, active_cores: int) -> None:
        self._rescale()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceInstance({self.name!r}, {self._state.value}, "
            f"{self.frequency_ghz:.1f} GHz, L={self.queue_length})"
        )
