"""The discrete-event simulation engine.

The :class:`Simulator` is the heartbeat of the whole reproduction: the CMP
power substrate, the multi-stage service pipeline, the load generators and
the PowerChief controllers all advance by scheduling callbacks on a single
shared simulator.  Time is a ``float`` in seconds.

The engine is intentionally minimal and deterministic:

* events fire in ``(time, priority, seq)`` order (see
  :class:`repro.sim.events.EventPriority`),
* cancelled events are lazily skipped when popped, and the heap is
  compacted outright once cancelled stragglers outnumber live entries,
* exceptions raised by callbacks abort the run — silent failure would make
  experiment results meaningless.

The heap stores ``(time, priority, seq, event)`` tuples rather than bare
events so ordering compares native floats and ints without entering
``Event.__lt__``, and the engine keeps live pending/cancelled counters
(events report their own cancellation) so :attr:`pending_count` and
:meth:`empty` never scan the queue.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Event, EventPriority

__all__ = ["Simulator"]

#: Compact the heap once cancelled entries both exceed this floor and
#: outnumber the live entries; the floor keeps tiny queues from thrashing.
_COMPACT_MIN_CANCELLED = 32

_HeapEntry = tuple[float, int, int, Event]

_INF = float("inf")


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self, start_time: float = 0.0) -> None:
        if not 0.0 <= start_time < _INF:
            raise SimulationError(
                f"start_time must be a finite number >= 0, got {start_time}"
            )
        self._now = float(start_time)
        self._queue: list[_HeapEntry] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._pending = 0
        self._cancelled_in_queue = 0
        self._compactions = 0
        self._running = False
        self._event_hooks: list[Callable[[Event], None]] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events whose callbacks have run."""
        return self._events_processed

    @property
    def pending_count(self) -> int:
        """Number of events still scheduled and not cancelled."""
        return self._pending

    @property
    def heap_size(self) -> int:
        """Physical heap length, counting cancelled stragglers."""
        return len(self._queue)

    @property
    def compactions(self) -> int:
        """How many times the heap shed its cancelled entries wholesale."""
        return self._compactions

    def empty(self) -> bool:
        """Whether no pending (non-cancelled) events remain."""
        return self._pending == 0

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue and queue[0][3]._cancelled:
            heappop(queue)
            self._cancelled_in_queue -= 1
        if not queue:
            return None
        return queue[0][0]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
    ) -> Event:
        """Schedule ``action(*args)`` to run ``delay`` seconds from now.

        The body repeats :meth:`schedule_at`'s push rather than calling
        it: this is the per-hop scheduling call, and a finite
        ``delay >= 0`` already guarantees ``time >= now``.
        """
        if not 0.0 <= delay < _INF:
            raise SchedulingError(
                f"cannot schedule {delay} s ahead; the delay must be finite and >= 0"
            )
        if not callable(action):
            raise SchedulingError(f"event action must be callable, got {action!r}")
        time = self._now + delay
        priority = int(priority)
        seq = next(self._seq)
        event = Event(time, priority, seq, action, args, self)
        heappush(self._queue, (time, priority, seq, event))
        self._pending += 1
        return event

    def schedule_at(
        self,
        time: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
    ) -> Event:
        """Schedule ``action(*args)`` to run at absolute simulated ``time``."""
        if not self._now <= time < _INF:
            raise SchedulingError(
                f"cannot schedule at t={time}; the time must be finite "
                f"and >= now (t={self._now})"
            )
        if not callable(action):
            raise SchedulingError(f"event action must be callable, got {action!r}")
        priority = int(priority)
        seq = next(self._seq)
        event = Event(time, priority, seq, action, args, self)
        heappush(self._queue, (time, priority, seq, event))
        self._pending += 1
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        queue = self._queue
        while queue:
            time, _priority, _seq, event = heappop(queue)
            if event._cancelled:
                self._cancelled_in_queue -= 1
                continue
            self._pending -= 1
            self._now = time
            event._fired = True
            self._events_processed += 1
            if self._event_hooks:
                for hook in self._event_hooks:
                    hook(event)
            event.action(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or the budget hits.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            the clock is advanced to ``until`` so periodic processes can be
            resumed seamlessly by a later ``run`` call.
        max_events:
            Safety valve for tests; raises :class:`SimulationError` when
            exceeded, which usually indicates a runaway event loop.
        """
        self._advance(until, max_events)

    def run_until(self, until: float, max_events: Optional[int] = None) -> int:
        """Advance the clock to exactly ``until``, firing every due event.

        The stepper contract for external drivers (the :class:`StackBuilder`
        tick loop, the ``reprod`` daemon): events at ``t <= until`` fire in
        order, then the clock lands exactly on ``until`` — never short,
        never past — so a run split across any sequence of deadlines
        replays the same event sequence as one uninterrupted
        :meth:`run`.  ``until == now`` is a legal no-op; ``until < now``
        raises.  Returns the number of events fired this call.
        """
        if until is None:  # explicit: the stepper always has a deadline
            raise SimulationError("run_until() needs a deadline")
        return self._advance(until, max_events)

    def _advance(
        self, until: Optional[float], max_events: Optional[int]
    ) -> int:
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until}; simulator is already at t={self._now}"
            )
        self._running = True
        processed = 0
        # Bound per-event overhead: one heappop plus a handful of attribute
        # stores between callbacks.  ``self._queue`` is never rebound (the
        # compactor rewrites it in place), so the local alias stays valid.
        queue = self._queue
        hooks = self._event_hooks
        try:
            while queue:
                head = queue[0]
                event = head[3]
                if event._cancelled:
                    heappop(queue)
                    self._cancelled_in_queue -= 1
                    continue
                time = head[0]
                if until is not None and time > until:
                    break
                heappop(queue)
                self._pending -= 1
                self._now = time
                event._fired = True
                self._events_processed += 1
                if hooks:
                    for hook in hooks:
                        hook(event)
                event.action(*event.args)
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return processed

    # ------------------------------------------------------------------
    # Observability hooks
    # ------------------------------------------------------------------
    def add_event_hook(self, hook: Callable[[Event], None]) -> None:
        """Invoke ``hook(event)`` just before each fired event's callback.

        The engine's hot loop pays one truthiness check when no hook is
        registered; observability (event counters by priority class,
        progress heartbeats) attaches here rather than wrapping every
        callback.  Hooks must not schedule or cancel events.
        """
        self._event_hooks.append(hook)

    def remove_event_hook(self, hook: Callable[[Event], None]) -> None:
        self._event_hooks.remove(hook)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _note_cancelled(self, event: Event) -> None:
        """A queued event was cancelled; keep counters live, maybe compact.

        Called (once per event) from :meth:`Event.cancel`.  Compaction
        rewrites ``self._queue`` in place so aliases held by a running
        :meth:`run` loop stay valid.
        """
        self._pending -= 1
        self._cancelled_in_queue += 1
        queue = self._queue
        if (
            self._cancelled_in_queue >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_queue * 2 > len(queue)
        ):
            queue[:] = [entry for entry in queue if not entry[3]._cancelled]
            heapify(queue)
            self._cancelled_in_queue = 0
            self._compactions += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={self.pending_count})"
