"""Event objects for the discrete-event simulation engine.

An :class:`Event` couples a firing time with a callback.  Events are
orderable by ``(time, priority, seq)`` which gives the engine a stable,
deterministic ordering even when many events share a timestamp: ties are
broken first by explicit priority and then by scheduling order.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Protocol

__all__ = ["Event", "EventPriority"]


class _EventOwner(Protocol):
    """What an :class:`Event` needs from the simulator that queued it."""

    def _note_cancelled(self, event: "Event") -> None: ...


class EventPriority(enum.IntEnum):
    """Tie-break priority for events that fire at the same instant.

    Lower values fire first.  The defaults are arranged so that work
    completions are observed before new arrivals, and controller ticks run
    last within a timestamp — mirroring a real system where the runtime
    samples state that the data path has already updated.
    """

    COMPLETION = 0
    ARRIVAL = 1
    NORMAL = 2
    CONTROL = 3


class Event:
    """A scheduled callback in simulated time.

    Events are created by :meth:`repro.sim.engine.Simulator.schedule`; user
    code normally only keeps them around to :meth:`cancel` them.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "action",
        "args",
        "_cancelled",
        "_fired",
        "_owner",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        action: Callable[..., Any],
        args: tuple[Any, ...] = (),
        owner: Optional["_EventOwner"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.args = args
        self._cancelled = False
        self._fired = False
        # The simulator whose queue holds this event, if any.  Cancelling
        # notifies it exactly once so it can keep its pending/cancelled
        # counters live instead of scanning the heap.
        self._owner = owner

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event's callback has already run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling is idempotent; cancelling an event that already fired is
        a no-op as well (the work cannot be undone), which keeps callers
        that race against completions simple.
        """
        if self._cancelled or self._fired:
            return
        # Flagged first: the owner may compact its heap in this call, and
        # the compaction must drop this entry along with the others.
        self._cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled(self)

    def _mark_fired(self) -> None:
        self._fired = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        name = getattr(self.action, "__name__", repr(self.action))
        return f"Event(t={self.time:.6f}, prio={self.priority}, {name}, {state})"
