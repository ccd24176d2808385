"""How fast the host runs right now, from a short fixed calibration pass.

The measuring host's speed swings by up to twofold, in spells that last
from seconds to minutes.  Process CPU time swings with wall time, so it
is execution speed that changes, not scheduling.  The benchmark times
a fixed pure-Python calibration pass (heap pushes and pops, attribute
and dict access, bound-method calls: the simulator's event loop in
small) just before each timed segment, and scales the segment's host
time by the pass's speed.  The result is the segment's time at the reference
speed, a quantity a code change moves and a spell does not.
"""

from __future__ import annotations

import gc
import heapq
import time

#: How long one pass takes at the reference speed: roughly the fastest a
#: 2-vCPU x86_64 VM with Python 3.11 runs it.  Any fixed value works; it
#: sets only the scale of the reported times.
REFERENCE_S = 0.0010
PASS_EVENTS = 800


class _Event:
    __slots__ = ("time", "key", "action")

    def __init__(self, time: float, key: int, action: object) -> None:
        self.time = time
        self.key = key
        self.action = action

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def _calibration_pass() -> None:
    heap: list[_Event] = []
    totals: dict[int, float] = {}
    x = 0.5
    for i in range(PASS_EVENTS):
        x = 3.9 * x * (1.0 - x)
        heapq.heappush(heap, _Event(x * 100.0 + i, i % 37, totals.get))
        totals[i % 37] = totals.get(i % 37, 0.0) + x
    while heap:
        event = heapq.heappop(heap)
        event.action(event.key)  # type: ignore[operator]


def speed() -> float:
    """The host's speed now relative to the reference: 1.0 at reference
    speed, 0.5 at half of it.

    The median of three passes, so an interrupt that lands in one does
    not count; the garbage collector is paused, so the program's heap
    does not slow them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _calibration_pass()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_S / sorted(times)[1]
