"""Dispatch policies: which instance in a stage receives the next query.

The paper load-balances queries across the service instances of a stage
(Figure 3) without prescribing a policy; shortest-queue is the default
here because it is what a Thrift-style connection pool with backpressure
approximates.  Round-robin and random are provided for ablations and
tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import StageError
from repro.service.instance import ServiceInstance
from repro.sim.rng import SeededStream

__all__ = [
    "Dispatcher",
    "ShortestQueueDispatcher",
    "RoundRobinDispatcher",
    "RandomDispatcher",
]

_EMPTY_POOL = "cannot dispatch: stage has no running instances"


class Dispatcher(ABC):
    """Chooses one instance out of a stage's running pool."""

    @abstractmethod
    def select(self, instances: Sequence[ServiceInstance]) -> ServiceInstance:
        """Pick the instance for the next query; ``instances`` is non-empty."""


class ShortestQueueDispatcher(Dispatcher):
    """Join-the-shortest-queue; ties go to the earlier instance."""

    def select(self, instances: Sequence[ServiceInstance]) -> ServiceInstance:
        if not instances:
            raise StageError(_EMPTY_POOL)
        # Manual argmin over (queue_length, iid).  This runs once per
        # query per stage; reading the queue fields directly instead of
        # building a key tuple through the queue_length property keeps
        # the whole scan in one bytecode loop.  Tie-break: strictly
        # smaller iid wins, matching min()'s first-of-equals (the first
        # instance compares equal to itself and is kept).
        best = instances[0]
        best_len = best._qlen
        best_iid = best.iid
        for inst in instances:
            length = inst._qlen
            if length < best_len or (length == best_len and inst.iid < best_iid):
                best = inst
                best_len = length
                best_iid = inst.iid
        return best


class RoundRobinDispatcher(Dispatcher):
    """Cycle through instances in order, skipping none.

    The cursor is kept in ``[0, len(instances))`` at every call rather
    than growing unbounded: an ever-increasing counter taken modulo the
    pool size silently re-skews the rotation whenever the pool shrinks
    (withdraw or crash), because the old count is reinterpreted against
    the new length.  Clamping resets the rotation to the head of the
    surviving pool — deterministic, and identical to the unbounded
    counter whenever the pool size is stable.
    """

    def __init__(self) -> None:
        self._next = 0

    def select(self, instances: Sequence[ServiceInstance]) -> ServiceInstance:
        if not instances:
            raise StageError(_EMPTY_POOL)
        if self._next >= len(instances):
            self._next = 0
        choice = instances[self._next]
        self._next = (self._next + 1) % len(instances)
        return choice


class RandomDispatcher(Dispatcher):
    """Uniform random choice from a dedicated stream (for ablations)."""

    def __init__(self, rng: SeededStream) -> None:
        self._rng = rng

    def select(self, instances: Sequence[ServiceInstance]) -> ServiceInstance:
        if not instances:
            raise StageError(_EMPTY_POOL)
        return instances[self._rng.randrange(len(instances))]
