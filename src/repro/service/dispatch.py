"""Dispatch: which instance in a stage receives the next query.

The paper load-balances queries across the service instances of a stage
(Figure 3) without prescribing a policy; join-the-shortest-queue is used
here because it is what a Thrift-style connection pool with backpressure
approximates.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import StageError
from repro.service.instance import ServiceInstance

__all__ = ["shortest_queue"]


def shortest_queue(instances: Sequence[ServiceInstance]) -> ServiceInstance:
    """The instance with the shortest queue; ties go to the smaller iid."""
    if not instances:
        raise StageError("cannot dispatch: stage has no running instances")
    # Manual argmin over (queue_length, iid).  This runs once per query
    # per stage; reading the queue fields directly instead of building a
    # key tuple through the queue_length property keeps the whole scan
    # in one bytecode loop.  Tie-break: strictly smaller iid wins,
    # matching min()'s first-of-equals (the first instance compares
    # equal to itself and is kept).
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
