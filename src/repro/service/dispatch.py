"""Dispatch: which instance in a stage receives the next query.

The paper load-balances queries across the service instances of a stage
(Figure 3) without prescribing a policy; join-the-shortest-queue is used
here because it is what a Thrift-style connection pool with backpressure
approximates.

Every pool a :class:`~repro.service.stage.Stage` hands out is in launch
order, which is ascending iid order: instances are only ever appended,
with ids drawn from one increasing counter, and removing one keeps the
order of the rest.  :func:`shortest_queue` relies on that order.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import StageError
from repro.service.instance import ServiceInstance

__all__ = ["shortest_queue"]


def shortest_queue(instances: Sequence[ServiceInstance]) -> ServiceInstance:
    """The instance with the shortest queue; ties go to the smaller iid.

    ``instances`` must be in ascending iid order.  Then the first
    instance with the least queue length is the one with the smaller
    iid, and the first empty queue ends the scan: no queue is shorter.
    """
    if not instances:
        raise StageError("cannot dispatch: stage has no running instances")
    # Manual argmin, reading the maintained queue length directly: this
    # runs once per query per stage.
    best = instances[0]
    best_len = best._qlen
    for inst in instances:
        length = inst._qlen
        if not length:
            return inst
        if length < best_len:
            best = inst
            best_len = length
    return best
