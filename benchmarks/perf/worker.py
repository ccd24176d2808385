"""One repeat of one in-process workload, run in a fresh interpreter.

Usage: ``python worker.py WORKLOAD SEED SCALE MODE`` with ``src`` on
``PYTHONPATH``, where ``MODE`` is ``run`` or ``traced``.  Prints one
JSON object: monotonic timestamps (the clock is shared with the parent
process, which timed the spawn), phase spans, the timed segments' host
time and their time at the reference speed (see ``hostspeed``), the
output digest and event counts and, when traced, the per-layer event
counts and cProfile split.  The digest is taken after the clock stops.

For ``reprod-turbo`` the worker hosts the same spec in a
:class:`~repro.serve.HostedRun` ticked in 10 s quanta, the loop the
daemon runs in ``--turbo``; the parent drives the daemon itself.
"""

from __future__ import annotations

import time

T0 = time.monotonic()  # before anything imports repro

import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402
from typing import Any, Optional  # noqa: E402

import repro  # noqa: E402
from repro.scenario.builder import StackBuilder  # noqa: E402
from repro.serve import HostedRun  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from layers import EventCounter, profile_layers  # noqa: E402

#: Simulated seconds per tick: the daemon's default ``--quantum``.
QUANTUM_S = 10.0
#: Simulated seconds per tick of a single batch run.
TICK_S = 5.0
#: Host seconds a timed segment runs before the host speed is measured
#: again (a measurement takes about 3 ms).
SEGMENT_S = 0.05


class _Recorder:
    """Spans, counters, timed segments and (when traced) the event hook
    and profiler."""

    def __init__(self, traced: bool) -> None:
        self.spans: list[tuple[str, float, float]] = [("import", T0, time.monotonic())]
        self.counter: Optional[EventCounter] = EventCounter() if traced else None
        self.profiler: Optional[cProfile.Profile] = cProfile.Profile() if traced else None
        self.started: Optional[float] = None
        #: Host seconds of the closed segments, and the same scaled to
        #: the reference speed (see ``hostspeed``).
        self.host_s = 0.0
        self.ref_s = 0.0
        #: Host seconds timed since the last speed measurement.
        self.open_s = 0.0
        #: The latest host speed measured.
        self.last_speed: Optional[float] = None
        self.events = 0
        self.compactions = 0
        self.actions = 0

    def span(self, name: str, start: float) -> float:
        end = time.monotonic()
        self.spans.append((name, start, end))
        return end

    def lap(self, start: float) -> float:
        """Time the work done since ``start``, closing the segment once it
        reaches ``SEGMENT_S``; when timing resumes."""
        now = time.monotonic()
        self.open_s += now - start
        if self.open_s < SEGMENT_S:
            return now
        self.close_segment()
        return time.monotonic()

    def close_segment(self) -> None:
        """Measure the host speed and scale the open segment by the mean
        of the speeds measured before and after it.

        A traced run measures no speed: pausing the profiler around the
        passes would make its call counts depend on timing.
        """
        self.host_s += self.open_s
        if self.profiler is None:
            speed = hostspeed.speed()
            before = speed if self.last_speed is None else self.last_speed
            self.ref_s += self.open_s * (before + speed) / 2.0
            self.last_speed = speed
        self.open_s = 0.0

    def watch(self, sim: Any) -> None:
        if self.counter is not None:
            sim.add_event_hook(self.counter)

    def tally(self, sim: Any, actions: int) -> None:
        self.events += sim.events_processed
        self.compactions += sim.compactions
        self.actions += actions


def _check(result: Any, label: str) -> None:
    if not 0 < result.queries_completed <= result.queries_submitted:
        raise RuntimeError(
            f"{label}: {result.queries_completed} of {result.queries_submitted} "
            f"queries completed"
        )


def run_batch(specs: list, rec: _Recorder) -> list[dict[str, Any]]:
    """Walk each spec's lifecycle phase by phase; the results, in order.

    A single run is timed from its start, ticked ``TICK_S`` simulated
    seconds at a time (ticking replays the batch path's events exactly);
    a campaign is timed cell by cell, each from its build to its
    collection.  The host speed is measured when a single run starts and
    whenever the work timed since the last measurement reaches
    ``SEGMENT_S``.
    """
    results = []
    for spec in specs:
        t = cell_start = time.monotonic()
        builder = StackBuilder(spec)
        builder.build()
        t = rec.span("build", t)
        rec.watch(builder.sim)
        builder.arm()
        t = rec.span("arm", t)
        builder.start()
        t = rec.span("start", t)
        if rec.started is None:
            rec.started = t
        if len(specs) == 1:
            rec.close_segment()
            t = loop_start = time.monotonic()
            until = 0.0
            while not builder.finished:
                until = min(until + TICK_S, builder.end_s)
                builder.tick(until)
                t = rec.lap(t)
            rec.spans.append(("tick loop", loop_start, t))
            cell_start = t
        else:
            builder.run()
            t = rec.span("run", t)
            builder.drain()
            t = rec.span("drain", t)
        result = builder.collect()
        rec.span("collect", t)
        rec.lap(cell_start)
        _check(result, spec.label)
        rec.tally(builder.sim, len(result.actions))
        results.append(result)
    rec.close_segment()
    return results


def batch_digest(results: list) -> str:
    """One result's digest, or for a campaign the digest of its cells'."""
    digests = [workloads.canonical_digest(dataclasses.asdict(r)) for r in results]
    return digests[0] if len(digests) == 1 else workloads.canonical_digest(digests)


def run_hosted(spec: Any, rec: _Recorder) -> dict[str, Any]:
    """Tick a hosted run in daemon-sized quanta, timed as a whole; its
    result payload."""
    t = time.monotonic()
    run = HostedRun("bench", spec)
    t = rec.started = rec.span("build", t)
    rec.watch(run.builder.sim)
    end = run.end_s
    while run.sim_now + QUANTUM_S < end:
        run.advance_by(QUANTUM_S)
    # Stop a hair short of the end so the last call times collection
    # alone; any deadline sequence replays the same events.
    run.advance_to(math.nextafter(end, 0.0))
    t = rec.span("tick loop", t)
    run.advance_to(end)
    rec.open_s = rec.span("collect", t) - rec.started
    rec.close_segment()
    if run.result_payload is None:
        raise RuntimeError(f"hosted run did not collect: {run.error}")
    rec.tally(run.builder.sim, len(run.result_payload["result"]["actions"]))
    return run.result_payload


def main(argv: list[str]) -> dict[str, Any]:
    workload, seed, scale, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    rec = _Recorder(mode == "traced")
    specs = workloads.batch_specs(workload, seed, scale)
    if rec.profiler is not None:
        rec.profiler.enable()
    if workload == "reprod-turbo":
        output: Any = run_hosted(specs[0], rec)
    else:
        output = run_batch(specs, rec)
    if rec.profiler is not None:
        rec.profiler.disable()
    if workload == "reprod-turbo":
        digest = workloads.canonical_digest(output)
    else:
        digest = batch_digest(output)
    out: dict[str, Any] = {
        "spans": rec.spans,
        "started": rec.started,
        "wall_s": rec.host_s,
        "ref_wall_s": None if rec.profiler is not None else rec.ref_s,
        "digest": digest,
        "spec_digest": specs[0].digest(),
        "events": rec.events,
        "compactions": rec.compactions,
        "actions": rec.actions,
        "ops": len(specs),
    }
    if rec.profiler is not None and rec.counter is not None:
        self_s, calls_in, total = profile_layers(
            pstats.Stats(rec.profiler).stats,  # type: ignore[attr-defined]
            os.path.dirname(repro.__file__) + os.sep,
            os.path.dirname(os.path.abspath(__file__)) + os.sep,
        )
        out.update(
            counts=rec.counter.metrics(),
            hook_events=sum(rec.counter.by_layer.values()),
            self_s=self_s,
            calls_in=calls_in,
            profile_total_s=total,
        )
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
