"""Streaming observability: incremental JSONL snapshots during a run.

Every other exporter in :mod:`repro.obs` is a post-mortem dump; the
ROADMAP's live ``reprod`` daemon needs state it can tail *while* the
simulation runs.  :class:`StreamExporter` rides the Simulator's event
hooks: before each fired event it checks whether the configured
simulated-time cadence has elapsed and, if so, writes one JSON line
assembled from its registered probes.  Hooks must not schedule or
cancel events, and the exporter never does — which is exactly why a
streamed run's event sequence (and therefore its results) stays
byte-identical to an unstreamed one.

Probes are plain callables registered by name; the builder wires the
standard set (query counts, power draw, per-stage queue depths, SLO
state).  Producers can also :meth:`mark` out-of-band moments — the
fault injector stamps every fault it fires — so the stream doubles as
an annotated timeline for ``repro explain``.

With ``path=None`` the exporter buffers lines in memory (``lines``),
which is what spec-driven runs without a ``stream_path`` option and the
test suite use.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Callable, Optional, Union

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.events import Event

__all__ = ["StreamExporter", "check_stream_interval"]


def check_stream_interval(stream_interval_s: float) -> None:
    if stream_interval_s <= 0.0:
        raise ConfigurationError(
            f"stream interval must be > 0, got {stream_interval_s}"
        )


class StreamExporter:
    """Emits periodic JSONL snapshots off the simulator's event hook."""

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        interval_s: float = 5.0,
    ) -> None:
        check_stream_interval(interval_s)
        self.path = None if path is None else Path(path)
        self.interval_s = float(interval_s)
        self.snapshots_written = 0
        self.marks_written = 0
        #: In-memory copy of every line (the only copy when ``path=None``).
        self.lines: list[str] = []
        self._probes: list[tuple[str, Callable[[], Any]]] = []
        self._sim: Optional[Simulator] = None
        self._file: Optional[IO[str]] = None
        self._next_due = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    def add_probe(self, name: str, probe: Callable[[], Any]) -> None:
        """Register a named probe; its value lands in every snapshot."""
        if any(existing == name for existing, _ in self._probes):
            raise ConfigurationError(f"duplicate stream probe {name!r}")
        self._probes.append((name, probe))

    def attach(self, sim: Simulator) -> None:
        """Open the sink and start watching the event stream."""
        if self._sim is not None:
            raise ConfigurationError(
                "stream exporter is already attached to a simulator"
            )
        if self._closed:
            raise ConfigurationError("stream exporter is already closed")
        self._sim = sim
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w")
        self._next_due = sim.now
        sim.add_event_hook(self._on_event)

    def _on_event(self, _event: Event) -> None:
        assert self._sim is not None
        now = self._sim.now
        if now < self._next_due:
            return
        self._snapshot(now)
        # Catch up past any quiet gap so cadence stays anchored to the
        # grid rather than drifting with event activity.
        while self._next_due <= now:
            self._next_due += self.interval_s

    def _snapshot(self, now: float) -> None:
        payload: dict[str, Any] = {"t": now, "seq": self.snapshots_written}
        for name, probe in self._probes:
            payload[name] = probe()
        self._write(payload)
        self.snapshots_written += 1

    def mark(self, label: str, **fields: Any) -> None:
        """Write one out-of-band marker line (faults, phase changes)."""
        if self._sim is None or self._closed:
            return
        payload: dict[str, Any] = {
            "t": self._sim.now,
            "mark": label,
            **fields,
        }
        self._write(payload)
        self.marks_written += 1

    def _write(self, payload: dict[str, Any]) -> None:
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        self.lines.append(line)
        if self._file is not None:
            self._file.write(line + "\n")

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._sim is not None

    def close(self) -> None:
        """Final snapshot, detach from the simulator, close the sink."""
        if self._closed:
            return
        self._closed = True
        if self._sim is not None:
            self._snapshot(self._sim.now)
            self._sim.remove_event_hook(self._on_event)
            self._sim = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sink = str(self.path) if self.path is not None else "<memory>"
        return (
            f"StreamExporter({sink}, every {self.interval_s}s, "
            f"{self.snapshots_written} snapshots)"
        )
