"""``reprod``: the long-running control-plane daemon.

A single-threaded selector loop owns everything: the listening
socket(s), the per-connection read buffers, the hosted runs and the
pacing state.  No locks, no worker threads — commands are serviced
between simulation advances, so every mutation (a live budget change, a
pause) lands at a quiescent point and the run stays deterministic for
the event sequence it actually executed.

Pacing is the one place wall clock is allowed (the ``wall-clock``
determinism rule keeps the sim core pure): each loop iteration converts
elapsed real time into a simulated-time deadline per run (``rate``
sim-seconds per real second) and ticks the run there, blocking up to
``poll_interval_s`` in ``select`` between iterations.  ``turbo`` ignores the wall clock and
advances a fixed simulated quantum per iteration instead, without
sleeping in ``select`` while any run can advance: it goes as fast as
the host allows (one core busy) and drains the command socket between
chunks, so a command waits at most one quantum's compute.  Only an idle
loop (every run paused or done) blocks for ``poll_interval_s``.
"""

from __future__ import annotations

import math
import os
import selectors
import socket
import time
from typing import Any, Optional

from repro.errors import ProtocolError, ReproError, ServeError
from repro.scenario.spec import ScenarioSpec
from repro.serve.hosted import HostedRun
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    Request,
    decode_request,
    encode_event,
    encode_response,
)

__all__ = ["ReproDaemon"]

#: Unsent reply bytes a connection may pile up (a client that stops
#: reading) before the daemon drops it.
_MAX_OUTBOX_BYTES = 64 * 1024 * 1024


class _Connection:
    """One accepted client: its socket, buffers and subscriptions."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""
        #: Reply bytes the socket has not taken yet; the loop watches the
        #: socket for writability only while this is non-empty.
        self.outbox = bytearray()
        #: The selector events the socket is registered for.
        self.events = selectors.EVENT_READ
        #: run name -> stream cursor (index into the run's stream lines).
        self.watching: dict[str, int] = {}
        #: runs whose "finished" event this connection already received.
        self.announced: set[str] = set()
        self.closed = False

    def send_line(self, line: str) -> None:
        """Queue one line and write as much as the socket takes now."""
        if self.closed:
            return
        self.outbox += line.encode("utf-8") + b"\n"
        self.flush()
        if len(self.outbox) > _MAX_OUTBOX_BYTES:
            self.closed = True

    def flush(self) -> None:
        """Write queued bytes until the socket would block."""
        while self.outbox and not self.closed:
            try:
                sent = self.sock.send(self.outbox)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.closed = True
                return
            del self.outbox[:sent]


class ReproDaemon:
    """Hosts armed stacks behind a line-delimited JSON control socket."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        rate: float = 1.0,
        turbo: bool = False,
        quantum_s: float = 0.25,
        poll_interval_s: float = 0.05,
    ) -> None:
        if socket_path is None and host is None:
            raise ServeError("the daemon needs a unix socket path or a TCP host")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.rate = _positive(rate, "rate", "sim-seconds/second")
        self.turbo = bool(turbo)
        self.quantum_s = _positive(quantum_s, "turbo quantum", "s")
        self.poll_interval_s = _positive(poll_interval_s, "poll interval", "s")
        self.runs: dict[str, HostedRun] = {}
        self._targets: dict[str, float] = {}
        self._serial = 0
        self._running = False
        self._selector: Optional[selectors.BaseSelector] = None
        self._listeners: list[socket.socket] = []
        self._connections: list[_Connection] = []

    # ------------------------------------------------------------------
    # Run management (callable before the loop starts: --spec bootstrap)
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: ScenarioSpec,
        name: Optional[str] = None,
        *,
        paused: bool = False,
    ) -> HostedRun:
        if name is None:
            name = f"run{self._serial}"
            self._serial += 1
        if name in self.runs:
            raise ServeError(f"a run named {name!r} is already hosted")
        run = HostedRun(name, spec)
        run.paused = bool(paused)
        self.runs[name] = run
        self._targets[name] = 0.0
        return run

    def _run(self, name: Any) -> HostedRun:
        if not isinstance(name, str):
            raise ProtocolError(f"run name must be a string, got {name!r}")
        try:
            return self.runs[name]
        except KeyError:
            known = ", ".join(sorted(self.runs)) or "none"
            raise ServeError(
                f"no hosted run named {name!r} (hosted: {known})"
            ) from None

    # ------------------------------------------------------------------
    # The serve loop
    # ------------------------------------------------------------------
    def bind(self) -> None:
        """Open every listener: the unix socket, then the TCP port.

        :meth:`serve_forever` binds first unless this already did, so a
        caller that announces the daemon binds, announces, then serves.
        A refused address closes every listener, removes the socket file
        and raises.
        """
        if self._selector is not None:
            raise ServeError("the daemon is already bound")
        self._selector = selectors.DefaultSelector()
        try:
            self._bind()
        except BaseException:
            self._close_all()
            raise

    def serve_forever(self) -> None:
        """Bind unless :meth:`bind` already did, then loop until
        :meth:`shutdown` (or a ``shutdown`` command) flips the flag.
        Safe to call exactly once."""
        if self._running:
            raise ServeError("the daemon is already serving")
        if self._selector is None:
            self.bind()
        try:
            self._running = True
            last = time.monotonic()
            while self._running:
                events = self._selector.select(timeout=self._select_timeout())
                for key, mask in events:
                    if key.data is None:
                        self._accept(key.fileobj)
                        continue
                    if mask & selectors.EVENT_WRITE:
                        key.data.flush()
                    if mask & selectors.EVENT_READ:
                        self._read(key.data)
                now = time.monotonic()
                self._advance_runs(now - last)
                last = now
                self._pump_streams()
        finally:
            self._close_all()

    def shutdown(self) -> None:
        """Ask the loop to exit after the current iteration."""
        self._running = False

    def _select_timeout(self) -> float:
        """Zero while a turbo run can advance, so the loop never idles
        with work to do; otherwise the poll interval."""
        if self.turbo and any(
            not (run.done or run.paused) for run in self.runs.values()
        ):
            return 0.0
        return self.poll_interval_s

    def _bind(self) -> None:
        assert self._selector is not None
        addresses: list[tuple[int, Any]] = []
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            addresses.append((socket.AF_UNIX, self.socket_path))
        if self.host is not None:
            if self.port is None:
                raise ServeError("a TCP host needs a port")
            addresses.append((socket.AF_INET, (self.host, self.port)))
        for family, address in addresses:
            listener = socket.socket(family, socket.SOCK_STREAM)
            # Listed before bind(), so a refused address still closes it.
            self._listeners.append(listener)
            if family == socket.AF_INET:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(address)
            listener.listen(16)
            listener.setblocking(False)
            self._selector.register(listener, selectors.EVENT_READ, None)

    def _accept(self, listener: Any) -> None:
        assert self._selector is not None
        sock, _addr = listener.accept()
        sock.setblocking(False)
        conn = _Connection(sock)
        self._connections.append(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _drop(self, conn: _Connection) -> None:
        assert self._selector is not None
        conn.closed = True
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        if conn in self._connections:
            self._connections.remove(conn)

    def _read(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(conn)
            return
        if not chunk:
            self._drop(conn)
            return
        conn.buffer += chunk
        while b"\n" in conn.buffer:
            raw, conn.buffer = conn.buffer.split(b"\n", 1)
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            self._handle_line(conn, line)
        # Complete lines answer for themselves (decode_request refuses an
        # over-long one); only an unterminated one can outgrow the limit.
        if len(conn.buffer) > MAX_LINE_BYTES:
            conn.send_line(
                encode_response(
                    None,
                    error=ProtocolError(
                        f"request exceeds the {MAX_LINE_BYTES}-byte line limit"
                    ),
                )
            )
            self._drop(conn)

    def _handle_line(self, conn: _Connection, line: str) -> None:
        try:
            request = decode_request(line)
        except ProtocolError as error:
            conn.send_line(encode_response(None, error=error))
            return
        try:
            result = self._dispatch(conn, request)
        except ReproError as error:
            conn.send_line(encode_response(request.id, error=error))
            return
        conn.send_line(encode_response(request.id, result=result))

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, conn: _Connection, request: Request) -> dict[str, Any]:
        args = request.args
        cmd = request.cmd
        if cmd == "ping":
            return {"pong": True, "runs": len(self.runs)}
        if cmd == "submit":
            spec_data = args["spec"]
            if not isinstance(spec_data, dict):
                raise ProtocolError("'spec' must be a scenario spec object")
            name = args.get("name")
            if name is not None and not isinstance(name, str):
                raise ProtocolError(f"run name must be a string, got {name!r}")
            paused = args.get("paused", False)
            if not isinstance(paused, bool):
                raise ProtocolError(
                    f"'paused' must be a boolean, got {paused!r}"
                )
            spec = ScenarioSpec.from_dict(spec_data)
            try:
                run = self.submit(spec, name, paused=paused)
            except (TypeError, ValueError, LookupError) as error:
                # A field the spec accepts can still fail the stack build
                # ("seed": null); that is a bad submit, not a daemon crash.
                raise ServeError(
                    f"cannot build the submitted scenario: {error}"
                ) from error
            return {
                "run": run.name,
                "digest": run.spec.digest(),
                "end_s": run.end_s,
                "paused": run.paused,
            }
        if cmd == "status":
            if "run" in args:
                return self._run(args["run"]).status()
            return {
                "runs": [
                    self.runs[name].status() for name in sorted(self.runs)
                ],
                "rate": self.rate,
                "turbo": self.turbo,
            }
        if cmd == "budget":
            run = self._run(args["run"])
            watts = _number(args["watts"], "watts")
            return run.apply_budget(watts, source="ctl")
        if cmd == "slo":
            run = self._run(args["run"])
            target = _number(args["target_s"], "target_s")
            return run.retarget_slo(target, source="ctl")
        if cmd == "pause":
            run = self._run(args["run"])
            run.paused = True
            return {"run": run.name, "paused": True, "now_s": run.sim_now}
        if cmd == "resume":
            run = self._run(args["run"])
            run.paused = False
            return {"run": run.name, "paused": False, "now_s": run.sim_now}
        if cmd == "drain":
            run = self._run(args["run"])
            run.drain_now()
            status = run.status()
            if run.error is not None:
                raise ServeError(
                    f"run {run.name!r} failed while draining: {run.error}"
                )
            return status
        if cmd == "stop":
            run = self._run(args["run"])
            run.abort()
            return run.status()
        if cmd == "result":
            run = self._run(args["run"])
            if run.result_payload is None:
                raise ServeError(
                    f"run {run.name!r} has no result yet "
                    f"(phase {run.builder.phase!r}"
                    + (f", error: {run.error}" if run.error else "")
                    + ")"
                )
            return run.result_payload
        if cmd == "audit":
            run = self._run(args["run"])
            kind = args.get("kind")
            if kind is not None and not isinstance(kind, str):
                raise ProtocolError(f"'kind' must be a string, got {kind!r}")
            tail = args.get("tail")
            if tail is not None and (
                isinstance(tail, bool) or not isinstance(tail, int) or tail < 0
            ):
                raise ProtocolError(
                    f"'tail' must be a non-negative integer, got {tail!r}"
                )
            entries = run.audit_entries(kind=kind, tail=tail)
            return {"run": run.name, "count": len(entries), "entries": entries}
        if cmd == "watch":
            run = self._run(args["run"])
            conn.watching.setdefault(run.name, 0)
            return {"run": run.name, "watching": True}
        if cmd == "unwatch":
            if "run" in args:
                name = args["run"]
                if not isinstance(name, str):
                    raise ProtocolError(
                        f"run name must be a string, got {name!r}"
                    )
                conn.watching.pop(name, None)
            else:
                conn.watching.clear()
            return {"watching": sorted(conn.watching)}
        if cmd == "shutdown":
            self.shutdown()
            return {"stopping": True, "runs": len(self.runs)}
        raise ProtocolError(f"unhandled command {cmd!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Pacing and stream fan-out
    # ------------------------------------------------------------------
    def _advance_runs(self, wall_dt: float) -> None:
        for name in sorted(self.runs):
            run = self.runs[name]
            if run.done or run.paused:
                continue
            if self.turbo:
                run.advance_by(self.quantum_s)
            else:
                target = min(
                    run.end_s, self._targets[name] + wall_dt * self.rate
                )
                self._targets[name] = target
                run.advance_to(target)

    def _pump_streams(self) -> None:
        """Push new stream lines to watchers, then drop closed
        connections and re-arm write interest on the rest."""
        for conn in list(self._connections):
            for name in sorted(conn.watching):
                run = self.runs.get(name)
                if run is None:
                    conn.watching.pop(name, None)
                    continue
                cursor = conn.watching[name]
                cursor, lines = run.stream_lines(cursor)
                conn.watching[name] = cursor
                for line in lines:
                    conn.send_line(encode_event("snapshot", name, {"line": line}))
                # Announce completion exactly once per watcher — even one
                # that subscribed after the run already finished.
                if run.done and name not in conn.announced:
                    conn.announced.add(name)
                    conn.send_line(
                        encode_event(
                            "finished",
                            name,
                            {
                                "phase": run.builder.phase,
                                "error": run.error,
                                "result_ready": run.result_payload is not None,
                            },
                        )
                    )
            if conn.closed:
                self._drop(conn)
            else:
                self._watch_writes(conn)

    def _watch_writes(self, conn: _Connection) -> None:
        """Register for writability exactly while replies are queued."""
        assert self._selector is not None
        events = selectors.EVENT_READ
        if conn.outbox:
            events |= selectors.EVENT_WRITE
        if events != conn.events:
            self._selector.modify(conn.sock, events, conn)
            conn.events = events

    # ------------------------------------------------------------------
    def _close_all(self) -> None:
        for conn in list(self._connections):
            self._drop(conn)
        for listener in self._listeners:
            try:
                if self._selector is not None:
                    self._selector.unregister(listener)
            except (KeyError, ValueError):
                pass
            listener.close()
        self._listeners.clear()
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        for run in self.runs.values():
            if not run.done:
                run.abort()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.socket_path or f"{self.host}:{self.port}"
        return f"ReproDaemon({where}, {len(self.runs)} runs)"


def _positive(value: float, name: str, unit: str) -> float:
    # NaN would stall a run (or crash select), and a zero or negative
    # poll would spin an idle loop.
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ServeError(f"{name} must be finite and > 0 {unit}, got {value}")
    return value


def _number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{name!r} must be a number, got {value!r}")
    return float(value)
