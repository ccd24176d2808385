"""The blocking control-socket client behind ``repro ctl``.

:class:`CtlClient` speaks :mod:`repro.serve.protocol` over a unix or
TCP socket: :meth:`call` sends one request line and blocks for the
matching response (event lines that arrive in between are queued, not
lost), and :meth:`events` hands those pushed lines out for ``watch``.
A daemon-side error comes back as the matching exception type where the
library defines one (:class:`~repro.errors.ServeError` and friends), so
``repro ctl`` failures print exactly like local ones.
"""

from __future__ import annotations

import socket
from typing import Any, Iterator, Optional

from repro import errors as _errors
from repro.errors import ProtocolError, ReproError, ServeError
from repro.serve.protocol import decode_message, encode_request

__all__ = ["CtlClient"]


def _rebuild_error(payload: dict[str, Any]) -> ReproError:
    """Map a daemon error dict back onto the library's exception types."""
    name = str(payload.get("type", "ServeError"))
    message = str(payload.get("message", "daemon error"))
    exc_type = getattr(_errors, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        try:
            return exc_type(message)
        except TypeError:
            # Rich constructors (PowerBudgetExceeded) don't take a bare
            # message; fall through to the generic wrapper.
            pass
    return ServeError(f"{name}: {message}")


class CtlClient:
    """One blocking connection to a ``reprod`` control socket."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout_s: float = 30.0,
    ) -> None:
        if socket_path is None and host is None:
            raise ServeError("the client needs a unix socket path or a TCP host")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout_s = float(timeout_s)
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        self._next_id = 0
        self._pending_events: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def connect(self) -> "CtlClient":
        if self._sock is not None:
            return self
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            try:
                sock.connect(self.socket_path)
            except OSError:
                # Callers retry on the exact type (the socket file not
                # there yet, or refused before listen()), so re-raise it.
                sock.close()
                raise
        else:
            if self.port is None:
                raise ServeError("a TCP host needs a port")
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buffer = b""

    def __enter__(self) -> "CtlClient":
        return self.connect()

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def call(self, cmd: str, **args: Any) -> dict[str, Any]:
        """Send one command and block for its response."""
        self.connect()
        assert self._sock is not None
        self._next_id += 1
        request_id = self._next_id
        line = encode_request(request_id, cmd, args)
        self._sock.sendall(line.encode("utf-8") + b"\n")
        while True:
            message = self._read_message()
            if "event" in message:
                self._pending_events.append(message)
                continue
            if message.get("id") != request_id:
                raise ProtocolError(
                    f"daemon answered id {message.get('id')!r}, "
                    f"expected {request_id}"
                )
            if message.get("ok"):
                result = message.get("result", {})
                if not isinstance(result, dict):
                    raise ProtocolError("daemon result must be an object")
                return result
            error = message.get("error")
            if not isinstance(error, dict):
                raise ProtocolError("daemon error must be an object")
            raise _rebuild_error(error)

    def events(self, max_events: Optional[int] = None) -> Iterator[dict[str, Any]]:
        """Yield pushed event lines (queued ones first, then live reads).

        Blocks up to the client timeout per read; a closed daemon ends
        the iteration.  ``max_events`` bounds the yield count.
        """
        self.connect()
        yielded = 0
        while max_events is None or yielded < max_events:
            if self._pending_events:
                event = self._pending_events.pop(0)
            else:
                try:
                    message = self._read_message()
                except (ProtocolError, OSError):
                    return
                if "event" not in message:
                    # A stray response with no caller; drop it.
                    continue
                event = message
            yielded += 1
            yield event

    # ------------------------------------------------------------------
    def _read_message(self) -> dict[str, Any]:
        assert self._sock is not None
        while b"\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ProtocolError("the daemon closed the connection")
            self._buffer += chunk
        raw, self._buffer = self._buffer.split(b"\n", 1)
        return decode_message(raw.decode("utf-8"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.socket_path or f"{self.host}:{self.port}"
        return f"CtlClient({where})"
