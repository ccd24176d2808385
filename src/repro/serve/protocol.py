"""The ``reprod`` control-socket protocol: line-delimited JSON.

One request per line, one response per line, plus unsolicited event
lines on connections that subscribed to a run's stream.  The framing is
deliberately primitive — any language with a socket and a JSON parser
can drive the daemon, and ``repro ctl`` is a thin convenience over it.

Requests::

    {"id": 1, "cmd": "budget", "args": {"run": "run0", "watts": 40.0}}

Responses echo the request id::

    {"id": 1, "ok": true, "result": {...}}
    {"id": 1, "ok": false, "error": {"type": "ServeError", "message": "..."}}

Events carry no id (nothing to correlate; they are pushed)::

    {"event": "snapshot", "run": "run0", "data": {...}}

The command table below is the single source of truth for argument
validation: the daemon rejects unknown commands and unknown/missing
arguments before any handler runs, and the client refuses to send them,
so a typoed knob fails loudly on whichever side sees it first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.errors import ProtocolError

__all__ = [
    "COMMANDS",
    "MAX_LINE_BYTES",
    "Request",
    "decode_message",
    "decode_request",
    "encode_event",
    "encode_request",
    "encode_response",
]

#: A line larger than this is a protocol violation, not a big request —
#: scenario specs are a few KB; nothing legitimate approaches a MB.
MAX_LINE_BYTES = 1_048_576

#: command -> (required argument names, optional argument names).
COMMANDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "ping": ((), ()),
    "submit": (("spec",), ("name", "paused")),
    "status": ((), ("run",)),
    "budget": (("run", "watts"), ()),
    "slo": (("run", "target_s"), ()),
    "pause": (("run",), ()),
    "resume": (("run",), ()),
    "drain": (("run",), ()),
    "stop": (("run",), ()),
    "result": (("run",), ()),
    "audit": (("run",), ("kind", "tail")),
    "watch": (("run",), ()),
    "unwatch": ((), ("run",)),
    "shutdown": ((), ()),
}


@dataclass(frozen=True)
class Request:
    """One validated command line."""

    id: int
    cmd: str
    args: Mapping[str, Any]


def _dumps(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def validate_command(cmd: str, args: Mapping[str, Any]) -> None:
    """Check a command name and argument set against the table."""
    try:
        required, optional = COMMANDS[cmd]
    except KeyError:
        known = ", ".join(sorted(COMMANDS))
        raise ProtocolError(
            f"unknown command {cmd!r} (known: {known})"
        ) from None
    missing = [name for name in required if name not in args]
    if missing:
        raise ProtocolError(
            f"command {cmd!r} is missing argument(s): {', '.join(missing)}"
        )
    allowed = set(required) | set(optional)
    unknown = sorted(set(args) - allowed)
    if unknown:
        raise ProtocolError(
            f"command {cmd!r} does not take argument(s): {', '.join(unknown)}"
        )


def encode_request(request_id: int, cmd: str, args: Mapping[str, Any]) -> str:
    """Serialise one request line (validated; no trailing newline)."""
    validate_command(cmd, args)
    return _dumps({"id": int(request_id), "cmd": cmd, "args": dict(args)})


def _double_range_int(text: str) -> int:
    # Request numbers end up as floats (watts, seconds, spec fields); an
    # integer past the double range would raise OverflowError at that
    # first use, outside any error reply, and end the serve loop.
    value = int(text)
    float(value)
    return value


def decode_request(line: str) -> Request:
    """Parse and validate one request line."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte limit"
        )
    try:
        payload = json.loads(line, parse_int=_double_range_int)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and CPython's integer digit
        # limit; RecursionError is deeply nested arrays or objects.
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    except OverflowError:
        raise ProtocolError(
            "request carries an integer beyond the range of a double"
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    request_id = payload.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError("request needs an integer 'id'")
    cmd = payload.get("cmd")
    if not isinstance(cmd, str):
        raise ProtocolError("request needs a string 'cmd'")
    args = payload.get("args", {})
    if not isinstance(args, dict):
        raise ProtocolError("request 'args' must be an object")
    unknown = sorted(set(payload) - {"id", "cmd", "args"})
    if unknown:
        raise ProtocolError(
            f"unknown request key(s): {', '.join(unknown)}"
        )
    validate_command(cmd, args)
    return Request(id=request_id, cmd=cmd, args=args)


def encode_response(
    request_id: Optional[int],
    *,
    result: Optional[Mapping[str, Any]] = None,
    error: Optional[BaseException] = None,
) -> str:
    """Serialise one response line (no trailing newline).

    Exactly one of ``result``/``error`` must be given; a ``None``
    request id answers a line so malformed its id never parsed.
    """
    if (result is None) == (error is None):
        raise ProtocolError("a response carries either a result or an error")
    if error is not None:
        return _dumps(
            {
                "id": request_id,
                "ok": False,
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                },
            }
        )
    return _dumps({"id": request_id, "ok": True, "result": dict(result or {})})


def encode_event(event: str, run: str, data: Mapping[str, Any]) -> str:
    """Serialise one pushed event line (no trailing newline)."""
    return _dumps({"event": event, "run": run, "data": dict(data)})


def decode_message(line: str) -> dict[str, Any]:
    """Parse one daemon-to-client line (response or event) on the client."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"daemon sent invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"daemon message must be a JSON object, got {type(payload).__name__}"
        )
    if "event" not in payload and "id" not in payload:
        raise ProtocolError("daemon message is neither a response nor an event")
    return payload
