"""The ``reprod`` live control plane.

Everything else in the repository is batch: a scenario runs to
completion and the results are read post-mortem.  This package turns
the incremental stack lifecycle (:meth:`StackBuilder.tick`,
:meth:`Simulator.run_until`) into a long-running service with a live
control API — the serving posture of SLOs-Serve/InferLine and the
daemon shape of nrmd:

* :mod:`repro.serve.protocol` — the line-delimited JSON command
  protocol spoken over the control socket (requests, responses,
  streamed events), with schema validation on both ends;
* :mod:`repro.serve.hosted` — :class:`HostedRun`, one armed stack
  driven by simulated-time deadlines; wall-clock-free, so the sim core
  stays pure and every pacing decision lives in the daemon;
* :mod:`repro.serve.daemon` — :class:`ReproDaemon`, the single-threaded
  selector loop that owns the socket(s), paces hosted runs against the
  wall clock (``--rate`` sim-seconds per real second, or ``--turbo``:
  quantum-chunked, never sleeping while a run can advance), dispatches
  commands and fans stream snapshots out to watchers;
* :mod:`repro.serve.client` — :class:`CtlClient`, the blocking client
  the ``repro ctl`` CLI and the tests drive the daemon with.

Live budget moves and SLO retargets flow through the guard layer
(:func:`repro.guard.apply_budget_change`, :func:`repro.guard.retarget_slo`)
so they are clamped to the feasible set and always leave an audit entry.
"""

from repro.serve.client import CtlClient
from repro.serve.daemon import ReproDaemon
from repro.serve.hosted import SERVE_PILLARS, HostedRun, ensure_serve_pillars
from repro.serve.protocol import (
    COMMANDS,
    Request,
    decode_message,
    decode_request,
    encode_event,
    encode_request,
    encode_response,
)

__all__ = [
    "COMMANDS",
    "Request",
    "decode_message",
    "decode_request",
    "encode_event",
    "encode_request",
    "encode_response",
    "HostedRun",
    "SERVE_PILLARS",
    "ensure_serve_pillars",
    "ReproDaemon",
    "CtlClient",
]
