"""Drive a ``repro serve --turbo`` daemon as one open-loop client.

One connection submits the workload spec, then sends ``status`` on a
fixed 20 Hz schedule until the run reports ``result_ready``.  Each
command's latency is timed from the moment it was due, so a stalled
reply also charges the wait it imposes on the requests queued behind it;
how late the generator itself ran is recorded separately.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.errors import ReproError
from repro.serve import CtlClient

#: ``status`` requests per second while the hosted run advances.
STATUS_HZ = 20.0
#: A command with no reply after this long counts as failed.
CTL_TIMEOUT_S = 5.0
#: How long the daemon gets to bind its socket and answer ``ping``.
BOOT_TIMEOUT_S = 30.0
#: A run that has not reported ``result_ready`` after this long fails.
RUN_TIMEOUT_S = 100.0


@dataclass
class DaemonRun:
    """What one daemon session measured."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_kb: int = 0
    ctl_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    payload: Optional[dict[str, Any]] = None
    spans: list[tuple[str, float, float]] = field(default_factory=list)


def _socket_path(work_dir: Path) -> str:
    """A unix socket path short enough for ``sun_path`` (108 bytes)."""
    path = work_dir / "ctl.sock"
    relative = os.path.relpath(path)
    return relative if len(relative) < len(str(path)) else str(path)


def run_daemon(
    spec: Any, env: dict[str, str], work_dir: Path, profile_to: Optional[Path] = None
) -> DaemonRun:
    """Boot a daemon, run ``spec`` on it under open-loop load, stop it."""
    out = DaemonRun()
    sock = _socket_path(work_dir)
    command = [sys.executable]
    if profile_to is not None:
        command += ["-m", "cProfile", "-o", str(profile_to)]
    command += ["-m", "repro", "serve", "--turbo", "--socket", sock]
    log = open(work_dir / "daemon.log", "wb")
    spawned = time.monotonic()
    proc = subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT)
    client = CtlClient(sock, timeout_s=CTL_TIMEOUT_S)
    try:
        out.attempted += 1  # the ping that answers once the daemon is up
        _connect(client, proc, spawned + BOOT_TIMEOUT_S)
        out.setup_s = time.monotonic() - spawned
        out.spans.append(("daemon boot", spawned, spawned + out.setup_s))
        _session(client, spec, out)
    except (ReproError, OSError) as error:
        out.failed += 1
        out.errors.append(f"{type(error).__name__}: {error}")
    finally:
        client.close()
        # A fresh connection: the session's may be the one that broke.
        try:
            with CtlClient(sock, timeout_s=CTL_TIMEOUT_S) as ctl:
                ctl.call("shutdown")
        except (ReproError, OSError):
            pass
        out.rss_kb = reap(proc, time.monotonic() + 20.0)
        log.close()
    if proc.returncode != 0:
        out.errors.append(f"daemon exited with {proc.returncode}")
        out.failed += 1
    return out


def _connect(client: CtlClient, proc: subprocess.Popen, deadline: float) -> None:
    """Retry until the daemon answers ``ping`` (it binds after importing)."""
    while True:
        if proc.poll() is not None:
            raise OSError(f"daemon exited with {proc.returncode} before binding")
        try:
            client.call("ping")
            return
        except (FileNotFoundError, ConnectionRefusedError):
            client.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)


def _call(client: CtlClient, out: DaemonRun, cmd: str, **args: Any) -> dict[str, Any]:
    start = time.monotonic()
    out.attempted += 1
    try:
        return client.call(cmd, **args)
    finally:
        out.spans.append((f"ctl {cmd}", start, time.monotonic()))


def _session(client: CtlClient, spec: Any, out: DaemonRun) -> None:
    submitted = time.monotonic()
    name = _call(client, out, "submit", spec=spec.to_dict())["run"]
    period = 1.0 / STATUS_HZ
    due = submitted
    while True:
        due += period
        now = time.monotonic()
        if now < due:
            time.sleep(due - now)
        sent = time.monotonic()
        status = _call(client, out, "status", run=name)
        answered = time.monotonic()
        out.late_ms.append((sent - due) * 1e3)
        out.ctl_ms.append((answered - due) * 1e3)
        if status.get("error"):
            raise ReproError(f"hosted run failed: {status['error']}")
        if status.get("result_ready"):
            out.wall_s = answered - submitted
            break
        if answered - submitted > RUN_TIMEOUT_S:
            raise ReproError(f"no result after {RUN_TIMEOUT_S:g} s")
    out.spans.append(("hosted run", submitted, submitted + out.wall_s))
    out.payload = _call(client, out, "result", run=name)


def reap(proc: subprocess.Popen, deadline: float) -> int:
    """Wait for ``proc`` (killing it at ``deadline``); its peak RSS in KiB."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.01)
