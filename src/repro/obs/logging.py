"""Shared logging setup: one format, wall time plus simulated time.

Every CLI subcommand calls :func:`setup_logging` once, so all modules
log through the same handler with the same structured line format::

    2026-08-06 12:00:00,123 INFO    repro.cli [sim=184.250s] boosting IMM_1

The simulated-time column is fed by :func:`bind_simulator`: the stack
builder binds the active :class:`~repro.sim.engine.Simulator` and every
record logged while it is bound carries the simulation clock.  Records
logged outside a run (argument parsing, artifact writing) show ``-``.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

from repro.errors import ConfigurationError

__all__ = ["setup_logging", "bind_simulator", "unbind_simulator", "LOG_FORMAT"]

LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s [sim=%(simtime)s] %(message)s"

#: The active simulated-clock provider; ``None`` outside a run.
_clock: Optional[Callable[[], float]] = None


def bind_simulator(clock: Callable[[], float]) -> None:
    """Bind a simulated-clock callable (usually ``lambda: sim.now``)."""
    global _clock
    _clock = clock


def unbind_simulator() -> None:
    global _clock
    _clock = None


class _SimTimeFilter(logging.Filter):
    """Injects the simulated time into every record."""

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "simtime"):
            record.simtime = f"{_clock():.3f}s" if _clock is not None else "-"
        return True


def setup_logging(level: str = "warning", stream=None) -> logging.Logger:
    """Configure the ``repro`` logger tree; returns the root of it.

    Idempotent: re-invocation replaces the handler rather than stacking
    a second one, so tests and repeated CLI calls never double-log.
    """
    try:
        numeric = getattr(logging, level.upper())
        if not isinstance(numeric, int):
            raise AttributeError(level)
    except AttributeError:
        known = "debug, info, warning, error, critical"
        raise ConfigurationError(
            f"unknown log level {level!r} (known: {known})"
        ) from None
    logger = logging.getLogger("repro")
    logger.setLevel(numeric)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    handler.addFilter(_SimTimeFilter())
    logger.addHandler(handler)
    logger.propagate = False
    return logger
