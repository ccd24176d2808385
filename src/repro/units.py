"""Typed physical units for the power-management domain.

The controller's arithmetic mixes quantities that are all ``float`` at
runtime — watts, gigahertz, simulated seconds, joules — and the bugs the
paper's Algorithm 1 is most sensitive to (a budget compared against a
frequency, a latency added to a power draw) are invisible to the
interpreter.  This module gives each quantity a :func:`typing.NewType`
wrapper so ``mypy --strict`` (run over this module, ``core/`` and
``cluster/``) can see them, at zero runtime cost (a ``NewType`` call is
the identity function).

Conventions
-----------
* ``Watts`` / ``Joules`` — power and energy.
* ``Ghz`` — frequency.  The simulator works in GHz throughout (the
  paper's ladder is 1.2–2.4 GHz).
* ``DvfsLevel`` — an integer index on a
  :class:`~repro.cluster.frequency.FrequencyLadder` (0 is the floor).
* ``SimTime`` — a point on (or duration along) the simulated clock, in
  seconds.

Comparisons
-----------
Computed power values should not be compared with ``==``:
:data:`EPSILON_WATTS` is the slack for power comparisons, and
:func:`exactly` marks the rare intentional bitwise sentinel check (for
example "was this latency configured to literally ``0.0``?").
"""

from __future__ import annotations

from typing import NewType

__all__ = [
    "Watts",
    "Joules",
    "Ghz",
    "DvfsLevel",
    "SimTime",
    "EPSILON_WATTS",
    "exactly",
]

Watts = NewType("Watts", float)
Joules = NewType("Joules", float)
Ghz = NewType("Ghz", float)
DvfsLevel = NewType("DvfsLevel", int)
SimTime = NewType("SimTime", float)

#: Slack for power comparisons: far below the smallest ladder step's
#: power delta, far above accumulated float noise.
EPSILON_WATTS: Watts = Watts(1e-9)


def exactly(value: float, sentinel: float) -> bool:
    """Intentional bitwise-exact float comparison.

    For sentinel checks where the value was *assigned*, never computed —
    "is the configured transition latency literally zero?".  Routing the
    comparison through this helper documents the intent.
    """
    return value == sentinel
