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
* ``Hz`` / ``Ghz`` — frequency.  The simulator works in GHz throughout
  (the paper's ladder is 1.2–2.4 GHz); ``Hz`` exists for interop.
* ``DvfsLevel`` — an integer index on a
  :class:`~repro.cluster.frequency.FrequencyLadder` (0 is the floor).
* ``SimTime`` — a point on (or duration along) the simulated clock, in
  seconds.

Tolerance helpers
-----------------
Computed power/latency values should not be compared with ``==``.  The
idioms live here: :func:`approx_eq` for tolerance comparison and
:func:`exactly` for the rare intentional bitwise sentinel check (for
example "was this latency configured to literally ``0.0``?").
"""

from __future__ import annotations

import math
from typing import NewType

__all__ = [
    "Watts",
    "Joules",
    "Hz",
    "Ghz",
    "DvfsLevel",
    "SimTime",
    "EPSILON_WATTS",
    "EPSILON_GHZ",
    "EPSILON_SECONDS",
    "approx_eq",
    "exactly",
    "ghz_to_hz",
    "hz_to_ghz",
]

Watts = NewType("Watts", float)
Joules = NewType("Joules", float)
Hz = NewType("Hz", float)
Ghz = NewType("Ghz", float)
DvfsLevel = NewType("DvfsLevel", int)
SimTime = NewType("SimTime", float)

#: Slack for power comparisons: far below the smallest ladder step's
#: power delta, far above accumulated float noise.
EPSILON_WATTS: Watts = Watts(1e-9)

#: Slack for ladder-frequency matching (the ladder step is 0.1 GHz).
EPSILON_GHZ: Ghz = Ghz(1e-6)

#: Slack for simulated-time comparisons.
EPSILON_SECONDS: SimTime = SimTime(1e-9)

_GHZ_PER_HZ = 1e-9


def ghz_to_hz(value: Ghz) -> Hz:
    """Convert gigahertz to hertz."""
    return Hz(float(value) / _GHZ_PER_HZ)


def hz_to_ghz(value: Hz) -> Ghz:
    """Convert hertz to gigahertz."""
    return Ghz(float(value) * _GHZ_PER_HZ)


def approx_eq(left: float, right: float, tolerance: float = 1e-9) -> bool:
    """Tolerance equality for power/latency floats.

    The approved replacement for ``==`` on computed quantities: absolute
    tolerance, so it behaves sensibly around zero (where
    :func:`math.isclose`'s default relative tolerance collapses).
    """
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    return math.isclose(left, right, rel_tol=0.0, abs_tol=tolerance)


def exactly(value: float, sentinel: float) -> bool:
    """Intentional bitwise-exact float comparison.

    For sentinel checks where the value was *assigned*, never computed —
    "is the configured transition latency literally zero?".  Routing the
    comparison through this helper documents the intent.
    """
    return value == sentinel
