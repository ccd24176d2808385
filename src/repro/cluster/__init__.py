"""CMP cluster substrate: cores, DVFS ladder, power model and budget.

This package simulates the hardware side of the paper's testbed (Intel
Xeon E5-2630v3): a pool of physical cores (:class:`Machine`) with per-core
DVFS over a discrete :class:`FrequencyLadder`, a calibrated core
:class:`CubicPowerModel`, a hard :class:`PowerBudget`, a
:class:`DvfsActuator` standing in for the sysfs interface, and
:class:`PowerTelemetry` for the power timelines of the QoS experiments.
"""

from repro.cluster.budget import PowerBudget
from repro.cluster.contention import ContentionModel, LinearContention, NoContention
from repro.cluster.core import Core, CoreState
from repro.cluster.dvfs import DvfsActuator
from repro.cluster.frequency import HASWELL_LADDER, FrequencyLadder
from repro.cluster.machine import Machine
from repro.cluster.power import DEFAULT_POWER_MODEL, CubicPowerModel
from repro.cluster.telemetry import PowerSample, PowerTelemetry

__all__ = [
    "PowerBudget",
    "ContentionModel",
    "LinearContention",
    "NoContention",
    "Core",
    "CoreState",
    "DvfsActuator",
    "FrequencyLadder",
    "HASWELL_LADDER",
    "Machine",
    "CubicPowerModel",
    "DEFAULT_POWER_MODEL",
    "PowerSample",
    "PowerTelemetry",
]
