"""Experiment configurations mirroring the paper's Tables 2 and 3.

Table 2 (latency mitigation under a power constraint): Poisson load at
three levels, one instance per stage at 1.8 GHz, a 13.56 W budget, 25 s
adjust interval, 1 s balance threshold, 150 s withdraw interval.

Table 3 (power conservation under a QoS): over-provisioned deployments at
the maximum frequency — Sirius with 4 ASR + 2 IMM + 5 QA instances, a 2 s
QoS and a 10 s adjust interval; Web Search with 1 aggregation + 10 leaf
services, a 250 ms QoS and a 2 s adjust interval.

:func:`app_stages` names the pipelines themselves: each application's
stages in order, with their offline profiles and stage kinds;
:func:`app_stage_names` gives the names alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

from repro.errors import ConfigurationError
from repro.core.controller import ControllerConfig
from repro.service.profile import ServiceProfile
from repro.service.stage import StageKind
from repro.workloads.nlp import NLP_STAGES, nlp_profiles
from repro.workloads.sirius import SIRIUS_STAGES, sirius_profiles
from repro.workloads.websearch import WEBSEARCH_STAGES, websearch_profiles

__all__ = [
    "app_stage_names",
    "app_stages",
    "TABLE2_POWER_BUDGET_WATTS",
    "TABLE2_INITIAL_FREQ_GHZ",
    "TABLE2_CONTROLLER_CONFIG",
    "Table3Setup",
    "TABLE3_SIRIUS",
    "TABLE3_WEBSEARCH",
    "TABLE3_SETUPS",
]

#: Table 2: "Power Budget 13.56 watts" — three instances at 1.8 GHz under
#: the calibrated power model.
TABLE2_POWER_BUDGET_WATTS = 13.56

#: Table 2: "All services are running at medial frequency (1.8GHz)".
TABLE2_INITIAL_FREQ_GHZ = 1.8

#: Table 2: adjust interval 25 s, withdraw interval 150 s.  The paper's
#: balance threshold is 1 s on its testbed's latency scale; our calibrated
#: demands produce a baseline mean end-to-end latency of ~1.3 s (versus
#: multiple seconds on the real Sirius), so the threshold is scaled to
#: 0.25 s to keep the same threshold-to-baseline-latency ratio.  It plays
#: the identical role: skip the interval when the fastest and slowest
#: instances are already balanced, to avoid power-reallocation
#: oscillation (Section 8.1).
TABLE2_CONTROLLER_CONFIG = ControllerConfig(
    adjust_interval_s=25.0,
    balance_threshold_s=0.25,
    withdraw_interval_s=150.0,
)


@dataclass(frozen=True)
class Table3Setup:
    """One application's QoS-mode deployment (a row of Table 3)."""

    app: str
    instances_per_stage: Mapping[str, int]
    qos_target_s: float
    adjust_interval_s: float
    initial_freq_ghz: float = 2.4

    def controller_config(self) -> ControllerConfig:
        """A controller config with this setup's adjust interval."""
        return ControllerConfig(adjust_interval_s=self.adjust_interval_s)


#: Table 3, Sirius column: "4 ASR services, 2 IM services and 5 QA
#: services", QoS 2 s, adjust interval 10 s.
TABLE3_SIRIUS = Table3Setup(
    app="sirius",
    instances_per_stage=MappingProxyType({"ASR": 4, "IMM": 2, "QA": 5}),
    qos_target_s=2.0,
    adjust_interval_s=10.0,
)

#: Table 3, Web Search column: "1 aggregation service and 10 leaf
#: services", QoS 250 ms, adjust interval 2 s.
TABLE3_WEBSEARCH = Table3Setup(
    app="websearch",
    instances_per_stage=MappingProxyType({"LEAF": 10, "AGG": 1}),
    qos_target_s=0.250,
    adjust_interval_s=2.0,
)

#: The Table-3 deployments by application name — what a QoS scenario's
#: ``app`` field resolves through.
TABLE3_SETUPS: Mapping[str, Table3Setup] = MappingProxyType(
    {
        "sirius": TABLE3_SIRIUS,
        "websearch": TABLE3_WEBSEARCH,
    }
)


#: One application: its stage names in pipeline order, the builder of
#: their offline profiles, and the stages that fan every query out over
#: their whole pool.
_App = tuple[tuple[str, ...], Callable[[], list[ServiceProfile]], tuple[str, ...]]

#: The applications by name; Web Search's leaf tier is scatter-gather.
_APPS: Mapping[str, _App] = MappingProxyType(
    {
        "sirius": (SIRIUS_STAGES, sirius_profiles, ()),
        "nlp": (NLP_STAGES, nlp_profiles, ()),
        "websearch": (WEBSEARCH_STAGES, websearch_profiles, ("LEAF",)),
    }
)


def _app(app: str) -> _App:
    try:
        return _APPS[app]
    except KeyError:
        known = ", ".join(sorted(_APPS))
        raise ConfigurationError(f"unknown app {app!r} (known: {known})") from None


def app_stage_names(app: str) -> tuple[str, ...]:
    """The named application's stage names in pipeline order, without
    building its profiles, so a scenario spec checks its app and
    allocation cheaply.  An unknown name raises
    :class:`~repro.errors.ConfigurationError` listing the known ones.
    """
    return _app(app)[0]


def app_stages(app: str) -> list[tuple[ServiceProfile, StageKind]]:
    """The named application's stages in pipeline order: profile and kind.

    Each call builds fresh profiles.  An unknown name raises
    :class:`~repro.errors.ConfigurationError` listing the known ones.
    """
    _, build_profiles, scatter = _app(app)
    return [
        (
            profile,
            StageKind.SCATTER_GATHER
            if profile.name in scatter
            else StageKind.PIPELINE,
        )
        for profile in build_profiles()
    ]
