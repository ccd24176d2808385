"""Multi-stage service substrate.

Implements the application model of the paper: queries
(:class:`Query`) carrying per-instance latency records
(:class:`StageRecord`) flow through an ordered pipeline of stages
(:class:`Stage`), each a pool of single-core service instances
(:class:`ServiceInstance`).  The :class:`CommandCenter` ingests the
records when queries complete and serves windowed latency statistics to
the controllers.
"""

from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.service.demand import (
    DemandDistribution,
    DeterministicDemand,
    ExponentialDemand,
    LogNormalDemand,
)
from repro.service.instance import InstanceState, Job, ServiceInstance
from repro.service.profile import PowerLawSpeedup, ServiceProfile
from repro.service.query import Query
from repro.service.records import AttemptRecord, StageRecord
from repro.service.resilience import RetryPolicy, StageResilience
from repro.service.rpc import RpcFabric
from repro.service.stage import Stage, StageKind
from repro.service.window import LatencyWindow

__all__ = [
    "Application",
    "CommandCenter",
    "DemandDistribution",
    "DeterministicDemand",
    "ExponentialDemand",
    "LogNormalDemand",
    "InstanceState",
    "Job",
    "ServiceInstance",
    "PowerLawSpeedup",
    "ServiceProfile",
    "Query",
    "AttemptRecord",
    "StageRecord",
    "RetryPolicy",
    "StageResilience",
    "RpcFabric",
    "Stage",
    "StageKind",
    "LatencyWindow",
]
