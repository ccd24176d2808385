"""The Web Search workload (Section 8.4, Table 3, Figure 14).

Web Search (Apache Nutch in the paper) is the classic scatter-gather
topology: a query fans out to every *leaf* serving a shard of the index,
and an *aggregation* service merges the partial results.  Table 3 deploys
"1 aggregation service and 10 leaf services" at the maximum frequency
with a 250 ms latency QoS.

The leaf tier is a ``SCATTER_GATHER`` stage
(:func:`repro.scenario.config.app_stages`): each query's total leaf work
is split evenly across the running leaves, so withdrawing a leaf (as
PowerChief's conservation policy may) re-shards its load onto the
survivors — trading leaf-tier latency for the withdrawn core's power,
exactly the slack-for-power exchange Figure 14 exercises.
"""

from __future__ import annotations

from repro.service.demand import LogNormalDemand
from repro.service.profile import PowerLawSpeedup, ServiceProfile

__all__ = ["WEBSEARCH_STAGES", "websearch_profiles"]

#: Pipeline order: leaves first, then aggregation.
WEBSEARCH_STAGES = ("LEAF", "AGG")

_LADDER_FLOOR_GHZ = 1.2


def websearch_profiles() -> list[ServiceProfile]:
    """Offline profiles for the leaf tier and the aggregator.

    The LEAF demand is the *total* index-scan work of a query at the
    ladder floor; the scatter-gather stage divides it across the running
    leaves (0.1 s per leaf with the Table-3 pool of ten).
    """
    return [
        ServiceProfile(
            name="LEAF",
            demand=LogNormalDemand(mean_seconds=1.00, sigma=0.55),
            speedup=PowerLawSpeedup(_LADDER_FLOOR_GHZ, beta=1.00),
        ),
        ServiceProfile(
            name="AGG",
            demand=LogNormalDemand(mean_seconds=0.06, sigma=0.30),
            speedup=PowerLawSpeedup(_LADDER_FLOOR_GHZ, beta=0.80),
        ),
    ]
