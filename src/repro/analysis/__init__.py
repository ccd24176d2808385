"""Analysis tools: the queueing theory the simulator is validated against.

:mod:`repro.analysis.queueing` provides the closed-form M/M/1 and M/G/1
results.  The per-stage and tail-latency decomposition the paper's
conclusion names as future work is :mod:`repro.obs.attribution`.
"""

from repro.analysis.queueing import (
    lognormal_cv2,
    mg1_mean_wait,
    mm1_mean_response,
    mm1_mean_wait,
    required_instances,
    utilization,
)

__all__ = [
    "lognormal_cv2",
    "mg1_mean_wait",
    "mm1_mean_response",
    "mm1_mean_wait",
    "required_instances",
    "utilization",
]
