"""The Pegasus comparator (Section 8.4).

Pegasus [Lo et al., ISCA'14] "targets reducing power consumption without
violating the QoS" by trading latency slack for lower processing speed.
Like the paper, "we implement the Pegasus power conservation policy
within [our] framework" so both systems see identical workloads, stats
and actuators.

Pegasus's defining limitation in this comparison is that it "treats
service instances indifferently": its controller watches the end-to-end
latency against the SLO and issues one *uniform* action to every
instance — it has no notion of stages, so the stage closest to the QoS
target pins the frequency of every other stage.  Its policy bands follow
the published iso-latency controller:

* latency above the target            → bail out: everyone to max power;
* latency within the guard band       → hold;
* comfortable slack                   → step everyone down one level.

Pegasus never withdraws instances (frequency de-boosting only, Table 3).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.core.controller import BaseController, ControllerConfig
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.sim.engine import Simulator

__all__ = ["PegasusController", "check_hold_fraction"]


def check_hold_fraction(hold_fraction: float) -> None:
    if not 0.0 < hold_fraction < 1.0:
        raise ConfigurationError(
            f"hold fraction must be in (0, 1), got {hold_fraction}"
        )


class PegasusController(BaseController):
    """Stage-agnostic iso-latency power conservation."""

    name = "pegasus"

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        command_center: CommandCenter,
        budget: PowerBudget,
        dvfs: DvfsActuator,
        qos_target_s: float,
        config: Optional[ControllerConfig] = None,
        hold_fraction: float = 0.85,
    ) -> None:
        if qos_target_s <= 0.0:
            raise ConfigurationError(f"QoS target must be > 0, got {qos_target_s}")
        check_hold_fraction(hold_fraction)
        super().__init__(sim, application, command_center, budget, dvfs, config)
        self.qos_target_s = float(qos_target_s)
        self.hold_fraction = float(hold_fraction)

    def adjust(self, now: float) -> None:
        # Pegasus's published policy acts on the *instantaneous* latency —
        # the worst request observed in the measurement window — which is
        # what makes it conservative: one slow query in the window pins
        # every core at maximum power.
        latency = self.command_center.recent_latency_max()
        if latency is None:
            self._skip("no recent queries to judge against the QoS target")
            return
        ladder = self.budget.machine.ladder
        if latency > self.qos_target_s:
            # Bail out: restore maximum performance everywhere.
            for instance in self.application.running_instances():
                self.set_instance_level(instance, ladder.max_level, reason="qos-max")
            return
        if latency > self.hold_fraction * self.qos_target_s:
            self._skip(
                f"latency {latency:.4f}s inside guard band "
                f"[{self.hold_fraction:.2f}, 1.0] x target"
            )
            return
        # Comfortable slack: uniform one-level step down.
        for instance in self.application.running_instances():
            if instance.level > ladder.min_level:
                self.set_instance_level(
                    instance, instance.level - 1, reason="conserve"
                )
