"""PowerChief in QoS mode: conserve power while meeting the latency target.

Section 8.4: "The power conservation is the opposite of service boosting,
which identifies the fastest service instance and applies frequency
reduction and instance withdraw to save power without violating the QoS."

The controller watches the windowed end-to-end latency against the QoS
target:

* **above target** — restore performance: the bottleneck (largest latency
  metric) is boosted back to the top level; if it already runs at the top,
  a clone is launched into its stage.
* **inside the guard band** — hold.
* **comfortable slack** — conserve: walk the metric ranking from the
  fastest instance; withdraw it if it is underutilized and not its
  stage's last instance, otherwise step its frequency down one level.

Its advantage over Pegasus is exactly the paper's point: because the
*fastest* instance is chosen per stage-aware latency metrics, slack in
over-provisioned stages is converted to savings without touching the
stage that is actually close to the QoS target.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.cluster.budget import PowerBudget
from repro.cluster.dvfs import DvfsActuator
from repro.core.actions import InstanceWithdrawAction
from repro.core.controller import BaseController, ControllerConfig
from repro.core.withdraw import InstanceWithdrawer
from repro.service.application import Application
from repro.service.command_center import CommandCenter
from repro.sim.engine import Simulator

__all__ = ["PowerChiefConserveController", "check_conserve_fractions"]


def check_conserve_fractions(
    conserve_fraction: float = 0.75, guard_fraction: float = 0.92
) -> None:
    if not 0.0 < conserve_fraction < guard_fraction <= 1.0:
        raise ConfigurationError(
            "fractions must satisfy 0 < conserve < guard <= 1, got "
            f"{conserve_fraction}, {guard_fraction}"
        )


class PowerChiefConserveController(BaseController):
    """Stage-aware power conservation under a latency QoS."""

    name = "powerchief-conserve"

    def __init__(
        self,
        sim: Simulator,
        application: Application,
        command_center: CommandCenter,
        budget: PowerBudget,
        dvfs: DvfsActuator,
        qos_target_s: float,
        config: Optional[ControllerConfig] = None,
        conserve_fraction: float = 0.75,
        guard_fraction: float = 0.92,
    ) -> None:
        if qos_target_s <= 0.0:
            raise ConfigurationError(f"QoS target must be > 0, got {qos_target_s}")
        check_conserve_fractions(conserve_fraction, guard_fraction)
        super().__init__(sim, application, command_center, budget, dvfs, config)
        self.qos_target_s = float(qos_target_s)
        self.conserve_fraction = float(conserve_fraction)
        self.guard_fraction = float(guard_fraction)
        self.withdrawer = InstanceWithdrawer(
            self.identifier,
            utilization_threshold=self.config.withdraw_utilization,
        )

    def adjust(self, now: float) -> None:
        self.withdrawer.observe(self.application, now)
        latency = self.command_center.recent_latency_avg()
        if latency is None:
            self._skip("no recent queries to judge against the QoS target")
            return
        if latency > self.qos_target_s:
            self._restore_performance()
        elif latency > self.guard_fraction * self.qos_target_s:
            # Latency creeping toward the target: pre-emptively give the
            # bottleneck two levels back before the QoS is actually at
            # risk.
            self._soft_boost()
        elif latency > self.conserve_fraction * self.qos_target_s:
            self._skip(
                f"latency {latency:.4f}s inside hold band "
                f"[{self.conserve_fraction:.2f}, {self.guard_fraction:.2f}] x target"
            )
        else:
            self._conserve(now)
        self.withdrawer.checkpoint_all(self.application, now)

    # ------------------------------------------------------------------
    def _soft_boost(self) -> None:
        """Step the bottleneck back up before the target is breached."""
        ladder = self.budget.machine.ladder
        ranked = self.identifier.ranked(self.application)
        bottleneck = ranked[-1].instance
        if bottleneck.level >= ladder.max_level:
            self._skip(
                f"guard band: bottleneck {bottleneck.name} already at max level"
            )
            return
        target = min(ladder.max_level, bottleneck.level + 2)
        self.set_instance_level(bottleneck, target, reason="qos-guard")

    def _restore_performance(self) -> None:
        """QoS at risk: boost the bottleneck back toward full speed."""
        ladder = self.budget.machine.ladder
        ranked = self.identifier.ranked(self.application)
        bottleneck = ranked[-1].instance
        if bottleneck.level < ladder.max_level:
            self.set_instance_level(bottleneck, ladder.max_level, reason="qos-boost")
            return
        if self.budget.machine.free_core_count() > 0:
            model = self.budget.machine.power_model
            clone_cost = model.power_of_level(ladder, ladder.max_level)
            if self.budget.fits(clone_cost):
                self.launch_clone(bottleneck)
                return
        self._skip(
            f"bottleneck {bottleneck.name} at max level and no clone possible"
        )

    def _conserve(self, now: float) -> None:
        """Comfortable slack: squeeze the fastest instance of every stage.

        One conservation action per stage per interval: the stage-aware
        latency metrics make this safe (each stage donates only its own
        slack), and it is what lets PowerChief converge to deep savings
        while Pegasus's single uniform knob cannot.
        """
        ladder = self.budget.machine.ladder
        ranked = self.identifier.ranked(self.application)
        acted = False
        for stage in self.application.stages:
            stage_ranked = [
                entry for entry in ranked if entry.instance.stage_name == stage.name
            ]
            for entry in stage_ranked:
                instance = entry.instance
                can_withdraw = len(stage.running_instances()) > 1
                underutilized = (
                    self.withdrawer.utilization_of(instance, now)
                    < self.withdrawer.utilization_threshold
                )
                if can_withdraw and underutilized:
                    fastest_other = next(
                        other.instance
                        for other in stage_ranked
                        if other.instance is not instance
                        and other.instance.running
                    )
                    redirected = instance.waiting_count
                    stage.withdraw_instance(instance, redirect_to=fastest_other)
                    self._log(
                        InstanceWithdrawAction(
                            time=self.sim.now,
                            controller=self.name,
                            instance_name=instance.name,
                            stage_name=instance.stage_name,
                            redirected_jobs=redirected,
                        )
                    )
                    acted = True
                    break
                if instance.level > ladder.min_level:
                    self.set_instance_level(
                        instance, instance.level - 1, reason="conserve"
                    )
                    acted = True
                    break
        if not acted:
            self._skip("every instance already at the ladder floor")
