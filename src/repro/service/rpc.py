"""A simulated RPC fabric (the Apache Thrift stand-in).

Section 3: "Service instances across stages can run in distributed way
and communicate with command center as well as each other through remote
procedure call (RPC)."  The prototype used Apache Thrift (Section 7.1);
in the simulation an :class:`RpcFabric` carries the same traffic: each
``send`` delivers a callback after the configured one-way latency, and
per-link message counters make the communication overhead measurable —
including the Section-4.1 claim that the query-carried statistics design
needs only one report per query.

The paper's evaluation sets network delay to zero ("the network delays
are not considered in our study"), which is the default here too.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError
from repro.units import exactly
from repro.sim.engine import Simulator
from repro.sim.events import EventPriority
from repro.sim.rng import SeededStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.obs.metrics import MetricsRegistry

__all__ = ["RpcFabric"]


class RpcFabric:
    """Message transport between stages, users and the command center."""

    def __init__(
        self,
        sim: Simulator,
        latency_s: float = 0.0,
    ) -> None:
        if latency_s < 0.0:
            raise ConfigurationError(f"latency must be >= 0, got {latency_s}")
        self.sim = sim
        self.latency_s = float(latency_s)
        self._messages = 0
        self._messages_lost = 0
        self._registry: Optional["MetricsRegistry"] = None
        self._links: Counter[tuple[str, str]] = Counter()
        self._fault_until = 0.0
        self._fault_extra_delay_s = 0.0
        self._fault_loss_probability = 0.0
        self._fault_stream: Optional[SeededStream] = None
        self._fault_retransmit_timeout_s = 0.1

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def inject_fault(
        self,
        until_s: float,
        extra_delay_s: float = 0.0,
        loss_probability: float = 0.0,
        stream: Optional[SeededStream] = None,
        retransmit_timeout_s: float = 0.1,
    ) -> None:
        """Degrade the fabric until ``until_s``: extra latency and/or loss.

        Loss is modelled the way a reliable transport experiences it:
        each transmission is lost with ``loss_probability`` and costs one
        ``retransmit_timeout_s`` before the retry, so a lossy window slows
        hops down (and counts :attr:`messages_lost`) but never drops a
        message outright — the simulated application, like one on TCP,
        keeps its delivery guarantee and the zero-orphan invariant holds.
        """
        if extra_delay_s < 0.0:
            raise ConfigurationError(
                f"extra delay must be >= 0, got {extra_delay_s}"
            )
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        if loss_probability > 0.0 and stream is None:
            raise ConfigurationError("loss probability requires an rng stream")
        if retransmit_timeout_s <= 0.0:
            raise ConfigurationError(
                f"retransmit timeout must be > 0, got {retransmit_timeout_s}"
            )
        self._fault_until = max(self._fault_until, float(until_s))
        self._fault_extra_delay_s = float(extra_delay_s)
        self._fault_loss_probability = float(loss_probability)
        self._fault_stream = stream
        self._fault_retransmit_timeout_s = float(retransmit_timeout_s)

    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, deliver: Callable[[], None]) -> None:
        """Send one message; ``deliver`` runs after the one-way latency."""
        if not src or not dst:
            raise ConfigurationError("src and dst endpoints must be non-empty")
        self._messages += 1
        self._links[(src, dst)] += 1
        delay = self.latency_s
        if self.sim.now < self._fault_until:
            delay += self._fault_extra_delay_s
            if self._fault_loss_probability > 0.0:
                assert self._fault_stream is not None
                # Geometric retransmission, capped so a pathological draw
                # sequence cannot wedge the simulation.
                for _ in range(20):
                    if (
                        self._fault_stream.random()
                        >= self._fault_loss_probability
                    ):
                        break
                    self._messages_lost += 1
                    delay += self._fault_retransmit_timeout_s
        if self._registry is not None:
            self._registry.counter(
                "repro_rpc_messages_total", "Messages carried by the fabric"
            ).inc(src=src, dst=dst)
            if delay > 0.0:
                self._registry.counter(
                    "repro_rpc_hop_seconds_total",
                    "Cumulative one-way transit time paid on the fabric",
                ).inc(delay)
        if exactly(delay, 0.0):
            deliver()
        else:
            self.sim.schedule(delay, deliver, priority=EventPriority.NORMAL)

    # ------------------------------------------------------------------
    def attach_registry(self, registry: "MetricsRegistry") -> None:
        """Route per-link message counts and hop time into a registry."""
        self._registry = registry

    # ------------------------------------------------------------------
    @property
    def messages_sent(self) -> int:
        """Total messages carried by the fabric."""
        return self._messages

    @property
    def messages_lost(self) -> int:
        """Transmissions lost to injected RPC loss (all were retransmitted)."""
        return self._messages_lost

    def link_count(self, src: str, dst: str) -> int:
        """Messages sent over one directed link."""
        return self._links[(src, dst)]

    def links(self) -> dict[tuple[str, str], int]:
        """All directed links and their message counts."""
        return dict(self._links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RpcFabric(latency={self.latency_s}s, "
            f"{self._messages} messages over {len(self._links)} links)"
        )
