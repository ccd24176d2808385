"""Per-layer accounting: fired events by owning package, cProfile by package.

The layers are this repository's packages under ``src/repro/``
(``sim``, ``service``, ``workloads``, ``cluster``, ``core``, ``obs``,
``guard``, ``scenario``, ``serve``, ...); the top-level modules
(``units.py``, ``errors.py``, ``cli.py``) form the ``repro`` layer and
the benchmark's own files the ``bench`` layer.

Self time of code outside ``src/repro`` (builtins, the standard library)
is charged to the layer that called it, split by the per-caller
``tottime`` cProfile records, so the layers' self times sum to the
profile's total.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Callable

from repro.sim.process import PeriodicProcess

#: Event-count metric name per owning layer; other layers report
#: ``<layer>.events``.
EVENT_METRICS = {
    "service": "service.events",
    "workloads": "workloads.events",
    "core": "core.ticks",
    "cluster": "cluster.samples",
    "scenario": "scenario.samples",
}

_Key = tuple[str, int, str]


def module_layer(module: str) -> str:
    """The layer a dotted module name belongs to."""
    parts = module.split(".")
    if parts[0] != "repro":
        return "other"
    return parts[1] if len(parts) > 2 else "repro"


class EventCounter:
    """A ``Simulator`` event hook counting fired events per owning layer.

    An event's owner is the module of its callback; a
    :class:`~repro.sim.process.PeriodicProcess` tick is owned by the
    module of the callback the process wraps.
    """

    def __init__(self) -> None:
        self.by_layer: Counter[str] = Counter()

    def __call__(self, event: Any) -> None:
        action = event.action
        owner = getattr(action, "__self__", None)
        if isinstance(owner, PeriodicProcess):
            action = owner.callback
        self.by_layer[module_layer(getattr(action, "__module__", None) or "")] += 1

    def metrics(self) -> dict[str, int]:
        return {
            EVENT_METRICS.get(layer, f"{layer}.events"): count
            for layer, count in sorted(self.by_layer.items())
        }


def file_layer(filename: str, repro_root: str, bench_root: str) -> str | None:
    """The layer a profiled function's file belongs to, or ``None`` for
    code outside the repository (its time goes to its callers)."""
    if filename.startswith(repro_root):
        rest = filename[len(repro_root):]
        head, sep, _ = rest.partition(os.sep)
        return head if sep else "repro"
    if filename.startswith(bench_root):
        return "bench"
    return None


def profile_layers(
    stats: dict[_Key, tuple], repro_root: str, bench_root: str
) -> tuple[dict[str, float], dict[str, int], float]:
    """Group a ``pstats.Stats(...).stats`` table by layer.

    Returns ``(self_s, calls_in, total_s)``: self time per layer, calls
    entering each layer from another layer, and the profile's total self
    time.  ``calls_in`` attributes a call made through outside code (a
    builtin such as ``sorted`` invoking a key function) to whichever
    layers called that outside code, weighted by call counts so the
    count stays deterministic.
    """

    def owner(key: _Key) -> str | None:
        return file_layer(key[0], repro_root, bench_root)

    def make_shares(weight: Callable[[tuple], float]) -> Callable[[_Key], dict[str, float]]:
        """Layer shares of a function: 1.0 to its own layer, or for
        outside code its callers' shares weighted by ``weight(edge)``."""
        memo: dict[_Key, dict[str, float]] = {}
        active: set[_Key] = set()

        def shares(key: _Key) -> dict[str, float]:
            layer = owner(key)
            if layer is not None:
                return {layer: 1.0}
            if key in memo:
                return memo[key]
            active.add(key)
            # Recursive outside code (deepcopy, json encoding) splits
            # among its callers outside the recursion.
            edges = _weights(stats[key][4] if key in stats else {}, weight, active)
            result: Counter[str] = Counter()
            for caller, fraction in edges.items():
                for layer, share in shares(caller).items():
                    result[layer] += share * fraction
            active.discard(key)
            memo[key] = dict(result) if result else {"other": 1.0}
            return memo[key]

        return shares

    # Past the first hop, cumulative time splits an outside function's
    # cost across its own callers; calls are split by call counts.
    time_shares = make_shares(lambda edge: edge[3])
    count_shares = make_shares(lambda edge: float(edge[1]))

    self_s: Counter[str] = Counter()
    calls_in: Counter[str] = Counter()
    total_s = 0.0
    # The profiler lists functions in address order, which differs from
    # process to process; a sorted walk keeps the counts reproducible.
    for key, (_cc, _nc, tottime, _ct, callers) in sorted(stats.items()):
        total_s += tottime
        layer = owner(key)
        if layer is not None:
            self_s[layer] += tottime
            for caller, edge in sorted(callers.items()):
                calls_in[layer] += edge[1] * (1.0 - count_shares(caller).get(layer, 0.0))
            continue
        split = _weights(callers, lambda edge: edge[2], set())
        for caller, fraction in split.items():
            for caller_layer, share in time_shares(caller).items():
                self_s[caller_layer] += tottime * fraction * share
        if not split:
            self_s["other"] += tottime
    return dict(self_s), {k: round(v) for k, v in calls_in.items() if round(v)}, total_s


def _weights(
    callers: dict[_Key, tuple], weight: Callable[[tuple], float], skip: set[_Key]
) -> dict[_Key, float]:
    """Normalised per-caller weights, falling back to call counts when
    every weight is zero (a function too quick for the timer)."""
    edges = {caller: edge for caller, edge in sorted(callers.items()) if caller not in skip}
    for measure in (weight, lambda edge: float(edge[1])):
        total = sum(measure(edge) for edge in edges.values())
        if total > 0.0:
            return {caller: measure(edge) / total for caller, edge in edges.items()}
    return {}
