"""The declarative scenario layer: one spec for every way a stack runs.

A :class:`ScenarioSpec` is the single description of one experiment —
application, policy, load trace, duration/drain, seed, budget and
frequency, allocation, controller configuration, contention, chaos plan,
shard count and splitter, observability switches.  It is frozen,
hashable, built from primitives only, and JSON round-trippable, so the
same value serves three masters at once:

* the :class:`~repro.scenario.builder.StackBuilder`, which assembles and
  drives exactly the stack a spec describes — every figure, CLI run and
  example builds a spec and hands it over;
* the parallel cell engine, whose content-addressed cache keys on
  :meth:`ScenarioSpec.digest`;
* the CLI (``repro run --scenario spec.json``), which loads a spec
  straight from a file and runs it — sharded, chaos-armed, cached.

Every field describes the run completely: a trace or contention model
the spec cannot name, an unknown app or QoS deployment, and an
allocation that does not name each of the app's stages once are refused
when the spec is made, so a spec that validates always runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError, FrequencyError
from repro.cluster.frequency import HASWELL_LADDER
from repro.cluster.contention import (
    ContentionModel,
    LinearContention,
    NoContention,
)
from repro.core.conserve import check_conserve_fractions
from repro.core.controller import ControllerConfig
from repro.core.metrics import MetricKind
from repro.core.pegasus import check_hold_fraction
from repro.faults.plan import FaultPlan
from repro.guard.config import GuardConfig, guard_from_spec, guard_to_spec
from repro.obs.slo import check_attainment_goal, check_slo_target, check_slo_window
from repro.obs.stream import check_stream_interval
from repro.scenario.config import TABLE3_SETUPS, app_stage_names
from repro.service.command_center import check_e2e_window
from repro.workloads.loadgen import (
    ConstantLoad,
    DiurnalLoad,
    LoadTrace,
    PiecewiseLoad,
)

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "LATENCY_POLICIES",
    "QOS_POLICIES",
    "StageAllocation",
    "ScenarioSpec",
    "trace_to_spec",
    "build_trace",
    "contention_to_spec",
    "contention_from_spec",
    "controller_to_spec",
    "controller_from_spec",
    "chaos_to_spec",
]

#: Bumped whenever the spec's canonical dict layout changes; part of the
#: digest, so a format change can never alias an old cache entry.
SCENARIO_FORMAT_VERSION = 1

#: Latency-mitigation policies by name (Sections 8.2/8.3).
LATENCY_POLICIES = ("static", "freq-boost", "inst-boost", "powerchief")

#: QoS-mode policies by name (Section 8.4).
QOS_POLICIES = ("baseline", "pegasus", "powerchief")

_KINDS = ("latency", "qos")

_TRACE_KINDS = ("constant", "piecewise", "diurnal")

_CONTENTION_KINDS = ("none", "linear")

_SPLITTERS = ("round-robin", "least-in-flight")

_OBSERVE_PILLARS = (
    "trace",
    "metrics",
    "audit",
    "attribution",
    "slo",
    "energy",
    "stream",
)

_SCALAR_TYPES = (bool, int, float, str, type(None))

_CONTROLLER_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ControllerConfig)
)

_GUARD_FIELDS = frozenset(f.name for f in dataclasses.fields(GuardConfig))

#: The numeric options the builder reads, each mapped to the range check
#: of the component that reads it: the QoS controller knobs, then the
#: accounting-plane knobs the observability bundle consumes.  A spec
#: calls each check once, with the options mapped to it as keyword
#: arguments, so the conserve controller's two fractions are checked
#: against each other, a missing one at its default.
_NUMERIC_OPTIONS: dict[str, Callable[..., None]] = {
    "hold_fraction": check_hold_fraction,
    "conserve_fraction": check_conserve_fractions,
    "guard_fraction": check_conserve_fractions,
    "e2e_window_s": check_e2e_window,
    "slo_target_s": check_slo_target,
    "slo_attainment": check_attainment_goal,
    "slo_window_s": check_slo_window,
    "stream_interval_s": check_stream_interval,
}

#: Options a QoS scenario accepts.
_QOS_OPTIONS = _NUMERIC_OPTIONS.keys() | {"stream_path"}


@dataclass(frozen=True)
class StageAllocation:
    """A fixed (instance count, ladder level) deployment for one stage.

    The level indexes :data:`~repro.cluster.frequency.HASWELL_LADDER`,
    the ladder every machine the builder makes runs on.
    """

    count: int
    level: int

    def __post_init__(self) -> None:
        if isinstance(self.count, bool) or not isinstance(self.count, int):
            raise ConfigurationError(
                f"count must be an integer, got {self.count!r}"
            )
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        try:
            HASWELL_LADDER.validate_level(self.level)
        except FrequencyError as error:
            raise ConfigurationError(f"allocation {error}") from None


# ----------------------------------------------------------------------
# Trace specs: load traces as primitive tuples
# ----------------------------------------------------------------------
def trace_to_spec(trace: LoadTrace) -> tuple:
    """A load trace as a hashable tuple of primitives.

    Only the built-in trace families are supported; any other trace class
    has no stable content address and is refused.
    """
    if isinstance(trace, ConstantLoad):
        return ("constant", trace.rate_qps)
    if isinstance(trace, PiecewiseLoad):
        return ("piecewise", trace.segments)
    if isinstance(trace, DiurnalLoad):
        return (
            "diurnal",
            trace.base_qps,
            trace.amplitude,
            trace.period_s,
            trace.phase_rad,
        )
    raise ConfigurationError(
        f"cannot describe trace {trace!r} as a scenario spec; use a "
        f"constant, piecewise or diurnal trace"
    )


def build_trace(spec: Sequence) -> LoadTrace:
    """Rebuild the load trace a :func:`trace_to_spec` tuple describes."""
    if not spec:
        raise ConfigurationError("empty trace spec")
    kind = spec[0]
    if kind == "constant":
        return ConstantLoad(spec[1])
    if kind == "piecewise":
        return PiecewiseLoad(tuple((start, rate) for start, rate in spec[1]))
    if kind == "diurnal":
        return DiurnalLoad(*spec[1:])
    raise ConfigurationError(f"unknown trace spec kind {kind!r}")


# ----------------------------------------------------------------------
# Contention specs
# ----------------------------------------------------------------------
def contention_to_spec(model: Optional[ContentionModel]) -> tuple:
    """A contention model as a primitive tuple (``()`` = no model)."""
    if model is None:
        return ()
    if isinstance(model, NoContention):
        return ("none",)
    if isinstance(model, LinearContention):
        return ("linear", model.intensity)
    raise ConfigurationError(
        f"cannot describe contention model {model!r} as a scenario spec; "
        f"use NoContention or LinearContention"
    )


def contention_from_spec(spec: Sequence) -> Optional[ContentionModel]:
    """Rebuild the contention model a spec tuple describes."""
    if not spec:
        return None
    kind = spec[0]
    if kind == "none":
        return NoContention()
    if kind == "linear":
        return LinearContention(spec[1])
    raise ConfigurationError(f"unknown contention spec kind {kind!r}")


# ----------------------------------------------------------------------
# Controller specs
# ----------------------------------------------------------------------
def controller_to_spec(config: ControllerConfig) -> tuple[tuple[str, Any], ...]:
    """A controller config as a sorted tuple of primitive items."""
    payload = dataclasses.asdict(config)
    payload["metric_kind"] = config.metric_kind.value
    return tuple(sorted(payload.items()))


def controller_from_spec(
    spec: Sequence[tuple[str, Any]],
) -> ControllerConfig:
    """Rebuild the :class:`ControllerConfig` a spec tuple describes."""
    payload = dict(spec)
    if "metric_kind" in payload:
        try:
            payload["metric_kind"] = MetricKind(payload["metric_kind"])
        except ValueError:
            known = ", ".join(kind.value for kind in MetricKind)
            raise ConfigurationError(
                f"unknown metric kind {payload['metric_kind']!r} "
                f"(known: {known})"
            ) from None
    return ControllerConfig(**payload)


# ----------------------------------------------------------------------
# Chaos plan references
# ----------------------------------------------------------------------
def chaos_to_spec(
    plan: Union[None, str, FaultPlan, Mapping[str, Any]],
) -> Optional[str]:
    """Canonicalise a chaos reference: a built-in plan name, or a plan.

    Inline plans (a :class:`~repro.faults.plan.FaultPlan` or its dict
    form) are validated and stored as canonical JSON so two specs with
    the same plan always share a digest; built-in names stay names
    because their fault times scale with the scenario duration.
    """
    if plan is None:
        return None
    if isinstance(plan, FaultPlan):
        return _canonical(plan.to_dict())
    if isinstance(plan, Mapping):
        return _canonical(FaultPlan.from_dict(plan).to_dict())
    text = str(plan)
    if text.lstrip().startswith("{"):
        return _canonical(FaultPlan.from_dict(json.loads(text)).to_dict())
    from repro.faults.plan import named_plans

    if text not in named_plans():
        known = ", ".join(named_plans())
        raise ConfigurationError(
            f"unknown chaos plan {text!r} (built-ins: {known}; or give an "
            f"inline plan object)"
        )
    return text


def _check_allocation_stages(app: str, names: Sequence[Any]) -> None:
    """Refuse an allocation that does not name each of ``app``'s stages
    exactly once: the builder needs every stage, and would ignore any
    other entry."""
    stages = app_stage_names(app)
    problems = []
    missing = [stage for stage in stages if stage not in names]
    if missing:
        problems.append(f"no entry for {', '.join(missing)}")
    unknown = [str(name) for name in names if name not in stages]
    if unknown:
        problems.append(f"unknown {', '.join(unknown)}")
    repeated = [stage for stage in stages if names.count(stage) > 1]
    if repeated:
        problems.append(f"more than one entry for {', '.join(repeated)}")
    if problems:
        raise ConfigurationError(
            f"allocation for {app!r} must name each of its stages "
            f"({', '.join(stages)}) once: {'; '.join(problems)}"
        )


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _deep_tuple(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_deep_tuple(item) for item in value)
    return value


def _deep_list(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_deep_list(item) for item in value]
    return value


def _sorted_items(
    mapping: Union[Mapping[str, Any], Sequence[tuple[str, Any]]],
) -> tuple[tuple[str, Any], ...]:
    items = mapping.items() if isinstance(mapping, Mapping) else mapping
    return tuple(sorted((str(key), value) for key, value in items))


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment scenario, described entirely by primitives.

    Use the :meth:`latency` and :meth:`qos` constructors for the friendly
    API (live traces, allocation mappings, config objects); the raw
    fields hold only hashable primitives so the spec can be a dict key,
    cross a pickle boundary, and digest canonically.
    """

    kind: str
    app: str
    policy: str
    duration_s: float
    seed: int = 1
    #: Trace spec tuple (latency scenarios only).
    trace: tuple = ()
    #: Arrival rate (QoS scenarios only).
    rate_qps: float = 0.0
    #: Power budget; ``None`` keeps the Table-2 default.
    budget_watts: Optional[float] = None
    #: Initial DVFS frequency; ``None`` keeps the Table-2 default.
    initial_freq_ghz: Optional[float] = None
    #: ``((stage, count, level), ...)`` or ``None`` for one-per-stage.
    allocation: Optional[tuple[tuple[str, int, int], ...]] = None
    #: Controller-config overrides; ``()`` keeps the Table-2 config.
    controller: tuple[tuple[str, Any], ...] = ()
    #: Guard-config items; ``()`` disables controller supervision, any
    #: non-empty block wraps the policy in a SupervisedController.
    guard: tuple[tuple[str, Any], ...] = ()
    #: Contention spec tuple (``()`` = perfect isolation).
    contention: tuple = ()
    n_cores: int = 16
    sample_interval_s: float = 5.0
    stats_window_s: float = 60.0
    #: Extra simulated time past the last arrival for retries to settle.
    drain_s: float = 0.0
    #: Chaos plan reference: a built-in name or canonical plan JSON.
    chaos: Optional[str] = None
    #: Replica count; > 1 builds one stack per shard (Section 7.2), each
    #: with its own machine, budget and controller.
    shards: int = 1
    #: How a sharded run routes queries: ``round-robin`` or
    #: ``least-in-flight`` (the first shard with the fewest in flight).
    splitter: str = "least-in-flight"
    #: Observability pillars to arm: the core trio (trace/metrics/audit)
    #: plus the accounting plane (attribution/slo/energy/stream).
    observe: tuple[str, ...] = ()
    #: Extra scalar keyword options (QoS conserve fractions and the like).
    options: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r} "
                f"(known: {', '.join(_KINDS)})"
            )
        if not self.app:
            raise ConfigurationError("scenario needs a non-empty app")
        if self.kind == "latency":
            app_stage_names(self.app)  # refuses an unknown app
        elif self.app not in TABLE3_SETUPS:
            known = ", ".join(sorted(TABLE3_SETUPS))
            raise ConfigurationError(
                f"unknown QoS deployment {self.app!r} (known: {known})"
            )
        policies = LATENCY_POLICIES if self.kind == "latency" else QOS_POLICIES
        if self.policy not in policies:
            raise ConfigurationError(
                f"unknown policy {self.policy!r} (known: {', '.join(policies)})"
            )
        # NaN slips past every ordered comparison and inf past the
        # bounds, so each number is checked finite before its range.
        if not math.isfinite(self.duration_s) or self.duration_s <= 0.0:
            raise ConfigurationError(
                f"duration must be a finite number > 0, got {self.duration_s}"
            )
        if not math.isfinite(self.drain_s) or self.drain_s < 0.0:
            raise ConfigurationError(
                f"drain must be a finite number >= 0, got {self.drain_s}"
            )
        if self.n_cores < 1:
            raise ConfigurationError(f"n_cores must be >= 1, got {self.n_cores}")
        if (
            not math.isfinite(self.sample_interval_s)
            or self.sample_interval_s <= 0.0
        ):
            raise ConfigurationError(
                f"sample interval must be a finite number > 0, got "
                f"{self.sample_interval_s}"
            )
        if not math.isfinite(self.stats_window_s) or self.stats_window_s <= 0.0:
            raise ConfigurationError(
                f"stats window must be a finite number > 0, got "
                f"{self.stats_window_s}"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.splitter not in _SPLITTERS:
            raise ConfigurationError(
                f"unknown splitter {self.splitter!r} "
                f"(known: {', '.join(_SPLITTERS)})"
            )
        for pillar in self.observe:
            if pillar not in _OBSERVE_PILLARS:
                raise ConfigurationError(
                    f"unknown observability pillar {pillar!r} "
                    f"(known: {', '.join(_OBSERVE_PILLARS)})"
                )
        if "energy" in self.observe:
            if "metrics" not in self.observe:
                raise ConfigurationError(
                    "the 'energy' pillar needs 'metrics' too: power "
                    "telemetry only runs alongside a metrics registry"
                )
            if self.shards > 1:
                raise ConfigurationError(
                    "the 'energy' pillar is not available on sharded "
                    "scenarios (shards sample no power telemetry)"
                )
        if (
            "slo" in self.observe
            and self.kind == "latency"
            and dict(self.options).get("slo_target_s") is None
        ):
            raise ConfigurationError(
                "the 'slo' pillar on a latency scenario needs an "
                "slo_target_s option (qos scenarios default to the "
                "deployment's QoS target)"
            )
        if self.kind == "latency":
            if not self.trace:
                raise ConfigurationError("latency scenario needs a load trace")
            if self.trace[0] not in _TRACE_KINDS:
                raise ConfigurationError(
                    f"unknown trace spec kind {self.trace[0]!r} "
                    f"(known: {', '.join(_TRACE_KINDS)})"
                )
            # The trace constructors hold the value checks (finite,
            # positive rates; increasing segment starts).
            build_trace(self.trace)
        else:
            if not math.isfinite(self.rate_qps) or self.rate_qps <= 0.0:
                raise ConfigurationError(
                    f"rate must be a finite number > 0, got {self.rate_qps}"
                )
            for name, value in (
                ("trace", self.trace),
                ("budget_watts", self.budget_watts),
                ("initial_freq_ghz", self.initial_freq_ghz),
                ("allocation", self.allocation),
                ("controller", self.controller),
                ("guard", self.guard),
                ("contention", self.contention),
                ("chaos", self.chaos),
            ):
                if value not in ((), None):
                    raise ConfigurationError(
                        f"qos scenarios do not accept {name!r}"
                    )
            if self.shards != 1:
                raise ConfigurationError("qos scenarios cannot be sharded")
            if self.drain_s > 0.0:
                raise ConfigurationError("qos scenarios have no drain window")
            unknown = sorted({key for key, _ in self.options} - _QOS_OPTIONS)
            if unknown:
                raise ConfigurationError(
                    f"unknown qos options: {', '.join(unknown)}"
                )
        if self.contention and self.contention[0] not in _CONTENTION_KINDS:
            raise ConfigurationError(
                f"unknown contention spec kind {self.contention[0]!r} "
                f"(known: {', '.join(_CONTENTION_KINDS)})"
            )
        if self.budget_watts is not None and not (
            math.isfinite(self.budget_watts) and self.budget_watts > 0.0
        ):
            raise ConfigurationError(
                f"budget must be a finite number > 0, got {self.budget_watts}"
            )
        if self.initial_freq_ghz is not None:
            try:
                HASWELL_LADDER.level_of(self.initial_freq_ghz)
            except FrequencyError as error:
                raise ConfigurationError(f"initial frequency: {error}") from None
        if self.allocation is not None:
            for entry in self.allocation:
                if len(entry) != 3:
                    raise ConfigurationError(
                        f"allocation entries are (stage, count, level), "
                        f"got {entry!r}"
                    )
                StageAllocation(count=entry[1], level=entry[2])
            _check_allocation_stages(
                self.app, [entry[0] for entry in self.allocation]
            )
        for key, _ in self.controller:
            if key not in _CONTROLLER_FIELDS:
                known = ", ".join(sorted(_CONTROLLER_FIELDS))
                raise ConfigurationError(
                    f"unknown controller option {key!r} (known: {known})"
                )
        if self.controller:
            # Value checks up front too (finite intervals, integral
            # counts), so a bad block fails at spec time.
            controller_from_spec(self.controller)
        numeric: dict[str, float] = {}
        for key, value in self.options:
            if key in _NUMERIC_OPTIONS and value is not None:
                try:
                    finite = math.isfinite(float(value))
                except (TypeError, ValueError):
                    finite = False
                if not finite:
                    raise ConfigurationError(
                        f"option {key!r} must be a finite number, got {value!r}"
                    )
                numeric[key] = float(value)
        for check in dict.fromkeys(_NUMERIC_OPTIONS[key] for key in numeric):
            named = {
                key: value
                for key, value in numeric.items()
                if _NUMERIC_OPTIONS[key] is check
            }
            try:
                check(**named)
            except ConfigurationError as error:
                options = " and ".join(repr(key) for key in named)
                raise ConfigurationError(f"option {options}: {error}") from None
        for key, _ in self.guard:
            if key not in _GUARD_FIELDS:
                known = ", ".join(sorted(_GUARD_FIELDS))
                raise ConfigurationError(
                    f"unknown guard option {key!r} (known: {known})"
                )
        if self.guard:
            # Full validation (rung names, threshold ranges) up front, so
            # a bad guard block fails at spec time, not at build time.
            guard_from_spec(self.guard)
        for label, items in (
            ("controller", self.controller),
            ("guard", self.guard),
            ("options", self.options),
        ):
            for key, value in items:
                if not isinstance(value, _SCALAR_TYPES):
                    raise ConfigurationError(
                        f"{label} value {key!r} must be a scalar, got "
                        f"{type(value).__name__}"
                    )

    # ------------------------------------------------------------------
    # Friendly constructors
    # ------------------------------------------------------------------
    @classmethod
    def latency(
        cls,
        app: str,
        policy: str,
        trace: Union[LoadTrace, tuple],
        duration_s: float,
        seed: int = 1,
        budget_watts: Optional[float] = None,
        initial_freq_ghz: Optional[float] = None,
        controller: Union[ControllerConfig, Sequence, None] = None,
        guard: Union[GuardConfig, Mapping[str, Any], Sequence, None] = None,
        allocation: Optional[Mapping[str, StageAllocation]] = None,
        contention: Union[ContentionModel, tuple, None] = None,
        chaos: Union[None, str, FaultPlan, Mapping[str, Any]] = None,
        shards: int = 1,
        splitter: str = "least-in-flight",
        observe: Sequence[str] = (),
        n_cores: int = 16,
        sample_interval_s: float = 5.0,
        stats_window_s: float = 60.0,
        drain_s: float = 0.0,
        **options: Any,
    ) -> "ScenarioSpec":
        """A latency-mitigation scenario (Sections 8.2/8.3)."""
        trace_spec = trace if isinstance(trace, tuple) else trace_to_spec(trace)
        if isinstance(contention, tuple) or contention is None:
            contention_spec = contention if contention else ()
        else:
            contention_spec = contention_to_spec(contention)
        if controller is None:
            controller_spec: tuple[tuple[str, Any], ...] = ()
        elif isinstance(controller, ControllerConfig):
            controller_spec = controller_to_spec(controller)
        else:
            controller_spec = _sorted_items(controller)
        if guard is None:
            guard_spec: tuple[tuple[str, Any], ...] = ()
        elif isinstance(guard, GuardConfig):
            guard_spec = guard_to_spec(guard)
        else:
            guard_spec = _sorted_items(guard)
        allocation_spec = None
        if allocation is not None:
            allocation_spec = tuple(
                (name, alloc.count, alloc.level)
                for name, alloc in sorted(allocation.items())
            )
        return cls(
            kind="latency",
            app=app,
            policy=policy,
            duration_s=float(duration_s),
            seed=int(seed),
            trace=_deep_tuple(trace_spec),
            budget_watts=None if budget_watts is None else float(budget_watts),
            initial_freq_ghz=(
                None if initial_freq_ghz is None else float(initial_freq_ghz)
            ),
            allocation=allocation_spec,
            controller=controller_spec,
            guard=guard_spec,
            contention=_deep_tuple(contention_spec),
            n_cores=int(n_cores),
            sample_interval_s=float(sample_interval_s),
            stats_window_s=float(stats_window_s),
            drain_s=float(drain_s),
            chaos=chaos_to_spec(chaos),
            shards=int(shards),
            splitter=splitter,
            observe=tuple(observe),
            options=_sorted_items(options),
        )

    @classmethod
    def qos(
        cls,
        app: str,
        policy: str,
        rate_qps: float,
        duration_s: float,
        seed: int = 1,
        observe: Sequence[str] = (),
        n_cores: int = 16,
        sample_interval_s: float = 5.0,
        **options: Any,
    ) -> "ScenarioSpec":
        """A QoS-mode scenario; ``app`` names a Table-3 deployment."""
        return cls(
            kind="qos",
            app=app,
            policy=policy,
            duration_s=float(duration_s),
            seed=int(seed),
            rate_qps=float(rate_qps),
            n_cores=int(n_cores),
            sample_interval_s=float(sample_interval_s),
            observe=tuple(observe),
            options=_sorted_items(options),
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Short human-readable identity for progress and reports."""
        sharding = f" x{self.shards}" if self.shards > 1 else ""
        return f"{self.kind}:{self.app}/{self.policy}{sharding} seed={self.seed}"

    def allocation_mapping(self) -> Optional[dict[str, StageAllocation]]:
        """The allocation as the mapping the builder consumes."""
        if self.allocation is None:
            return None
        return {
            name: StageAllocation(count=count, level=level)
            for name, count, level in self.allocation
        }

    def controller_config(self) -> Optional[ControllerConfig]:
        """The controller config, or ``None`` when the default applies."""
        if not self.controller:
            return None
        return controller_from_spec(self.controller)

    def guard_config(self) -> Optional[GuardConfig]:
        """The guard config, or ``None`` when supervision is disabled.

        Note the asymmetry with :meth:`controller_config`: an empty
        ``guard`` block means *no supervision at all*, so enabling the
        guard with defaults needs at least one explicit key (the CLI and
        the :class:`~repro.guard.GuardConfig` constructor always emit
        the full block).
        """
        if not self.guard:
            return None
        return guard_from_spec(self.guard)

    def chaos_plan(self) -> Optional[FaultPlan]:
        """Materialise the chaos plan (built-in names scale to duration)."""
        if self.chaos is None:
            return None
        if self.chaos.lstrip().startswith("{"):
            return FaultPlan.from_dict(json.loads(self.chaos))
        from repro.faults.plan import load_plan

        return load_plan(self.chaos, self.duration_s)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The spec as a JSON-serialisable dict (the canonical form)."""
        chaos: Union[None, str, dict[str, Any]] = self.chaos
        if isinstance(chaos, str) and chaos.lstrip().startswith("{"):
            chaos = json.loads(chaos)
        return {
            "version": SCENARIO_FORMAT_VERSION,
            "kind": self.kind,
            "app": self.app,
            "policy": self.policy,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "trace": _deep_list(self.trace),
            "rate_qps": self.rate_qps,
            "budget_watts": self.budget_watts,
            "initial_freq_ghz": self.initial_freq_ghz,
            "allocation": _deep_list(self.allocation),
            "controller": dict(self.controller),
            "guard": dict(self.guard),
            "contention": _deep_list(self.contention),
            "n_cores": self.n_cores,
            "sample_interval_s": self.sample_interval_s,
            "stats_window_s": self.stats_window_s,
            "drain_s": self.drain_s,
            "chaos": chaos,
            "shards": self.shards,
            "splitter": self.splitter,
            "observe": list(self.observe),
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from its dict form.

        Unknown keys are an error (a typoed knob must not silently fall
        back to a default); missing keys take their defaults.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"scenario spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        payload = dict(data)
        version = payload.pop("version", SCENARIO_FORMAT_VERSION)
        if version != SCENARIO_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported scenario format version {version!r} "
                f"(this build speaks {SCENARIO_FORMAT_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        for required in ("kind", "app", "policy", "duration_s"):
            if required not in payload:
                raise ConfigurationError(
                    f"scenario spec needs a {required!r} key"
                )
        kwargs: dict[str, Any] = {}
        # A wrongly typed field (``"duration_s": null``) fails inside the
        # conversions or the validating constructor with a TypeError,
        # ValueError or LookupError; report it as the bad spec it is.
        try:
            for key, value in payload.items():
                if key in ("trace", "contention"):
                    kwargs[key] = _deep_tuple(value or ())
                elif key == "allocation":
                    kwargs[key] = None if value is None else _deep_tuple(value)
                elif key in ("controller", "guard", "options"):
                    kwargs[key] = _sorted_items(value or {})
                elif key == "observe":
                    kwargs[key] = tuple(value or ())
                elif key == "chaos":
                    kwargs[key] = chaos_to_spec(value)
                else:
                    kwargs[key] = value
            return cls(**kwargs)
        except (TypeError, ValueError, LookupError) as error:
            raise ConfigurationError(
                f"scenario spec has a wrongly typed field: {error}"
            ) from error

    def to_json(self, indent: Optional[int] = None) -> str:
        """The spec as JSON; canonical (sorted, compact) when unindented."""
        if indent is None:
            return _canonical(self.to_dict())
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ConfigurationError(
                f"scenario spec is not valid JSON: {error}"
            ) from error
        return cls.from_dict(data)

    def digest(self) -> str:
        """Stable SHA-256 content address of this scenario.

        Two specs share a digest exactly when their canonical dict forms
        match under the same :data:`SCENARIO_FORMAT_VERSION`; this is the
        key the content-addressed result cache files cells under.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()
