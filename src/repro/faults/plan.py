"""Fault plans: the declarative, serialisable schedule of injected faults.

A :class:`FaultPlan` is a named, immutable list of :class:`FaultSpec`
entries, each saying *what* goes wrong, *when* (absolute simulated time)
and *how hard*.  Plans are pure data — JSON round-trippable for the
``repro chaos --plan plan.json`` workflow — and all nondeterminism
(victim choice, noise draws) lives in the injector's dedicated seeded
stream, never in the plan itself.  Identical plan + identical seed ⇒
identical fault event log, the determinism property the acceptance tests
diff on.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union

from repro.errors import ConfigurationError

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "PlanValidationError",
    "named_plans",
    "load_plan",
]


class PlanValidationError(ConfigurationError):
    """A fault-plan document failed validation.

    ``path`` pinpoints the offending key in the JSON document with a
    ``specs[3].kind``-style key path, so a hand-edited plan file's error
    message says exactly which entry to fix.  Subclasses
    :class:`~repro.errors.ConfigurationError`, so existing handlers keep
    working.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class FaultKind(enum.Enum):
    """What the injector can break."""

    INSTANCE_CRASH = "instance-crash"
    INSTANCE_HANG = "instance-hang"
    INSTANCE_DEGRADE = "instance-degrade"
    TELEMETRY_DROPOUT = "telemetry-dropout"
    TELEMETRY_NOISE = "telemetry-noise"
    RPC_DELAY = "rpc-delay"
    RPC_LOSS = "rpc-loss"


#: Kinds whose effect spans a window and therefore need ``duration_s``.
_WINDOWED = frozenset(
    {
        FaultKind.INSTANCE_HANG,
        FaultKind.INSTANCE_DEGRADE,
        FaultKind.TELEMETRY_DROPOUT,
        FaultKind.TELEMETRY_NOISE,
        FaultKind.RPC_DELAY,
        FaultKind.RPC_LOSS,
    }
)

#: Kinds that target a service instance (and accept a ``stage`` filter).
_INSTANCE_TARGETED = frozenset(
    {
        FaultKind.INSTANCE_CRASH,
        FaultKind.INSTANCE_HANG,
        FaultKind.INSTANCE_DEGRADE,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at_s`` is the absolute injection time.  ``stage`` restricts
    instance-targeted faults to one stage (``None`` = any stage; the
    victim is drawn from the injector's seeded stream either way).
    ``duration_s`` is the fault window for windowed kinds (hang until
    repair, degrade until restore, telemetry/RPC windows).
    ``magnitude`` is kind-specific: the degrade work-rate factor in
    ``(0, 1]``, the telemetry noise fraction, the extra RPC delay in
    seconds, or the RPC loss probability in ``[0, 1)``.
    """

    kind: FaultKind
    at_s: float
    stage: Optional[str] = None
    duration_s: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        # NaN slips past every ordered comparison and infinity past the
        # range checks below, so each number is checked finite first.
        for name in ("at_s", "duration_s", "magnitude"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value}"
                )
        if self.at_s < 0.0:
            raise ConfigurationError(
                f"fault time must be >= 0, got {self.at_s}"
            )
        if self.kind in _WINDOWED and self.duration_s <= 0.0:
            raise ConfigurationError(
                f"{self.kind.value} needs a duration > 0, got {self.duration_s}"
            )
        if self.stage is not None and self.kind not in _INSTANCE_TARGETED:
            raise ConfigurationError(
                f"{self.kind.value} does not target a stage"
            )
        if self.kind is FaultKind.INSTANCE_DEGRADE and not (
            0.0 < self.magnitude <= 1.0
        ):
            raise ConfigurationError(
                f"degrade magnitude must be in (0, 1], got {self.magnitude}"
            )
        if self.kind is FaultKind.TELEMETRY_NOISE and self.magnitude <= 0.0:
            raise ConfigurationError(
                f"noise magnitude must be > 0, got {self.magnitude}"
            )
        if self.kind is FaultKind.RPC_DELAY and self.magnitude <= 0.0:
            raise ConfigurationError(
                f"rpc-delay magnitude (extra seconds) must be > 0, "
                f"got {self.magnitude}"
            )
        if self.kind is FaultKind.RPC_LOSS and not 0.0 < self.magnitude < 1.0:
            raise ConfigurationError(
                f"rpc-loss magnitude (probability) must be in (0, 1), "
                f"got {self.magnitude}"
            )

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind.value, "at_s": self.at_s}
        if self.stage is not None:
            data["stage"] = self.stage
        if self.duration_s > 0.0:
            data["duration_s"] = self.duration_s
        if self.magnitude > 0.0:
            data["magnitude"] = self.magnitude
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str = "spec") -> "FaultSpec":
        """Parse one spec; ``path`` prefixes validation-error key paths."""
        if not isinstance(data, Mapping):
            raise PlanValidationError(
                path, f"fault spec must be an object, got {data!r}"
            )
        if "kind" not in data:
            known = ", ".join(k.value for k in FaultKind)
            raise PlanValidationError(
                f"{path}.kind", f"missing; must be one of: {known}"
            )
        try:
            kind = FaultKind(data["kind"])
        except ValueError:
            known = ", ".join(k.value for k in FaultKind)
            raise PlanValidationError(
                f"{path}.kind",
                f"unknown kind {data['kind']!r}; must be one of: {known}",
            ) from None
        if "at_s" not in data:
            raise PlanValidationError(f"{path}.at_s", "missing")
        fields = {"at_s": data["at_s"]}
        for optional in ("duration_s", "magnitude"):
            if optional in data:
                fields[optional] = data[optional]
        numbers = {}
        for field_name, raw in fields.items():
            try:
                numbers[field_name] = float(raw)
            except (TypeError, ValueError):
                raise PlanValidationError(
                    f"{path}.{field_name}", f"must be a number, got {raw!r}"
                ) from None
        try:
            return cls(
                kind=kind,
                at_s=numbers["at_s"],
                stage=data.get("stage"),
                duration_s=numbers.get("duration_s", 0.0),
                magnitude=numbers.get("magnitude", 0.0),
            )
        except ConfigurationError as error:
            raise PlanValidationError(path, str(error)) from None


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered schedule of faults."""

    name: str
    specs: tuple[FaultSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("fault plan needs a non-empty name")

    def kinds(self) -> set[FaultKind]:
        return {spec.kind for spec in self.specs}

    @property
    def touches_rpc(self) -> bool:
        return bool(
            self.kinds() & {FaultKind.RPC_DELAY, FaultKind.RPC_LOSS}
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise PlanValidationError(
                "$", f"fault plan must be an object, got {data!r}"
            )
        for key in ("name", "specs"):
            if key not in data:
                raise PlanValidationError(
                    key, f"missing (document has: {sorted(data)})"
                )
        if not isinstance(data["name"], str) or not data["name"]:
            raise PlanValidationError(
                "name", f"must be a non-empty string, got {data['name']!r}"
            )
        if isinstance(data["specs"], (str, Mapping)) or not hasattr(
            data["specs"], "__iter__"
        ):
            raise PlanValidationError(
                "specs", f"must be a list of fault specs, got {data['specs']!r}"
            )
        return cls(
            name=data["name"],
            specs=tuple(
                FaultSpec.from_dict(s, path=f"specs[{i}]")
                for i, s in enumerate(data["specs"])
            ),
        )


# ----------------------------------------------------------------------
# Named plans (the chaos cookbook's off-the-shelf scenarios)
# ----------------------------------------------------------------------
def _crash_heavy(duration_s: float) -> FaultPlan:
    """A crash every ~1/8 of the run, starting after warm-up."""
    times = [duration_s * frac for frac in (0.2, 0.35, 0.5, 0.65, 0.8)]
    return FaultPlan(
        name="crash-heavy",
        specs=tuple(
            FaultSpec(kind=FaultKind.INSTANCE_CRASH, at_s=t) for t in times
        ),
    )


def _telemetry_dark(duration_s: float) -> FaultPlan:
    """Power telemetry dark for the middle 40 % of the run, noisy after."""
    return FaultPlan(
        name="telemetry-dark",
        specs=(
            FaultSpec(
                kind=FaultKind.TELEMETRY_DROPOUT,
                at_s=duration_s * 0.3,
                duration_s=duration_s * 0.4,
            ),
            FaultSpec(
                kind=FaultKind.TELEMETRY_NOISE,
                at_s=duration_s * 0.75,
                duration_s=duration_s * 0.2,
                magnitude=0.15,
            ),
        ),
    )


def _slow_instances(duration_s: float) -> FaultPlan:
    """Two degradation windows: one mild, one severe."""
    return FaultPlan(
        name="slow-instances",
        specs=(
            FaultSpec(
                kind=FaultKind.INSTANCE_DEGRADE,
                at_s=duration_s * 0.25,
                duration_s=duration_s * 0.25,
                magnitude=0.5,
            ),
            FaultSpec(
                kind=FaultKind.INSTANCE_DEGRADE,
                at_s=duration_s * 0.6,
                duration_s=duration_s * 0.2,
                magnitude=0.2,
            ),
        ),
    )


def _all_faults(duration_s: float) -> FaultPlan:
    """Every fault kind in one run — the zero-orphan acceptance scenario."""
    return FaultPlan(
        name="all-faults",
        specs=(
            FaultSpec(kind=FaultKind.INSTANCE_CRASH, at_s=duration_s * 0.2),
            FaultSpec(
                kind=FaultKind.INSTANCE_HANG,
                at_s=duration_s * 0.3,
                duration_s=duration_s * 0.15,
            ),
            FaultSpec(
                kind=FaultKind.INSTANCE_DEGRADE,
                at_s=duration_s * 0.4,
                duration_s=duration_s * 0.2,
                magnitude=0.3,
            ),
            FaultSpec(
                kind=FaultKind.TELEMETRY_DROPOUT,
                at_s=duration_s * 0.45,
                duration_s=duration_s * 0.2,
            ),
            FaultSpec(
                kind=FaultKind.TELEMETRY_NOISE,
                at_s=duration_s * 0.7,
                duration_s=duration_s * 0.15,
                magnitude=0.1,
            ),
            FaultSpec(
                kind=FaultKind.RPC_DELAY,
                at_s=duration_s * 0.5,
                duration_s=duration_s * 0.2,
                magnitude=0.05,
            ),
            FaultSpec(
                kind=FaultKind.RPC_LOSS,
                at_s=duration_s * 0.55,
                duration_s=duration_s * 0.2,
                magnitude=0.2,
            ),
            FaultSpec(kind=FaultKind.INSTANCE_CRASH, at_s=duration_s * 0.75),
        ),
    )


#: Plan builders by name; each takes the run duration and lays faults out
#: proportionally, so the same name works for a 2-minute smoke run and a
#: 20-minute campaign cell.
_NAMED_PLANS: dict[str, Callable[[float], FaultPlan]] = {
    "crash-heavy": _crash_heavy,
    "telemetry-dark": _telemetry_dark,
    "slow-instances": _slow_instances,
    "all-faults": _all_faults,
}


def named_plans() -> tuple[str, ...]:
    """The built-in plan names, sorted."""
    return tuple(sorted(_NAMED_PLANS))


def load_plan(name_or_path: Union[str, Path], duration_s: float) -> FaultPlan:
    """Resolve a plan: a built-in name, or a path to a plan JSON file."""
    key = str(name_or_path)
    builder = _NAMED_PLANS.get(key)
    if builder is not None:
        return builder(duration_s)
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        return FaultPlan.from_dict(json.loads(path.read_text()))
    known = ", ".join(named_plans())
    raise ConfigurationError(
        f"unknown fault plan {key!r}: not a built-in ({known}) and not an "
        f"existing .json file"
    )
