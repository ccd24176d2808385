"""Result export: experiment results as plain dicts / JSON files.

Experiment campaigns are cheap to re-run but their outputs should be
archivable and diffable; these helpers flatten the result dataclasses
(including action logs and timeline samples) into JSON-serialisable
structures.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

from repro.core.actions import (
    ActionRecord,
    FrequencyChangeAction,
    InstanceLaunchAction,
    InstanceWithdrawAction,
    SkipAction,
)
from repro.errors import ExperimentError
from repro.scenario.results import (
    QosRunResult,
    RunResult,
    ShardResult,
    ShardedRunResult,
)
from repro.scenario.sampling import QosSample, StageSnapshot, StateSample
from repro.util.percentile import LatencySummary

__all__ = [
    "run_result_to_dict",
    "run_result_from_dict",
    "qos_result_to_dict",
    "qos_result_from_dict",
    "sharded_result_to_dict",
    "sharded_result_from_dict",
    "scenario_payload",
    "scenario_result_from_payload",
    "write_json",
]

_ACTION_TYPES: dict[str, type[ActionRecord]] = {
    cls.__name__: cls
    for cls in (
        FrequencyChangeAction,
        InstanceLaunchAction,
        InstanceWithdrawAction,
        SkipAction,
    )
}


def _action_to_dict(action: Any) -> dict[str, Any]:
    payload = dataclasses.asdict(action)
    payload["type"] = type(action).__name__
    return payload


def _action_from_dict(payload: dict[str, Any]) -> ActionRecord:
    fields = dict(payload)
    type_name = fields.pop("type", None)
    try:
        action_type = _ACTION_TYPES[type_name]
    except KeyError:
        raise ExperimentError(f"unknown action type {type_name!r}") from None
    return action_type(**fields)


def _state_sample_from_dict(payload: dict[str, Any]) -> StateSample:
    stages = tuple(
        StageSnapshot(
            stage_name=stage["stage_name"],
            instance_count=stage["instance_count"],
            frequencies=tuple(
                (name, freq) for name, freq in stage["frequencies"]
            ),
            queue_length=stage["queue_length"],
        )
        for stage in payload["stages"]
    )
    return StateSample(
        time=payload["time"],
        stages=stages,
        total_power_watts=payload["total_power_watts"],
    )


def run_result_to_dict(result: RunResult) -> dict[str, Any]:
    """A latency-mitigation run as a JSON-serialisable dict."""
    return {
        "app": result.app,
        "policy": result.policy,
        "duration_s": result.duration_s,
        "queries_submitted": result.queries_submitted,
        "queries_completed": result.queries_completed,
        "latency": dataclasses.asdict(result.latency),
        "average_power_watts": result.average_power_watts,
        "actions": [_action_to_dict(action) for action in result.actions],
        "state_samples": [
            dataclasses.asdict(sample) for sample in result.state_samples
        ],
    }


def run_result_from_dict(payload: dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`run_result_to_dict` output.

    The JSON round trip is lossless: ``run_result_from_dict(json.loads(
    json.dumps(run_result_to_dict(result)))) == result``, which is what
    lets the experiment cache hand back cached cells as first-class
    results.
    """
    return RunResult(
        app=payload["app"],
        policy=payload["policy"],
        duration_s=payload["duration_s"],
        queries_submitted=payload["queries_submitted"],
        queries_completed=payload["queries_completed"],
        latency=LatencySummary(**payload["latency"]),
        average_power_watts=payload["average_power_watts"],
        actions=tuple(
            _action_from_dict(action) for action in payload["actions"]
        ),
        state_samples=tuple(
            _state_sample_from_dict(sample)
            for sample in payload["state_samples"]
        ),
    )


def qos_result_to_dict(result: QosRunResult) -> dict[str, Any]:
    """A QoS-mode run as a JSON-serialisable dict."""
    return {
        "app": result.app,
        "policy": result.policy,
        "duration_s": result.duration_s,
        "qos_target_s": result.qos_target_s,
        "reference_power_watts": result.reference_power_watts,
        "queries_submitted": result.queries_submitted,
        "queries_completed": result.queries_completed,
        "latency": dataclasses.asdict(result.latency),
        "average_power_fraction": result.average_power_fraction,
        "power_saving_fraction": result.power_saving_fraction,
        "violation_fraction": result.violation_fraction,
        "actions": [_action_to_dict(action) for action in result.actions],
        "qos_samples": [dataclasses.asdict(sample) for sample in result.qos_samples],
    }


def qos_result_from_dict(payload: dict[str, Any]) -> QosRunResult:
    """Rebuild a :class:`QosRunResult` from :func:`qos_result_to_dict` output."""
    return QosRunResult(
        app=payload["app"],
        policy=payload["policy"],
        duration_s=payload["duration_s"],
        qos_target_s=payload["qos_target_s"],
        reference_power_watts=payload["reference_power_watts"],
        queries_submitted=payload["queries_submitted"],
        queries_completed=payload["queries_completed"],
        latency=LatencySummary(**payload["latency"]),
        average_power_fraction=payload["average_power_fraction"],
        violation_fraction=payload["violation_fraction"],
        actions=tuple(
            _action_from_dict(action) for action in payload["actions"]
        ),
        qos_samples=tuple(
            QosSample(
                time=sample["time"],
                latency_fraction=sample["latency_fraction"],
                power_fraction=sample["power_fraction"],
            )
            for sample in payload["qos_samples"]
        ),
    )


def sharded_result_to_dict(result: ShardedRunResult) -> dict[str, Any]:
    """A sharded latency run as a JSON-serialisable dict."""
    return {
        "app": result.app,
        "policy": result.policy,
        "duration_s": result.duration_s,
        "n_shards": result.n_shards,
        "splitter": result.splitter,
        "queries_submitted": result.queries_submitted,
        "queries_completed": result.queries_completed,
        "latency": dataclasses.asdict(result.latency),
        "average_power_watts": result.average_power_watts,
        "shards": [
            {
                "index": shard.index,
                "queries_completed": shard.queries_completed,
                "latency": (
                    None
                    if shard.latency is None
                    else dataclasses.asdict(shard.latency)
                ),
                "average_power_watts": shard.average_power_watts,
                "actions": [_action_to_dict(action) for action in shard.actions],
            }
            for shard in result.shards
        ],
    }


def sharded_result_from_dict(payload: dict[str, Any]) -> ShardedRunResult:
    """Rebuild a :class:`ShardedRunResult` from its dict form."""
    return ShardedRunResult(
        app=payload["app"],
        policy=payload["policy"],
        duration_s=payload["duration_s"],
        n_shards=payload["n_shards"],
        splitter=payload["splitter"],
        queries_submitted=payload["queries_submitted"],
        queries_completed=payload["queries_completed"],
        latency=LatencySummary(**payload["latency"]),
        average_power_watts=payload["average_power_watts"],
        shards=tuple(
            ShardResult(
                index=shard["index"],
                queries_completed=shard["queries_completed"],
                latency=(
                    None
                    if shard["latency"] is None
                    else LatencySummary(**shard["latency"])
                ),
                average_power_watts=shard["average_power_watts"],
                actions=tuple(
                    _action_from_dict(action) for action in shard["actions"]
                ),
            )
            for shard in payload["shards"]
        ),
    )


def scenario_payload(
    result: RunResult | QosRunResult | ShardedRunResult,
) -> dict[str, Any]:
    """A kind-tagged payload for whatever a scenario run returned.

    This is the one result format the campaign engine caches, ``repro
    run --json`` writes and the daemon's ``result`` command serves.
    """
    if isinstance(result, ShardedRunResult):
        return {"kind": "sharded", "result": sharded_result_to_dict(result)}
    if isinstance(result, QosRunResult):
        return {"kind": "qos", "result": qos_result_to_dict(result)}
    return {"kind": "latency", "result": run_result_to_dict(result)}


def scenario_result_from_payload(
    payload: dict[str, Any],
) -> RunResult | QosRunResult | ShardedRunResult:
    """Rebuild the result object a :func:`scenario_payload` dict encodes."""
    kind = payload.get("kind")
    if kind == "latency":
        return run_result_from_dict(payload["result"])
    if kind == "qos":
        return qos_result_from_dict(payload["result"])
    if kind == "sharded":
        return sharded_result_from_dict(payload["result"])
    raise ExperimentError(f"unknown scenario payload kind {kind!r}")


def write_json(path: str | Path, payload: Any) -> Path:
    """Write a payload as pretty-printed JSON; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
