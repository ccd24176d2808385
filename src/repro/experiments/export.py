"""Result export: experiment results as plain dicts / JSON files.

Experiment campaigns are cheap to re-run but their outputs should be
archivable and diffable.  One codec covers every result record: the
encoder turns each dataclass field into its JSON value (tagging each
:class:`~repro.core.actions.ActionRecord` with its ``type``), and the
decoder is derived once per class from the result dataclasses' field
types, so a new field or action record needs no codec edit.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import typing
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.core.actions import ActionRecord
from repro.errors import ExperimentError
from repro.scenario.results import QosRunResult, RunResult, ShardedRunResult

__all__ = [
    "scenario_payload",
    "scenario_result_from_payload",
    "write_json",
]

#: Payload ``kind`` -> the result record it encodes.
_KINDS: dict[str, type] = {
    "latency": RunResult,
    "qos": QosRunResult,
    "sharded": ShardedRunResult,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}

#: Field types a JSON value already holds as-is.
_JSON_SCALARS = (str, int, float, bool)

_Decoder = Callable[[Any], Any]


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def _encode(value: Any) -> Any:
    """A dataclass tree as JSON values: records become dicts, tuples lists."""
    if dataclasses.is_dataclass(value):
        payload = {
            name: _encode(getattr(value, name)) for name in _field_names(type(value))
        }
        if isinstance(value, ActionRecord):
            payload["type"] = type(value).__name__
        return payload
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


@functools.cache
def _decoder(hint: Any) -> Optional[_Decoder]:
    """The function rebuilding a ``hint``-typed value from its JSON form.

    ``None`` means JSON already holds the value as-is, so decoding does
    no work on it.  Built once per type.
    """
    if hint in _JSON_SCALARS:
        return None
    if hint is ActionRecord:
        by_name = {
            cls.__name__: _record_decoder(cls) for cls in hint.__subclasses__()
        }

        def decode_action(payload: dict[str, Any]) -> ActionRecord:
            try:
                decode = by_name[payload["type"]]
            except KeyError:
                raise ExperimentError(
                    f"unknown action type {payload.get('type')!r}"
                ) from None
            return decode(payload)

        return decode_action
    if dataclasses.is_dataclass(hint):
        return _record_decoder(hint)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        decode = _decoder(inner)
        if decode is None:
            return None
        return lambda value: None if value is None else decode(value)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            item = _decoder(args[0])
            if item is None:
                return tuple
            return lambda value: tuple(map(item, value))
        if all(_decoder(arg) is None for arg in args):
            return tuple
    raise TypeError(f"no JSON decoder for result field type {hint!r}")


@functools.cache
def _record_decoder(cls: type) -> _Decoder:
    """A decoder for one dataclass, from its resolved field types.

    One ``itemgetter`` call reads every field; only the fields JSON does
    not already hold go through a nested decoder.
    """
    hints = typing.get_type_hints(cls)
    names = _field_names(cls)
    # itemgetter returns a bare value, not a 1-tuple, for a single key.
    values = (
        operator.itemgetter(*names)
        if len(names) > 1
        else lambda payload: (payload[names[0]],)
    )
    nested = [
        (index, decode)
        for index, decode in enumerate(_decoder(hints[name]) for name in names)
        if decode is not None
    ]
    if not nested:
        return lambda payload: cls(*values(payload))

    def decode_record(payload: dict[str, Any]) -> Any:
        fields = list(values(payload))
        for index, decode in nested:
            fields[index] = decode(fields[index])
        return cls(*fields)

    return decode_record


def scenario_payload(
    result: RunResult | QosRunResult | ShardedRunResult,
) -> dict[str, Any]:
    """A kind-tagged payload for whatever a scenario run returned.

    This is the one result format the campaign engine caches, ``repro
    run --json`` writes and the daemon's ``result`` command serves; its
    ``result`` member is what ``repro latency``/``qos --json`` write.
    """
    body = _encode(result)
    if isinstance(result, QosRunResult):
        body["power_saving_fraction"] = result.power_saving_fraction
    return {"kind": _KIND_OF[type(result)], "result": body}


def scenario_result_from_payload(
    payload: dict[str, Any],
) -> RunResult | QosRunResult | ShardedRunResult:
    """Rebuild the result object a :func:`scenario_payload` dict encodes.

    The JSON round trip is lossless: ``scenario_result_from_payload(
    json.loads(json.dumps(scenario_payload(result)))) == result``, which
    is what lets the experiment cache hand back cached cells as
    first-class results.
    """
    kind = payload.get("kind")
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ExperimentError(f"unknown scenario payload kind {kind!r}") from None
    return _record_decoder(cls)(payload["result"])


def write_json(path: str | Path, payload: Any) -> Path:
    """Write a payload as pretty-printed JSON; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
