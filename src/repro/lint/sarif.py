"""SARIF 2.1.0 serialisation for lint reports.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/>`_ is the
interchange format GitHub code scanning ingests; ``repro lint --format
sarif`` emits one run with the full rule catalog as
``reportingDescriptor`` objects and one ``result`` per finding.

Each result carries a content-addressed ``partialFingerprints`` value::

    sha256("v1|rule|package_path|<stripped anchor line text>|occurrence")

so code scanning keeps tracking a finding across reformatting and line
moves, while a *new* finding of the same rule on the same line gets a
fresh occurrence index.  Occurrence indices count findings sharing
(rule, package path, line text) in source order.

The container has no jsonschema package, so :func:`validate_sarif`
implements a structural validator for the subset of the 2.1.0 schema the
emitter uses (and that code scanning rejects uploads over): required
top-level keys, rule/result/location shapes, the level enum, ruleIndex
consistency.  Tests run every emitted payload through it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path, PurePath
from typing import Any, Dict, List, Optional, Sequence

from repro.lint.findings import Finding, LintReport
from repro.lint.registry import CheckerRegistry

__all__ = ["SARIF_SCHEMA_URI", "report_to_sarif", "validate_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)

#: The synthetic rule the runner emits for unparsable files; it has no
#: registered checker, so the catalog needs a hand-written descriptor.
_PARSE_ERROR_RULE = {
    "id": "parse-error",
    "shortDescription": {"text": "file does not parse"},
    "help": {"text": "fix the syntax error; nothing else was checked"},
}

_LEVELS = frozenset({"none", "note", "warning", "error"})

_FINGERPRINT_VERSION = "v1"


class _LineCache:
    """Stripped source lines per file, read at most once."""

    def __init__(self) -> None:
        self._lines: Dict[str, List[str]] = {}

    def line(self, path: str, lineno: int) -> str:
        if path not in self._lines:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except OSError:
                text = ""
            self._lines[path] = text.splitlines()
        lines = self._lines[path]
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""


def compute_fingerprints(findings: Sequence[Finding]) -> List[str]:
    """Fingerprints parallel to ``findings`` (same order).

    Occurrence indices are assigned in source order — ``(line, column)``
    within each (rule, package path, anchor text) group — so a second
    violation appearing on a line that already has one hashes
    differently from the first.
    """
    cache = _LineCache()
    ordered = sorted(
        range(len(findings)),
        key=lambda i: (findings[i].line, findings[i].column, i),
    )
    counters: Dict[tuple, int] = {}
    fingerprints: List[str] = [""] * len(findings)
    for index in ordered:
        finding = findings[index]
        anchor = cache.line(finding.path, finding.line)
        group = (finding.rule, finding.package_path, anchor)
        occurrence = counters.get(group, 0)
        counters[group] = occurrence + 1
        payload = "|".join(
            (
                _FINGERPRINT_VERSION,
                finding.rule,
                finding.package_path,
                anchor,
                str(occurrence),
            )
        )
        fingerprints[index] = hashlib.sha256(
            payload.encode("utf-8")
        ).hexdigest()
    return fingerprints


def _rule_catalog(
    registry: Optional[CheckerRegistry], report: LintReport
) -> List[Dict[str, Any]]:
    """Every rule as a ``reportingDescriptor``, parse-error included."""
    rules: List[Dict[str, Any]] = []
    if registry is not None:
        for rule_id, description, scope in registry.describe():
            checker = registry.get(rule_id)
            descriptor: Dict[str, Any] = {
                "id": rule_id,
                "shortDescription": {"text": description or rule_id},
            }
            if checker.hint:
                descriptor["help"] = {"text": checker.hint}
            if scope:
                descriptor["properties"] = {"scope": list(scope)}
            rules.append(descriptor)
    known = {rule["id"] for rule in rules}
    fired = {finding.rule for finding in report.findings}
    for rule_id in sorted(fired - known):
        if rule_id == "parse-error":
            rules.append(dict(_PARSE_ERROR_RULE))
        else:
            rules.append(
                {"id": rule_id, "shortDescription": {"text": rule_id}}
            )
    rules.sort(key=lambda rule: rule["id"])
    return rules


def _result(
    finding: Finding, fingerprint: str, rule_index: Dict[str, int]
) -> Dict[str, Any]:
    message = finding.message
    if finding.hint:
        message += f" (hint: {finding.hint})"
    result: Dict[str, Any] = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": PurePath(finding.path).as_posix()
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": max(finding.column, 1),
                    },
                }
            }
        ],
        "partialFingerprints": {"reproLint/v1": fingerprint},
    }
    if finding.rule in rule_index:
        result["ruleIndex"] = rule_index[finding.rule]
    return result


def report_to_sarif(
    report: LintReport, registry: Optional[CheckerRegistry] = None
) -> Dict[str, Any]:
    """The full SARIF 2.1.0 payload for one lint run."""
    rules = _rule_catalog(registry, report)
    rule_index = {rule["id"]: index for index, rule in enumerate(rules)}
    fingerprints = compute_fingerprints(report.findings)
    results = [
        _result(finding, fingerprint, rule_index)
        for finding, fingerprint in zip(report.findings, fingerprints)
    ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/lint-rules"
                        ),
                        "rules": rules,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }


# ----------------------------------------------------------------------
# Structural validation (subset of the 2.1.0 schema).


def _expect(
    errors: List[str], condition: bool, where: str, message: str
) -> bool:
    if not condition:
        errors.append(f"{where}: {message}")
    return condition


def _validate_rule(rule: Any, where: str, errors: List[str]) -> None:
    if not _expect(errors, isinstance(rule, dict), where, "not an object"):
        return
    _expect(
        errors,
        isinstance(rule.get("id"), str) and bool(rule.get("id")),
        where,
        "missing non-empty string 'id'",
    )
    short = rule.get("shortDescription")
    if short is not None:
        _expect(
            errors,
            isinstance(short, dict) and isinstance(short.get("text"), str),
            where,
            "'shortDescription' must be an object with string 'text'",
        )


def _validate_result(
    result: Any, rule_count: int, where: str, errors: List[str]
) -> None:
    if not _expect(errors, isinstance(result, dict), where, "not an object"):
        return
    message = result.get("message")
    if _expect(errors, isinstance(message, dict), where, "missing 'message'"):
        _expect(
            errors,
            isinstance(message.get("text"), str),
            where,
            "'message.text' must be a string",
        )
    if "ruleId" in result:
        _expect(
            errors,
            isinstance(result["ruleId"], str),
            where,
            "'ruleId' must be a string",
        )
    if "ruleIndex" in result:
        index = result["ruleIndex"]
        _expect(
            errors,
            isinstance(index, int) and 0 <= index < rule_count,
            where,
            f"'ruleIndex' {index!r} out of range for {rule_count} rules",
        )
    if "level" in result:
        _expect(
            errors,
            result["level"] in _LEVELS,
            where,
            f"'level' {result['level']!r} not one of {sorted(_LEVELS)}",
        )
    for li, location in enumerate(result.get("locations", [])):
        lwhere = f"{where}.locations[{li}]"
        if not _expect(
            errors, isinstance(location, dict), lwhere, "not an object"
        ):
            continue
        physical = location.get("physicalLocation")
        if not _expect(
            errors,
            isinstance(physical, dict),
            lwhere,
            "missing 'physicalLocation'",
        ):
            continue
        artifact = physical.get("artifactLocation")
        if _expect(
            errors,
            isinstance(artifact, dict),
            lwhere,
            "missing 'artifactLocation'",
        ):
            uri = artifact.get("uri")
            _expect(
                errors,
                isinstance(uri, str) and "\\" not in uri,
                lwhere,
                "'artifactLocation.uri' must be a /-separated string",
            )
        region = physical.get("region")
        if region is not None and _expect(
            errors, isinstance(region, dict), lwhere, "'region' not an object"
        ):
            start = region.get("startLine")
            _expect(
                errors,
                isinstance(start, int) and start >= 1,
                lwhere,
                "'region.startLine' must be an int >= 1",
            )
            column = region.get("startColumn")
            if column is not None:
                _expect(
                    errors,
                    isinstance(column, int) and column >= 1,
                    lwhere,
                    "'region.startColumn' must be an int >= 1",
                )
    fingerprints = result.get("partialFingerprints")
    if fingerprints is not None and _expect(
        errors,
        isinstance(fingerprints, dict),
        where,
        "'partialFingerprints' must be an object",
    ):
        for key, value in fingerprints.items():
            _expect(
                errors,
                isinstance(key, str) and isinstance(value, str),
                where,
                "'partialFingerprints' entries must map strings to strings",
            )


def validate_sarif(payload: Any) -> List[str]:
    """Structural errors in a SARIF payload; empty means it conforms
    to the checked subset of the 2.1.0 schema."""
    errors: List[str] = []
    if not _expect(errors, isinstance(payload, dict), "$", "not an object"):
        return errors
    _expect(
        errors,
        payload.get("version") == SARIF_VERSION,
        "$.version",
        f"must be exactly {SARIF_VERSION!r}",
    )
    if "$schema" in payload:
        _expect(
            errors,
            isinstance(payload["$schema"], str),
            "$.$schema",
            "must be a string",
        )
    runs = payload.get("runs")
    if not _expect(errors, isinstance(runs, list), "$.runs", "must be a list"):
        return errors
    for ri, run in enumerate(runs):
        where = f"$.runs[{ri}]"
        if not _expect(errors, isinstance(run, dict), where, "not an object"):
            continue
        tool = run.get("tool")
        driver = tool.get("driver") if isinstance(tool, dict) else None
        if not _expect(
            errors,
            isinstance(driver, dict),
            where,
            "missing 'tool.driver'",
        ):
            continue
        _expect(
            errors,
            isinstance(driver.get("name"), str) and bool(driver.get("name")),
            where,
            "'tool.driver.name' must be a non-empty string",
        )
        rules = driver.get("rules", [])
        if _expect(
            errors,
            isinstance(rules, list),
            where,
            "'tool.driver.rules' must be a list",
        ):
            for qi, rule in enumerate(rules):
                _validate_rule(rule, f"{where}.rules[{qi}]", errors)
        results = run.get("results")
        if not _expect(
            errors,
            isinstance(results, list),
            where,
            "missing 'results' list",
        ):
            continue
        for ci, result in enumerate(results):
            _validate_result(
                result, len(rules), f"{where}.results[{ci}]", errors
            )
    return errors
