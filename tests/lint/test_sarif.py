"""SARIF 2.1.0 output: the payload code scanning ingests."""

from __future__ import annotations

import hashlib
import json
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import (
    default_registry,
    lint_paths,
    report_to_sarif,
    validate_sarif,
)

BAD_SET_LOOP = """\
def go(sim, items):
    pending = set(items)
    for item in pending:
        sim.schedule(1.0, item)
"""


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


class TestSarif:
    def test_payload_validates_and_carries_findings(self, tmp_path):
        write(tmp_path / "sim" / "a.py", BAD_SET_LOOP)
        report = lint_paths([tmp_path])
        payload = report_to_sarif(report, default_registry())
        assert validate_sarif(payload) == []
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-schema-2.1.0.json")
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        # The full catalog ships, including the flow-aware families.
        assert {
            "unit-flow",
            "resource-pairing",
            "unordered-iteration",
            "rng-escape",
            "observer-purity",
        } <= rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "unordered-iteration"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 3
        assert result["partialFingerprints"]["reproLint/v1"]
        index = result["ruleIndex"]
        assert run["tool"]["driver"]["rules"][index]["id"] == (
            "unordered-iteration"
        )

    def test_fingerprint_is_a_hash_of_the_anchor_line(self, tmp_path):
        write(tmp_path / "sim" / "a.py", BAD_SET_LOOP)
        payload = report_to_sarif(lint_paths([tmp_path]))
        (result,) = payload["runs"][0]["results"]
        anchor = "v1|unordered-iteration|sim/a.py|for item in pending:|0"
        assert result["partialFingerprints"] == {
            "reproLint/v1": hashlib.sha256(anchor.encode("utf-8")).hexdigest()
        }

    def test_validator_rejects_malformed_payloads(self):
        assert validate_sarif([]) != []
        assert validate_sarif({"version": "2.0.0", "runs": []}) != []
        bad_result = {
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {"driver": {"name": "x", "rules": []}},
                    "results": [
                        {
                            "message": {"text": "m"},
                            "level": "fatal",  # not a SARIF level
                            "ruleIndex": 3,  # out of range for 0 rules
                        }
                    ],
                }
            ],
        }
        errors = validate_sarif(bad_result)
        assert any("level" in e for e in errors)
        assert any("ruleIndex" in e for e in errors)

    def test_cli_sarif_format(self, tmp_path, capsys):
        write(tmp_path / "sim" / "a.py", BAD_SET_LOOP)
        assert main(["lint", "--format", "sarif", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert validate_sarif(payload) == []
