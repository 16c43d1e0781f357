"""SARIF 2.1.0 export: document shape, codeFlows, and the validator
the CI smoke job runs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import ALL_RULES, lint_paths
from repro.lint.flow.sarif import (
    SARIF_VERSION,
    to_sarif,
    validate_sarif,
)

FIXTURES = Path(__file__).parent / "fixtures"
FLOW = FIXTURES / "flow"


def _flow_run(package: str):
    run, _ = lint_paths(
        [FLOW / package], ALL_RULES, root=FIXTURES, flow=True
    )
    return run


class TestExport:
    def test_document_shape_and_version(self):
        doc = to_sarif(_flow_run("rep010_bad"))
        assert doc["version"] == SARIF_VERSION
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        (sarif_run,) = doc["runs"]
        assert sarif_run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in sarif_run["tool"]["driver"]["rules"]]
        assert {"REP002", "REP008", "REP010"} <= set(rule_ids)
        assert "REP009" not in rule_ids

    def test_interprocedural_trace_becomes_a_code_flow(self):
        doc = to_sarif(_flow_run("rep010_bad"))
        results = doc["runs"][0]["results"]
        assert results, "expected REP010 findings in the bad fixture"
        flows = [r for r in results if r.get("codeFlows")]
        assert flows, "trace-bearing findings must carry codeFlows"
        thread = flows[0]["codeFlows"][0]["threadFlows"][0]
        locations = thread["locations"]
        assert len(locations) >= 2
        for entry in locations:
            physical = entry["location"]["physicalLocation"]
            assert physical["artifactLocation"]["uri"]
            assert physical["region"]["startLine"] >= 1
            assert entry["location"]["message"]["text"]

    def test_clean_run_exports_empty_results(self):
        doc = to_sarif(_flow_run("rep009_ok"))
        assert doc["runs"][0]["results"] == []
        assert validate_sarif(doc) == []

    def test_export_round_trips_through_json(self):
        doc = to_sarif(_flow_run("rep008_bad"))
        assert validate_sarif(json.loads(json.dumps(doc))) == []


class TestValidator:
    def test_exported_document_validates(self):
        assert validate_sarif(to_sarif(_flow_run("rep010_bad"))) == []

    def test_wrong_version_is_rejected(self):
        doc = to_sarif(_flow_run("rep010_bad"))
        doc["version"] = "2.0.0"
        assert any("version" in e for e in validate_sarif(doc))

    def test_missing_runs_is_rejected(self):
        assert validate_sarif({"version": SARIF_VERSION, "runs": []})

    def test_result_without_message_is_rejected(self):
        doc = to_sarif(_flow_run("rep009_bad"))
        del doc["runs"][0]["results"][0]["message"]
        assert any("message" in e for e in validate_sarif(doc))

    def test_zero_start_line_is_rejected(self):
        doc = to_sarif(_flow_run("rep009_bad"))
        location = doc["runs"][0]["results"][0]["locations"][0]
        location["physicalLocation"]["region"]["startLine"] = 0
        assert any("startLine" in e for e in validate_sarif(doc))

    def test_non_object_document_is_rejected(self):
        assert validate_sarif([]) == ["document is not a JSON object"]


class TestCliSmoke:
    def test_module_validates_a_good_file_and_rejects_a_bad_one(
        self, tmp_path
    ):
        good = tmp_path / "good.sarif"
        good.write_text(
            json.dumps(to_sarif(_flow_run("rep010_bad"))), encoding="utf-8"
        )
        bad = tmp_path / "bad.sarif"
        bad.write_text(json.dumps({"version": "1.0"}), encoding="utf-8")

        ok = subprocess.run(
            [sys.executable, "-m", "repro.lint.flow.sarif", str(good)],
            capture_output=True,
            text=True,
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        assert "valid SARIF" in ok.stdout

        rejected = subprocess.run(
            [sys.executable, "-m", "repro.lint.flow.sarif", str(bad)],
            capture_output=True,
            text=True,
        )
        assert rejected.returncode == 1
