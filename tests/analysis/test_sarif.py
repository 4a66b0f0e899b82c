"""SARIF 2.1.0 export: document shape, determinism, and round-trip."""

import json

from repro.analysis.core import Finding
from repro.analysis import default_rules
from repro.analysis.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    findings_from_sarif,
    render_sarif,
    to_sarif,
)

FINDINGS = [
    Finding("src/a.py", 10, 5, "R2", "wall-clock",
            "time.time() in model code"),
    Finding("src/a.py", 44, 1, "R11", "tainted-sim-state",
            "argument 1 of timeout() carries wall-clock taint"),
    Finding("src/b.py", 3, 9, "R2", "wall-clock",
            "time.time() in model code"),
    Finding("src/c.py", 1, 1, "E0", "parse-error",
            "file does not parse: invalid syntax"),
]


class TestDocumentShape:
    def test_version_and_schema(self):
        document = to_sarif(FINDINGS)
        assert document["version"] == SARIF_VERSION == "2.1.0"
        assert document["$schema"] == SARIF_SCHEMA
        assert len(document["runs"]) == 1

    def test_driver_and_rule_metadata(self):
        document = to_sarif(FINDINGS, rules=default_rules())
        driver = document["runs"][0]["tool"]["driver"]
        assert driver["name"] == "simlint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted(ids, key=lambda c: (len(c), c))
        assert "R2" in ids and "E0" in ids

    def test_results_reference_rules_by_index(self):
        document = to_sarif(FINDINGS)
        run = document["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_parse_errors_are_errors_findings_are_warnings(self):
        document = to_sarif(FINDINGS)
        levels = {result["ruleId"]: result["level"]
                  for result in document["runs"][0]["results"]}
        assert levels["E0"] == "error"
        assert levels["R2"] == levels["R11"] == "warning"

    def test_locations_carry_line_and_column(self):
        document = to_sarif(FINDINGS)
        first = document["runs"][0]["results"][0]
        region = first["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 10, "startColumn": 5}


class TestRoundTrip:
    def test_findings_survive_a_round_trip(self):
        document = json.loads(render_sarif(FINDINGS))
        restored = findings_from_sarif(document)
        assert [f.to_dict() for f in restored] == \
               [f.to_dict() for f in FINDINGS]

    def test_empty_round_trip(self):
        assert findings_from_sarif(json.loads(render_sarif([]))) == []

    def test_render_is_deterministic(self):
        assert render_sarif(FINDINGS) == render_sarif(FINDINGS)

    def test_cli_emits_parseable_sarif(self, tmp_path):
        from repro.analysis.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\n\ndef stamp():\n"
                       "    return time.time()\n")
        import io
        import sys

        buffer = io.StringIO()
        stdout, sys.stdout = sys.stdout, buffer
        try:
            code = main([str(bad), "--format", "sarif"])
        finally:
            sys.stdout = stdout
        assert code == 1
        restored = findings_from_sarif(json.loads(buffer.getvalue()))
        assert [f.code for f in restored] == ["R2"]
