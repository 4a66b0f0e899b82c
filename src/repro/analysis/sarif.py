"""SARIF 2.1.0 export for simlint findings.

SARIF (Static Analysis Results Interchange Format) is the OASIS
standard CI systems ingest natively (GitHub code scanning, Azure
DevOps, VS Code SARIF viewers).  :func:`to_sarif` renders a finding
list as one SARIF ``run``; :func:`findings_from_sarif` parses it back,
which the round-trip test uses to prove no information is lost.

Only the stable core of the format is emitted — tool metadata, rule
metadata, and one ``result`` per finding with a physical location —
keeping the document small and deterministic (keys sorted by the JSON
encoder, findings pre-sorted by the analyzer).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.analysis.core import Finding

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA", "to_sarif", "render_sarif",
           "findings_from_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

#: Tool name advertised in the SARIF driver block.
_TOOL_NAME = "simlint"


def _rule_metadata(findings: Iterable[Finding],
                   rules: Optional[Iterable] = None) -> List[Dict]:
    """One reportingDescriptor per rule, sorted by id.

    ``rules`` may carry Rule instances of any family for richer metadata;
    rules only seen through findings fall back to code + name.
    """
    descriptors: Dict[str, Dict] = {}
    if rules is not None:
        for rule in rules:
            doc = (type(rule).__doc__ or "").strip().splitlines()
            descriptors[rule.code] = {
                "id": rule.code,
                "name": rule.name,
                "shortDescription": {
                    "text": doc[0] if doc else rule.name},
            }
    for finding in findings:
        descriptors.setdefault(finding.code, {
            "id": finding.code,
            "name": finding.name,
            "shortDescription": {"text": finding.name},
        })
    return [descriptors[code]
            for code in sorted(descriptors,
                               key=lambda c: (len(c), c))]


def to_sarif(findings: List[Finding],
             rules: Optional[Iterable] = None) -> Dict:
    """The findings as a SARIF 2.1.0 document (a JSON-ready dict)."""
    rule_meta = _rule_metadata(findings, rules)
    rule_index = {meta["id"]: i for i, meta in enumerate(rule_meta)}
    results = []
    for finding in findings:
        results.append({
            "ruleId": finding.code,
            "ruleIndex": rule_index[finding.code],
            "level": "error" if finding.code == "E0" else "warning",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                },
            }],
            # simlint extension: the rule slug, so a round trip loses
            # nothing (SARIF has no standard slot for it per-result).
            "properties": {"name": finding.name},
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": _TOOL_NAME,
                    "informationUri":
                        "https://example.invalid/docs/static_analysis",
                    "rules": rule_meta,
                },
            },
            "results": results,
        }],
    }


def render_sarif(findings: List[Finding],
                 rules: Optional[Iterable] = None) -> str:
    """The SARIF document as deterministic, pretty-printed JSON."""
    return json.dumps(to_sarif(findings, rules), indent=2,
                      sort_keys=True) + "\n"


def findings_from_sarif(document: Dict) -> List[Finding]:
    """Parse a simlint SARIF document back into Finding objects."""
    findings: List[Finding] = []
    for run in document.get("runs", ()):
        for result in run.get("results", ()):
            location = result["locations"][0]["physicalLocation"]
            region = location.get("region", {})
            findings.append(Finding(
                location["artifactLocation"]["uri"],
                int(region.get("startLine", 1)),
                int(region.get("startColumn", 1)),
                result["ruleId"],
                result.get("properties", {}).get("name",
                                                 result["ruleId"]),
                result["message"]["text"]))
    findings.sort(key=lambda f: f.sort_key)
    return findings
