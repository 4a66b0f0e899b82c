"""What the two Markdown inventories share.

``docs/shard-safety.md`` (:mod:`repro.analysis.shard.inventory`) and
``docs/scale-readiness.md`` (:mod:`repro.analysis.scale.inventory`)
each render one project model together with every finding of the rules
that read it, marked *OPEN* (the lint gate reports it) or *justified*
(suppressed in place with a reason).  Paths are rendered relative to
the working directory so the text is byte-stable across invocations.
"""

from __future__ import annotations

import os
from typing import Callable, List, Tuple

from repro.analysis.core import Finding, _key, _unsuppressed, default_rules

__all__ = ["relpath", "relmsg", "family_findings", "table"]


def relpath(path: str) -> str:
    rel = os.path.relpath(path)
    return rel.replace(os.sep, "/")


def relmsg(message: str) -> str:
    """Strip the cwd prefix from paths embedded in a rule message.

    Rule messages carry the paths the model was built from; rendering
    must not depend on whether those were absolute or relative, or the
    inventory would not be byte-stable across invocation styles.
    """
    return message.replace(os.path.abspath(os.getcwd()) + os.sep, "")


def family_findings(model) -> Tuple[List[Finding],
                                    Callable[[Finding], str]]:
    """Every finding of the rules reading ``model``, sorted and before
    suppression, and the function labelling one OPEN or justified."""
    findings: List[Finding] = []
    seen = set()
    for rule in default_rules((model.flag,)):
        for finding in rule.check_project(model):
            if _key(finding) not in seen:
                seen.add(_key(finding))
                findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    sources = {module.path: module.source
               for module in model.project.modules.values()}
    open_keys = {(f.path, f.line, f.code)
                 for f in _unsuppressed(findings, sources)}

    def verdict(finding: Finding) -> str:
        key = (finding.path, finding.line, finding.code)
        return "OPEN" if key in open_keys else "justified"

    return findings, verdict


def table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines
