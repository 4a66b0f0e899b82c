"""Findings baseline — the ratchet that lets CI fail only on *new* debt.

A baseline file records, per finding *fingerprint*, how many findings
with that fingerprint existed when the baseline was written.  The
fingerprint is deliberately line-insensitive — ``(path, code,
message)`` — so unrelated edits that shift a legacy finding up or down
a few lines do not break the build, while a genuinely new finding (new
file, new rule code, or new message text) always does.

``python -m repro.analysis --baseline analysis-baseline.json`` filters
the run's findings down to the ones *not* covered by the baseline: for
each fingerprint, up to the recorded count is absorbed, and any excess
surfaces.  Counts only ratchet down — regenerate the file with
``--write-baseline`` after paying down debt.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from repro.analysis.core import Finding

__all__ = ["BASELINE_VERSION", "fingerprint", "make_baseline",
           "render_baseline", "load_baseline", "filter_new"]

BASELINE_VERSION = 1

Fingerprint = Tuple[str, str, str]


def fingerprint(finding: Finding, root: str = ".") -> Fingerprint:
    """Line-insensitive identity of a finding: (relpath, code, message)."""
    path = finding.path
    try:
        rel = os.path.relpath(path, root)
    except ValueError:  # different drive on win32
        rel = path
    if not rel.startswith(".."):
        path = rel
    return (path.replace(os.sep, "/"), finding.code, finding.message)


def make_baseline(findings: List[Finding], root: str = ".") -> Dict:
    """A JSON-ready baseline document covering ``findings``."""
    counts: Dict[Fingerprint, int] = {}
    for finding in findings:
        key = fingerprint(finding, root)
        counts[key] = counts.get(key, 0) + 1
    return {
        "version": BASELINE_VERSION,
        "tool": "simlint",
        "findings": [
            {"path": path, "code": code, "message": message,
             "count": counts[(path, code, message)]}
            for path, code, message in sorted(counts)
        ],
    }


def render_baseline(findings: List[Finding], root: str = ".") -> str:
    """The baseline as deterministic, pretty-printed JSON."""
    return json.dumps(make_baseline(findings, root), indent=2,
                      sort_keys=True) + "\n"


def load_baseline(path: str) -> Dict[Fingerprint, int]:
    """Read a baseline file into a fingerprint -> count map.

    Raises ``ValueError`` on a malformed or wrong-version document so
    the CLI can report a usable error instead of silently absorbing
    nothing (or everything).
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or \
            document.get("version") != BASELINE_VERSION:
        raise ValueError("unsupported baseline version in %s" % path)
    counts: Dict[Fingerprint, int] = {}
    for entry in document.get("findings", ()):
        key = (str(entry["path"]), str(entry["code"]),
               str(entry["message"]))
        counts[key] = counts.get(key, 0) + int(entry.get("count", 1))
    return counts


def filter_new(findings: List[Finding],
               baseline: Dict[Fingerprint, int],
               root: str = ".") -> List[Finding]:
    """The findings not absorbed by ``baseline`` (the ratchet).

    For each fingerprint the baseline absorbs up to its recorded count;
    findings beyond that — or with an unknown fingerprint — are new.
    Order within a fingerprint follows the findings' sort order, so the
    surviving ones are the later occurrences.
    """
    budget = dict(baseline)
    fresh: List[Finding] = []
    for finding in findings:
        key = fingerprint(finding, root)
        remaining = budget.get(key, 0)
        if remaining > 0:
            budget[key] = remaining - 1
        else:
            fresh.append(finding)
    return fresh
