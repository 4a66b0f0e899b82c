"""Render the scale rules' view of the state model as
``docs/scale-readiness.md``.

The inventory lists every collection whose size scales with the
scenario, its inferred growth dimension with provenance, and every
R22–R26 finding with its current status.  *Open* findings are ones the
ratcheted lint gate would report; *justified* ones carry a
``# simlint: disable=R..`` suppression whose trailing prose documents
why the per-event cost or growth is acceptable.

The rendering is a pure function of the source tree — sorted rows, no
timestamps — so regenerating it in ``make lint`` is idempotent
and the file can be byte-compared in CI.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.inventory import (
    family_findings,
    relmsg,
    relpath,
    table,
)
from repro.analysis.state import BOUNDED, DIMENSIONS, StateModel

__all__ = ["render_inventory"]


def render_inventory(model: StateModel) -> str:
    """The complete scale-readiness inventory as Markdown text."""
    findings, verdict = family_findings(model, "--scale")
    collections = model.sorted_collections()

    lines: List[str] = [
        "# Scale-readiness inventory",
        "",
        "Generated by `python -m repro.analysis --scale "
        "--scale-inventory docs/scale-readiness.md` (see `make "
        "lint`). **Do not edit by hand** — regenerate after any "
        "model-layer change.",
        "",
        "This is the work-list for the brokered task-queue layer "
        "(ROADMAP item 2): every collection whose size scales with the "
        "session population, classified on the growth-dimension "
        "lattice (bounded < per-host < per-site < per-session), and "
        "every per-event complexity finding (R22-R26).  `OPEN` rows "
        "fail `make lint`; `justified` rows carry an inline "
        "`# simlint: disable=R..` suppression explaining why the "
        "per-event cost or growth is acceptable.  Rules and lattice: "
        "`docs/static_analysis.md`.",
        "",
    ]

    # -- dimension summary -------------------------------------------------
    counts: Dict[str, int] = {dim: 0 for dim in DIMENSIONS}
    for collection in collections:
        counts[collection.dimension] += 1
    lines += [
        "## Growth dimensions",
        "",
        "%d tracked collection(s); per-event hot set: %d function(s) "
        "(generators, kernel drains, and their call closure)."
        % (len(collections), len(model.hot)),
        "",
    ]
    lines += table(["Dimension", "Collections"],
                    [[dim, "%d" % counts[dim]] for dim in DIMENSIONS])
    lines.append("")

    # -- non-bounded collections ------------------------------------------
    lines += [
        "## Collections that scale with the scenario",
        "",
        "Every collection inferred above `bounded`, with the evidence "
        "that promoted it and its measured grow/shrink/scan surface.",
        "",
    ]
    rows = []
    for collection in collections:
        if collection.dimension == BOUNDED:
            continue
        rows.append([
            "`%s`" % collection.label,
            collection.kind,
            collection.dimension,
            "`%s:%d`" % (relpath(collection.module.path),
                         getattr(collection.node, "lineno", 1)),
            relmsg(collection.why),
            "%d/%d/%d" % (len(collection.grows), len(collection.shrinks),
                          len(collection.scans) + len(collection.sorts)
                          + len(collection.memberships)),
        ])
    rows.sort(key=lambda row: (row[3], row[0]))
    lines += table(["Collection", "Kind", "Dimension", "Where",
                     "Evidence", "Grow/Shrink/Scan"], rows) if rows \
        else ["*(none — every collection is scale-independent)*"]
    lines.append("")

    # -- findings per rule -------------------------------------------------
    sections = [
        ("R22", "Per-event linear scans (R22)",
         "Loops and comprehensions over population-dimensioned "
         "collections on per-event paths."),
        ("R23", "Unbounded growth containers (R23)",
         "Population state that grows per event and is never evicted "
         "anywhere in the tree."),
        ("R24", "Quadratic membership and ordered passes (R24)",
         "Linear membership probes against population lists, and "
         "sorted/min/max passes inside loops."),
        ("R25", "Per-event allocation in kernel drains (R25)",
         "Fresh containers or closures built inside the kernel's "
         "event-drain loops."),
        ("R26", "Hot-path cache rebuilds (R26)",
         "Memoized structures recomputed per invocation instead of "
         "per invalidation epoch."),
    ]
    for code, title, blurb in sections:
        lines += ["## " + title, "", blurb, ""]
        rows = []
        for finding in findings:
            if finding.code != code:
                continue
            rows.append(["`%s:%d`" % (relpath(finding.path),
                                      finding.line),
                         verdict(finding),
                         relmsg(finding.message.split(" — ")[0])])
        lines += table(["Site", "Status", "What"], rows) if rows \
            else ["*(none)*"]
        lines.append("")
    return "\n".join(lines)

