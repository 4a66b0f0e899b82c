"""Render the shard rules' view of the state model as
``docs/shard-safety.md``.

The inventory lists every process-global mutable, every process-wide
cache and every shard-crossing edge in the tree, with file:line
provenance and its current status.  *Open* findings are ones the ratcheted lint gate
would report; *justified* ones carry a ``# simlint: disable=R..``
suppression whose trailing prose documents why the coupling is safe.

The rendering is a pure function of the source tree — sorted rows, no
timestamps — so regenerating it in ``make lint`` is idempotent
and the file can be byte-compared in CI.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.inventory import (
    family_findings,
    relmsg,
    relpath,
    table,
)
from repro.analysis.state import (
    HOST,
    SHARED,
    SITE,
    StateModel,
    family_of_module,
)

__all__ = ["render_inventory"]


def render_inventory(model: StateModel) -> str:
    """The complete shard-safety inventory as Markdown text."""
    findings, verdict = family_findings(model, "--shard")

    lines: List[str] = [
        "# Shard-safety inventory",
        "",
        "Generated by `python -m repro.analysis --shard "
        "--shard-inventory docs/shard-safety.md` (see `make "
        "lint`). **Do not edit by hand** — regenerate after any "
        "model-layer change.",
        "",
        "This is the work-list for the sharded parallel engine "
        "(ROADMAP item 1): every mutable location whose owner is not "
        "a single site/host partition, classified on the "
        "shard-affinity lattice (shard-local < shard-crossing < "
        "process-global).  `OPEN` rows fail `make lint`; "
        "`justified` rows carry an inline `# simlint: disable=R..` "
        "suppression explaining why the coupling is safe.  Rules and "
        "lattice: `docs/static_analysis.md`.",
        "",
    ]

    # -- family summary ----------------------------------------------------
    counts: Dict[str, int] = {HOST: 0, SITE: 0, SHARED: 0}
    writes: Dict[str, int] = {HOST: 0, SITE: 0, SHARED: 0}
    for name in model.project.modules:
        counts[family_of_module(name)] += 1
    for qualname, count in model.self_writes.items():
        writes[family_of_module(qualname)] += count
    lines += [
        "## Entity families",
        "",
        "Instance state written only through `self` by a host- or "
        "site-family class is **shard-local** — the safe bulk of the "
        "tree.",
        "",
    ]
    lines += table(
        ["Family", "Modules", "`self.*` write sites (shard-local)"],
        [[family, "%d" % counts[family], "%d" % writes[family]]
         for family in (HOST, SITE, SHARED)])
    lines.append("")

    # -- process-globals (R15) --------------------------------------------
    lines += [
        "## Process-global mutable state (R15)",
        "",
    ]
    rows = []
    for finding in findings:
        if finding.code != "R15":
            continue
        rows.append(["`%s:%d`" % (relpath(finding.path), finding.line),
                     verdict(finding),
                     relmsg(finding.message.split(" — ")[0])])
    lines += table(["Location", "Status", "What"], rows) if rows \
        else ["*(none — every module/class-level mutable is read-only "
              "after import)*"]
    lines.append("")

    # -- process caches (R17 + every lru_cache site) ----------------------
    lines += [
        "## Process-wide caches (R17)",
        "",
        "Every `functools` cache decoration in the tree, plus mutated "
        "cache-named module state.  The sanctioned pattern — bounded "
        "`lru_cache` on a frozen-dataclass method (value-keyed, "
        "cannot couple worlds) — is listed as `ok`.",
        "",
    ]
    rows = []
    for finding in findings:
        if finding.code != "R17":
            continue
        rows.append(["`%s:%d`" % (relpath(finding.path), finding.line),
                     verdict(finding),
                     relmsg(finding.message.split(" — ")[0]
                             .split(";")[0])])
    flagged: Set[Tuple[str, int]] = {
        (f.path, f.line) for f in findings if f.code == "R17"}
    for site in model.cache_sites:
        if (site.function.module.path, site.node.lineno) in flagged:
            continue
        bound = "maxsize=%s" % site.maxsize if site.bounded \
            else "unbounded"
        shape = "frozen-dataclass method" if site.frozen_dataclass \
            else ("method" if site.function.class_name else "function")
        rows.append(["`%s:%d`" % (relpath(site.function.module.path),
                                  site.node.lineno),
                     "ok",
                     "bounded lru_cache (%s, %s) on %s()"
                     % (bound, shape, site.function.qualname)])
    lines += table(["Site", "Status", "What"], rows) if rows \
        else ["*(none)*"]
    lines.append("")

    # -- crossing edges (R16/R19) -----------------------------------------
    lines += [
        "## Shard-crossing edges (R16/R19)",
        "",
        "Writes and event triggers that jump the site/host partition "
        "boundary without a kernel event in between — each one needs "
        "a lookahead-mediated event in the sharded engine.",
        "",
    ]
    rows = []
    for finding in findings:
        if finding.code not in ("R16", "R19"):
            continue
        rows.append(["`%s:%d`" % (relpath(finding.path), finding.line),
                     finding.code, verdict(finding),
                     relmsg(finding.message.split(" — ")[0])])
    lines += table(["Edge", "Rule", "Status", "What"], rows) if rows \
        else ["*(none — every cross-entity interaction already goes "
              "through the kernel)*"]
    lines.append("")

    # -- accumulators (R18) ------------------------------------------------
    lines += [
        "## Non-mergeable accumulators (R18)",
        "",
    ]
    rows = []
    for finding in findings:
        if finding.code != "R18":
            continue
        rows.append(["`%s:%d`" % (relpath(finding.path), finding.line),
                     verdict(finding),
                     finding.message.split(":")[0]])
    lines += table(["Class", "Status", "What"], rows) if rows \
        else ["*(none — every sample-taking statistics class has a "
              "deterministic merge)*"]
    lines.append("")
    return "\n".join(lines)

