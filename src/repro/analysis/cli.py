"""The simlint command line.

Usage::

    python -m repro.analysis [PATH ...] [--deep] [--shard] [--scale]
                             [--shard-inventory FILE]
                             [--scale-inventory FILE]
                             [--format text|json|sarif]
                             [--select R1,R4] [--disable R3]
                             [--baseline FILE] [--write-baseline FILE]
                             [--list-rules] [--explain RULE]

``--deep`` adds the interprocedural pass (call graph + taint fixpoint,
rules R11-R14; see :mod:`repro.analysis.dataflow`) on top of the
per-file rules.  ``--shard`` adds the shard-affinity pass (ownership
rules R15-R19; see :mod:`repro.analysis.shard`), and
``--shard-inventory FILE`` additionally regenerates the shard-safety
inventory (``docs/shard-safety.md``) from the same model.  ``--scale``
adds the growth-dimension pass (complexity rules R22-R26; see
:mod:`repro.analysis.scale`), and ``--scale-inventory FILE``
regenerates the scale-readiness inventory (``docs/scale-readiness.md``)
from the same model.  The flags select rule families: every selected
rule runs through one :class:`~repro.analysis.core.Analyzer` pass that
parses the tree once.  ``--explain R22`` prints one rule's full
documentation — summary, rationale, fix pattern, suppression syntax —
rendered from the rule's docstring, and exits.  ``--format sarif``
emits SARIF 2.1.0 for CI ingestion.
``--baseline`` filters findings down to the ones *not* recorded in a
baseline file (the ratchet: legacy debt is absorbed, new findings
fail); ``--write-baseline`` regenerates that file.

Exit status: 0 when the tree is clean (or all findings are baselined),
1 when findings were reported, 2 on usage errors — so CI can gate on it
directly (see ``make check``).  With no paths, the installed ``repro``
package itself is linted.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import Dict, List, Optional

from repro.analysis.baseline import (
    filter_new,
    load_baseline,
    render_baseline,
)
from repro.analysis.core import (
    Analyzer,
    Finding,
    ParseErrorRule,
    Rule,
    default_rules,
    registered_rule_classes,
)
from repro.analysis.sarif import render_sarif
from repro.analysis.scale.inventory import render_inventory as scale_inventory
from repro.analysis.shard.inventory import render_inventory as shard_inventory
from repro.analysis.state import StateModel

__all__ = ["build_parser", "main", "explain_rule"]


def _default_target() -> str:
    """The repro package directory (lint ourselves by default)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="simlint: determinism & sim-correctness static "
                    "analysis for the DES stack.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: the "
                             "installed repro package)")
    parser.add_argument("--deep", action="store_true",
                        help="also run the interprocedural dataflow pass "
                             "(rules R11-R14)")
    parser.add_argument("--shard", action="store_true",
                        help="also run the shard-affinity pass "
                             "(rules R15-R19)")
    parser.add_argument("--shard-inventory", default=None, metavar="FILE",
                        help="regenerate the shard-safety inventory at "
                             "FILE (implies --shard)")
    parser.add_argument("--scale", action="store_true",
                        help="also run the growth-dimension pass "
                             "(rules R22-R26)")
    parser.add_argument("--scale-inventory", default=None, metavar="FILE",
                        help="regenerate the scale-readiness inventory at "
                             "FILE (implies --scale)")
    parser.add_argument("--explain", default=None, metavar="RULE",
                        help="print one rule's documentation (e.g. "
                             "--explain R22) and exit")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule codes/names to run "
                             "exclusively")
    parser.add_argument("--disable", default=None, metavar="RULES",
                        help="comma-separated rule codes/names to skip")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="report only findings not recorded in this "
                             "baseline file")
    parser.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="write the run's findings as a new baseline "
                             "and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the active rule set and exit")
    return parser


def _filter_rules(rules, select: Optional[str], disable: Optional[str]):
    if select:
        wanted = {token.strip().lower() for token in select.split(",")
                  if token.strip()}
        rules = [r for r in rules
                 if {r.code.lower(), r.name.lower()} & wanted]
    if disable:
        dropped = {token.strip().lower() for token in disable.split(",")
                   if token.strip()}
        rules = [r for r in rules
                 if not ({r.code.lower(), r.name.lower()} & dropped)]
    return rules


def _card(rule: Rule) -> Dict[str, str]:
    """The sections of ``rule``'s docstring, each joined to one line.

    The first paragraph is ``<code>: <summary>``; the others start with
    their heading (``Why it matters:``, ``Fix pattern:``, ``Example:``).
    """
    paragraphs = [" ".join(line.strip() for line in block.splitlines())
                  for block in inspect.cleandoc(type(rule).__doc__)
                  .split("\n\n")]
    card = {"Summary": paragraphs[0].split(": ", 1)[1]}
    for paragraph in paragraphs[1:]:
        heading, text = paragraph.split(": ", 1)
        card[heading] = text
    return card


def explain_rule(rule: str) -> str:
    """The documentation card for ``rule`` (code or name, any case).

    Raises ``KeyError`` when no registered rule (or E0) has that code or
    name.
    """
    wanted = rule.strip().lower()
    for cls in [ParseErrorRule] + registered_rule_classes():
        if wanted in (cls.code.lower(), cls.name.lower()):
            instance = cls()
            break
    else:
        raise KeyError(rule)
    card = _card(instance)
    lines = [
        "%s  %s  [%s pass]" % (instance.code, instance.name,
                               instance.family),
        "",
        "Summary:",
        "  " + card["Summary"],
        "",
        "Why it matters:",
        "  " + card["Why it matters"],
        "",
        "Fix pattern:",
        "  " + card["Fix pattern"],
        "",
        "Suppression:",
        "  append `# simlint: disable=%s <why it is safe>` to the "
        "line," % instance.code,
        "  or `# simlint: disable-file=%s <why>` anywhere for the "
        "whole file;" % instance.code,
        "  the trailing prose is required and should say why, e.g.:",
        "    " + card["Example"],
        "",
        "See: docs/static_analysis.md",
    ]
    return "\n".join(lines)


def _render_text(findings: List[Finding], stream) -> None:
    for finding in findings:
        print(finding.format(), file=stream)
    noun = "finding" if len(findings) == 1 else "findings"
    print("simlint: %d %s" % (len(findings), noun), file=stream)


def _render_json(findings: List[Finding], stream) -> None:
    json.dump({"findings": [f.to_dict() for f in findings],
               "count": len(findings)}, stream, indent=2)
    print(file=stream)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.explain:
        try:
            print(explain_rule(args.explain))
        except KeyError:
            print("simlint: unknown rule %r (try --list-rules)"
                  % args.explain, file=sys.stderr)
            return 2
        return 0
    # (renderer, file) for each inventory to regenerate from the state
    # model; asking for one also selects its family.
    inventories = [(render, path) for render, path in (
        (shard_inventory, args.shard_inventory),
        (scale_inventory, args.scale_inventory)) if path]
    families = ["per-file"]
    families += [flag for flag, wanted in (
        ("--deep", args.deep),
        ("--shard", args.shard or args.shard_inventory),
        ("--scale", args.scale or args.scale_inventory)) if wanted]
    rules = _filter_rules(default_rules(families), args.select,
                          args.disable)
    if args.list_rules:
        for rule in rules:
            print("%-4s %-28s %s" % (rule.code, rule.name,
                                     _card(rule)["Summary"]))
        return 0
    if not rules:
        print("simlint: no rules selected", file=sys.stderr)
        return 2
    analyzer = Analyzer(rules)
    try:
        findings = analyzer.analyze_paths(
            args.paths or [_default_target()],
            models=[StateModel] if inventories else [])
        for render, path in inventories:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render(analyzer.models[StateModel]))
    except OSError as exc:
        print("simlint: cannot read %s: %s"
              % (exc.filename or "path", exc.strerror or exc),
              file=sys.stderr)
        return 2
    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(render_baseline(findings))
        print("simlint: wrote baseline of %d finding(s) to %s"
              % (len(findings), args.write_baseline))
        return 0
    if args.baseline:
        try:
            known = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print("simlint: cannot use baseline %s: %s"
                  % (args.baseline, exc), file=sys.stderr)
            return 2
        findings = filter_new(findings, known)
    if args.format == "json":
        _render_json(findings, sys.stdout)
    elif args.format == "sarif":
        sys.stdout.write(render_sarif(findings, rules))
    else:
        _render_text(findings, sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
