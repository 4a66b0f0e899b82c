"""R9: model code must not print; report through tracer/metrics.

A ``print()`` buried in the simulation stack is invisible observability:
it bypasses the tracer and metrics registry, interleaves arbitrarily
with harness output, and (worse) tempts callers into parsing stdout.
Everything a model component wants to say belongs in a span, an
instant, a counter, or a returned value.  Only the CLI front ends
(``cli.py``) and the report formatter (``reporting.py``) are in the
business of writing to stdout.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator

from repro.analysis.core import Finding, Rule, RuleContext, register

__all__ = ["BarePrintRule"]

#: Module basenames whose whole job is producing console output.
_OUTPUT_MODULES = frozenset({"cli.py", "reporting.py"})


@register
class BarePrintRule(Rule):
    """R9: model code must not print; report through tracer/metrics.

    Why it matters: print() bypasses the tracer and metrics registry,
    interleaves arbitrarily with harness output, and tempts callers into
    parsing stdout.

    Fix pattern: Emit a span/instant/counter, or return the value; only
    CLI front ends and the report formatter write to stdout.

    Example: print(table)  # simlint: disable=R9 CLI front end, stdout
    is the product
    """

    code = "R9"
    name = "bare-print"
    interests = (ast.Call,)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        if os.path.basename(ctx.path) in _OUTPUT_MODULES:
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield self.finding(
                ctx.path, node,
                "print() in model code; emit a trace span/instant, a "
                "metric, or return the value instead")
