"""R20: streaming collectors must make a retention choice.

A :class:`~repro.simulation.monitor.TimeSeriesMonitor` constructed with
neither ``window=`` nor ``max_samples=`` keeps every sample forever.
On the short paper-scale scenarios that is invisible; on a steady-state
run (the SLA experiments, a week of simulated grid time) each such
collector grows linearly with event count until the process dies —
the classic slow leak that never shows up in tests.

The fix is to pass a retention bound; ``window=None`` passed
*explicitly* also counts as clean, because it states that the series
is meant to be unbounded (e.g. a collector whose full history feeds a
final artifact).  The rule fires only on constructions that make no
choice at all.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    Rule,
    RuleContext,
    dotted_name,
    register,
)

__all__ = ["UnboundedCollectorRule"]

#: Collector constructors that retain per-sample state when unbounded.
_COLLECTOR_NAMES = frozenset({"TimeSeriesMonitor"})

#: Keyword arguments that constitute an explicit retention choice.
_RETENTION_KWARGS = frozenset({"window", "max_samples"})


@register
class UnboundedCollectorRule(Rule):
    """R20: streaming collectors must make a retention choice.

    Why it matters: A TimeSeriesMonitor with neither window= nor
    max_samples= keeps every sample forever — the classic slow leak
    invisible at paper scale and fatal on steady-state runs.

    Fix pattern: Pass a retention bound, or an explicit window=None to
    state that full history is the product.

    Example: mon = TimeSeriesMonitor(sim)  # simlint: disable=R20
    fixture asserts on full history
    """

    code = "R20"
    name = "unbounded-collector"
    interests = (ast.Call,)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if dotted.rsplit(".", 1)[-1] not in _COLLECTOR_NAMES:
            return
        for keyword in node.keywords:
            if keyword.arg is None:
                # A **kwargs splat may carry the bound; benefit of the
                # doubt (the runtime default is still flagged wherever
                # the splat is built from literals).
                return
            if keyword.arg in _RETENTION_KWARGS:
                return
        yield self.finding(
            ctx.path, node,
            "%s() without window= or max_samples= retains every sample "
            "forever; pass a retention bound, or window=None to declare "
            "the series deliberately unbounded" % dotted)
