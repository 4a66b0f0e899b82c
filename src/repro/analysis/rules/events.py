"""R4: an event that is neither yielded nor stored is lost.

``sim.timeout(...)`` and ``sim.event()`` *create* events; nothing waits
on them until a process yields them (or stores them to yield later, or
composes them with ``all_of``/``any_of``).  A bare expression statement
like::

    self.sim.timeout(self.quantum)     # missing "yield"!

schedules a timeout nobody observes: the process continues at the same
simulated instant and the model silently loses time.  This is the single
most common DES typo, and it never raises.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, RuleContext, register

__all__ = ["LostEventRule"]

#: Factory methods whose Event result must be consumed.
_EVENT_METHODS = frozenset({"timeout", "event", "all_of", "any_of"})
#: Event classes whose instances must be consumed.
_EVENT_CLASSES = frozenset({"Event", "Timeout", "Condition"})


@register
class LostEventRule(Rule):
    """R4: an event that is neither yielded nor stored is lost.

    Why it matters: `self.sim.timeout(q)` as a bare statement schedules
    a timeout nobody observes: the process continues at the same instant
    and the model silently loses time.  The most common DES typo; it
    never raises.

    Fix pattern: Yield the event (`yield sim.timeout(q)`), store it, or
    compose it with all_of/any_of.

    Example: sim.timeout(0)  # simlint: disable=R4 deliberate
    queue-depth probe, result unused
    """

    code = "R4"
    name = "lost-event"
    interests = (ast.Expr,)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        call = node.value
        if not isinstance(call, ast.Call):
            return
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _EVENT_METHODS:
            yield self.finding(
                ctx.path, node,
                "result of %s() is discarded — the event is lost; yield "
                "it or store it" % func.attr)
        elif isinstance(func, ast.Name) and func.id in _EVENT_CLASSES:
            yield self.finding(
                ctx.path, node,
                "%s(...) instance is discarded — the event is lost; "
                "yield it or store it" % func.id)
