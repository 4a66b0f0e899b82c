"""R6: float simulation time must not be compared with ``==``.

Simulated timestamps are floats accumulated through arithmetic
(``self.now + delay``, rate divisions, jitter multiplications); two
logically simultaneous times routinely differ in the last ulp.  An exact
``==``/``!=`` against such a value works on one machine and silently
fails on another — classic flaky-simulation material.  Compare with an
epsilon, or restructure so the kernel (which orders events, never
equality-tests times) makes the decision.

The rule recognises time-like operands syntactically: the ``.now``
clock, ``*_time``/``*_at`` names and attributes, and ``deadline``-style
names.  Comparisons against the integer-exact literal ``0`` sentinel are
still flagged — sim code should test ``<= epsilon`` even there.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, RuleContext, register

__all__ = ["FloatTimeEqRule"]

_TIME_NAMES = frozenset({"now", "deadline", "timestamp", "t"})
_TIME_SUFFIXES = ("_time", "_at", "_deadline")


def _is_time_like(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Attribute):
        label = expr.attr
    elif isinstance(expr, ast.Name):
        label = expr.id
    else:
        return False
    return label in _TIME_NAMES or label.endswith(_TIME_SUFFIXES)


@register
class FloatTimeEqRule(Rule):
    """R6: float simulation time must not be compared with ==.

    Why it matters: Timestamps are floats accumulated through
    arithmetic; two logically simultaneous times routinely differ in the
    last ulp, so == works on one machine and silently fails on another.

    Fix pattern: Compare with an epsilon (`abs(a - b) <= EPS`) or let
    the kernel's event ordering make the decision.

    Example: if t == deadline:  # simlint: disable=R6 deadline is copied
    from t, bit-identical by construction
    """

    code = "R6"
    name = "float-time-eq"
    interests = (ast.Compare,)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if _is_time_like(side):
                    # `x == None` style checks are a different bug; the
                    # equality-on-floats concern needs a numeric peer.
                    other = right if side is left else left
                    if isinstance(other, ast.Constant) \
                            and other.value is None:
                        continue
                    yield self.finding(
                        ctx.path, node,
                        "exact ==/!= on simulation time is float-fragile;"
                        " compare against an epsilon")
                    break
