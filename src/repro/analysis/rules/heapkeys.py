"""R8: heap entries must have a total order.

The event queue is a ``heapq`` of tuples; when two entries compare equal
on their leading elements, Python falls through to comparing the next
element.  A push like ``heappush(queue, (when, event))`` therefore
*works* until two events share a timestamp — then the heap tries
``event < event`` and either raises ``TypeError`` mid-run or, worse,
orders by ``id()`` and is nondeterministic across runs.  The kernel's
own queue shows the fix: ``(time, priority, monotonic_id, event)`` — a
unique integer tie-breaker before the payload guarantees comparisons
never reach the payload object.

The rule flags pushes of 2-element tuples whose final element is not a
constant (no tie-breaker can exist), and pushes of bare constructor
calls (the pushed object must then define a total order itself, which
event/payload classes do not).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import (
    Finding,
    Rule,
    RuleContext,
    dotted_name,
    register,
)

__all__ = ["HeapKeyRule"]


def _heappush_item(node: ast.Call) -> Optional[ast.AST]:
    """The pushed value, if ``node`` is a heappush call."""
    dotted = dotted_name(node.func)
    is_push = dotted == "heapq.heappush" or (
        isinstance(node.func, ast.Name) and node.func.id == "heappush")
    if is_push and len(node.args) >= 2:
        return node.args[1]
    return None


@register
class HeapKeyRule(Rule):
    """R8: heap entries must have a total order.

    Why it matters: heapq falls through to comparing payloads when
    leading tuple elements tie; `(when, event)` works until two events
    share a timestamp, then raises TypeError mid-run or orders by id()
    nondeterministically.

    Fix pattern: Push `(time, priority, monotonic_id, payload)` — a
    unique integer tie-breaker before the payload, as the kernel queue
    does.

    Example: heappush(q, (t, job))  # simlint: disable=R8 job is an int
    rank, totally ordered
    """

    code = "R8"
    name = "heap-key"
    interests = (ast.Call,)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        item = _heappush_item(node)
        if item is None:
            return
        if isinstance(item, ast.Tuple):
            if len(item.elts) < 3 \
                    and not isinstance(item.elts[-1], ast.Constant):
                yield self.finding(
                    ctx.path, node,
                    "heap entry (key, payload) compares payloads on key "
                    "ties; insert a unique monotonic counter before the "
                    "payload")
        elif isinstance(item, ast.Call):
            yield self.finding(
                ctx.path, node,
                "pushing a bare object onto a heap relies on the object "
                "defining a total order; push a (key, counter, object) "
                "tuple")
