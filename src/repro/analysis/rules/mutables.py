"""R7: mutable default arguments leak state between simulation runs.

A default like ``def run(self, results=[])`` is evaluated once at import
and shared by every call — every simulation run in the process appends
into the same list.  For a stack whose correctness claim is "two runs
with the same seed are identical", cross-run state leakage through
defaults is fatal *and* invisible: the first run passes, the second run
sees the first run's residue.  Use ``None`` and allocate inside the
function (or ``dataclasses.field(default_factory=...)``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, RuleContext, register

__all__ = ["MutableDefaultRule"]

_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque",
                            "Counter", "OrderedDict"})


def _is_mutable(expr: ast.AST) -> bool:
    if isinstance(expr, _MUTABLE_DISPLAYS):
        return True
    return (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in _MUTABLE_CALLS)


@register
class MutableDefaultRule(Rule):
    """R7: mutable default arguments leak state between simulation runs.

    Why it matters: A default like `results=[]` is evaluated once at
    import and shared by every call — the second run sees the first
    run's residue, which is fatal and invisible for a stack whose claim
    is seed-identical replay.

    Fix pattern: Default to None and allocate inside the function.

    Example: def run(self, out=CACHE):  # simlint: disable=R7
    module-constant sentinel, never mutated
    """

    code = "R7"
    name = "mutable-default"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        defaults = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        label = getattr(node, "name", "<lambda>")
        for default in defaults:
            if _is_mutable(default):
                yield self.finding(
                    ctx.path, default,
                    "mutable default argument in %s() is shared across "
                    "calls (and simulation runs); default to None and "
                    "allocate inside" % label)
