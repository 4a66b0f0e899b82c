"""R21: cross-shard kernel access must go through the channel API.

The sharded engine's determinism contract holds only while every
cross-shard interaction travels as a stamped
:class:`~repro.simulation.sharded.ShardMessage` through
``ShardWorld.send`` / ``ShardWorld.on_message``.  Code that reaches
*through* a world handle into the underlying kernel —
``world.sim.call_at(...)``, ``kernel.world.sim.schedule(...)``, or
aliasing ``world.sim`` into a variable that escapes — can mutate a
shard's event queue without a stamp, and the mutation's effect then
depends on which barrier round happened to carry it: the classic
placement-dependent heisenbug the engine exists to rule out.

A world handle, for this rule, is a name assigned from a
``ShardWorld(...)`` construction, any attribute chain ending in
``.world`` (the conventional kernel-side back-reference), or a direct
``ShardWorld(...)`` call expression.  Reading ``.sim.now``,
``.sim.peek()`` or ``.sim.seed`` through a handle is allowed — those
are pure observations a message handler legitimately needs.  The
engine's own round loop owns its shards and suppresses the rule
inline (``# simlint: disable=R21``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Set

from repro.analysis.core import (
    Finding,
    Rule,
    RuleContext,
    dotted_name,
    register,
)

__all__ = ["CrossShardAccessRule"]

#: Read-only kernel members a handler may observe through a handle.
_READ_ONLY = frozenset({"now", "peek", "seed"})


def _is_world_construction(node: ast.AST) -> bool:
    """Is ``node`` a ``ShardWorld(...)`` (possibly dotted) call?"""
    if not isinstance(node, ast.Call):
        return False
    dotted = dotted_name(node.func)
    return dotted is not None and dotted.rsplit(".", 1)[-1] == "ShardWorld"


def _world_names(nodes: Iterable[ast.AST]) -> Set[str]:
    """Names bound to a ``ShardWorld(...)`` anywhere in ``nodes``."""
    names: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and _is_world_construction(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) \
                and node.value is not None \
                and _is_world_construction(node.value):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


@register
class CrossShardAccessRule(Rule):
    """R21: cross-shard kernel access must go through the channel API.

    Why it matters: Reaching through a world handle
    (`world.sim.call_at(...)`) mutates a shard's queue without a stamp;
    the mutation's effect depends on which barrier round carries it.

    Fix pattern: Use ShardWorld.send()/on_message(); read-only
    `.sim.now`/`.sim.peek()` stays allowed.

    Example: world.sim.schedule(e)  # simlint: disable=R21 single-shard
    unit test, no barrier in play
    """

    code = "R21"
    name = "cross-shard-access"

    def check_module(self, tree: ast.Module,
                     ctx: RuleContext) -> Iterator[Finding]:
        worlds = _world_names(ctx.nodes)
        for node in ctx.nodes:
            if not (isinstance(node, ast.Attribute) and node.attr == "sim"):
                continue
            if not self._is_world_handle(node.value, worlds):
                continue
            parent = ctx.parents.get(node)
            if isinstance(parent, ast.Attribute):
                if parent.attr in _READ_ONLY:
                    continue  # world.sim.now and friends: pure reads
                yield self.finding(
                    ctx.path, parent,
                    "cross-shard kernel access: .sim.%s through a shard "
                    "world handle bypasses the stamped channel API; use "
                    "ShardWorld.send()/on_message() (only .sim.now, "
                    ".sim.peek and .sim.seed are read-safe)" % parent.attr)
            else:
                yield self.finding(
                    ctx.path, node,
                    "shard kernel handle escapes: aliasing or passing "
                    "world.sim lets callers mutate the shard's event "
                    "queue without a stamped message; keep kernel access "
                    "behind ShardWorld.send()/on_message()")

    @staticmethod
    def _is_world_handle(node: ast.AST, worlds: Set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in worlds
        if isinstance(node, ast.Attribute):
            return node.attr == "world"
        return _is_world_construction(node)
