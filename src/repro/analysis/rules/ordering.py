"""R3: never iterate a set where order can reach the event queue.

Set iteration order depends on hash values; with ``PYTHONHASHSEED``
unset, strings hash differently on every interpreter start, and objects
hash by address on every run.  Any set iteration that schedules events,
draws random numbers, or otherwise feeds simulation state therefore
destroys run-to-run reproducibility.  Wrapping the set in ``list()``
changes nothing — only ``sorted()`` (or replacing the set with an
insertion-ordered dict) imposes a stable order.

The rule flags direct iteration over set displays, set comprehensions
and ``set()``/``frozenset()`` calls, plus iteration over local names and
``self.*`` attributes that were assigned such expressions.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.core import (
    Finding,
    Rule,
    RuleContext,
    is_self_attr,
    register,
)
from repro.analysis.dataflow.symbols import own_nodes

__all__ = ["SetIterationRule"]

#: Wrappers that preserve the underlying (hash) iteration order.
_ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "enumerate",
                               "reversed"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                   ast.DictComp)

#: The scopes whose set-valued local names the rule tracks.
_NAME_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

#: The nodes :func:`own_nodes` does not descend past, plus the root.
_SCOPES = _NAME_SCOPES + (ast.Lambda, ast.ClassDef)


def _unwrap(expr: ast.AST) -> ast.AST:
    """Strip list()/tuple()/... wrappers that keep set order visible."""
    while (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
           and expr.func.id in _ORDER_PRESERVING and expr.args):
        expr = expr.args[0]
    return expr


def _is_set_expr(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset"))


def _iterated_exprs(node: ast.AST) -> List[ast.AST]:
    """The iterable expressions a For statement/comprehension consumes."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, _COMPREHENSIONS):
        return [generator.iter for generator in node.generators]
    return []


@register
class SetIterationRule(Rule):
    """R3: never iterate a set where order can reach the event queue.

    Why it matters: Set order depends on hash values, which differ per
    process start; any set iteration that schedules events or draws
    randoms destroys run-to-run reproducibility.  list() does not help —
    only sorted() or an insertion-ordered dict does.

    Fix pattern: Iterate sorted(the_set), or replace the set with a dict
    used as an ordered set (`d[x] = None`).

    Example: for h in hosts:  # simlint: disable=R3 hosts is
    sorted-on-insert upstream
    """

    code = "R3"
    name = "set-iteration"
    interests = (ast.For, ast.AsyncFor) + _COMPREHENSIONS

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        for expr in _iterated_exprs(node):
            if _is_set_expr(_unwrap(expr)):
                yield self.finding(
                    ctx.path, node,
                    "iterating a set: order is hash-dependent and breaks "
                    "reproducibility; use sorted() or an ordered dict")

    # -- name/attribute propagation -----------------------------------------

    def check_module(self, tree: ast.Module,
                     ctx: RuleContext) -> Iterator[Finding]:
        # Only a scope that binds a set can iterate one by name, so one
        # pass over the module's nodes picks those out; every other
        # scope and class is left unwalked.
        set_scopes: Set[ast.AST] = set()
        set_classes: Set[ast.AST] = set()
        for node in ctx.nodes:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            if any(_is_set_expr(value) for _, value in _assignments(node)):
                set_scopes.add(_own_scope(node, ctx))
            if any(_is_set_expr(value)
                   for _, value in _self_assignments(node)):
                set_classes.update(_enclosing_classes(node, ctx))
        for node in ctx.nodes:
            if node in set_scopes and isinstance(node, _NAME_SCOPES):
                yield from self._check_scope(node, ctx)
        for node in ctx.nodes:
            if node in set_classes:
                yield from self._check_class(node, ctx)

    def _check_scope(self, scope: ast.AST,
                     ctx: RuleContext) -> Iterator[Finding]:
        set_names: Set[str] = set()
        for node in own_nodes(scope):
            for name, value in _assignments(node):
                if _is_set_expr(value):
                    set_names.add(name)
        if not set_names:
            return
        for node in own_nodes(scope):
            for expr in _iterated_exprs(node):
                expr = _unwrap(expr)
                if isinstance(expr, ast.Name) and expr.id in set_names:
                    yield self.finding(
                        ctx.path, node,
                        "'%s' holds a set: iteration order is "
                        "hash-dependent; use sorted() or an ordered dict"
                        % expr.id)

    def _check_class(self, klass: ast.ClassDef,
                     ctx: RuleContext) -> Iterator[Finding]:
        set_attrs: Set[str] = set()
        for node in ast.walk(klass):
            for name, value in _self_assignments(node):
                if _is_set_expr(value):
                    set_attrs.add(name)
        if not set_attrs:
            return
        for node in ast.walk(klass):
            for expr in _iterated_exprs(node):
                expr = _unwrap(expr)
                if is_self_attr(expr) and expr.attr in set_attrs:
                    yield self.finding(
                        ctx.path, node,
                        "'self.%s' holds a set: iteration order is "
                        "hash-dependent; use sorted() or an ordered dict"
                        % expr.attr)


def _own_scope(node: ast.AST, ctx: RuleContext) -> ast.AST:
    """The scope whose :func:`own_nodes` include ``node``."""
    current = ctx.parents[node]
    while not isinstance(current, _SCOPES):
        current = ctx.parents[current]
    return current


def _enclosing_classes(node: ast.AST, ctx: RuleContext) -> List[ast.AST]:
    """Every ClassDef ``node`` is (at any depth) inside."""
    classes: List[ast.AST] = []
    current = ctx.parents.get(node)
    while current is not None:
        if isinstance(current, ast.ClassDef):
            classes.append(current)
        current = ctx.parents.get(current)
    return classes


def _assignments(node: ast.AST) -> List[Tuple[str, ast.AST]]:
    """(name, value) pairs bound by a plain local assignment."""
    pairs: List[Tuple[str, ast.AST]] = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                pairs.append((target.id, node.value))
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        if isinstance(node.target, ast.Name):
            pairs.append((node.target.id, node.value))
    return pairs


def _self_assignments(node: ast.AST) -> List[Tuple[str, ast.AST]]:
    """(attr, value) pairs bound by ``self.attr = ...`` assignments."""
    pairs: List[Tuple[str, ast.AST]] = []
    targets: List[ast.AST] = []
    value: ast.AST = None
    if isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets, value = [node.target], node.value
    for target in targets:
        if is_self_attr(target):
            pairs.append((target.attr, value))
    return pairs
