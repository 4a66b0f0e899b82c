"""Call-graph construction over a :class:`ProjectModel`.

For every call expression inside a project function the resolver finds
the :class:`~repro.analysis.dataflow.symbols.FunctionInfo` it names —
cross-module calls through import aliases, module-level calls by bare
name, constructor calls (resolved to ``__init__``), and ``self.m()``
method calls walked through project-known base classes.  Calls that
leave the project (stdlib, third-party) resolve to their expanded
dotted name instead, which is what the taint layer matches
nondeterminism sources against.

Resolution is deliberately syntactic: no types, no aliasing through
data structures.  That keeps it sound enough for lint purposes (a
resolved edge is a real possible edge) and fast enough to run on every
``make check``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import dotted_name
from repro.analysis.dataflow.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    own_nodes,
)

__all__ = ["Resolution", "CallGraph", "resolve_call", "iter_calls"]


class Resolution:
    """Outcome of resolving one call expression."""

    __slots__ = ("target", "external", "is_constructor")

    def __init__(self, target: Optional[FunctionInfo] = None,
                 external: Optional[str] = None,
                 is_constructor: bool = False):
        #: The project function called, when resolution succeeded.
        self.target = target
        #: The expanded dotted name for out-of-project calls
        #: (e.g. ``time.time``), or None.
        self.external = external
        self.is_constructor = is_constructor

    @property
    def resolved(self) -> bool:
        return self.target is not None

    def __repr__(self) -> str:
        if self.target is not None:
            return "<Resolution -> %s>" % self.target.qualname
        return "<Resolution external=%s>" % self.external


def resolve_call(project: ProjectModel, caller: FunctionInfo,
                 call: ast.Call) -> Resolution:
    """Resolve ``call`` as written inside ``caller``."""
    func = call.func
    module = caller.module

    if isinstance(func, ast.Name):
        return _resolve_name(project, module, func.id)

    if isinstance(func, ast.Attribute):
        dotted = dotted_name(func)
        if dotted is None:
            return Resolution()
        head, _, rest = dotted.partition(".")
        if head == "self" and caller.is_method and rest and "." not in rest:
            klass = module.classes.get(caller.class_name)
            if klass is not None:
                info = project.method(klass, rest)
                if info is not None:
                    return Resolution(target=info)
            return Resolution(external=dotted)
        expanded = project.expand(module, dotted)
        return _resolve_dotted(project, expanded)

    return Resolution()


def _resolve_name(project: ProjectModel, module: ModuleInfo,
                  name: str) -> Resolution:
    if name in module.functions:
        return Resolution(target=module.functions[name])
    if name in module.classes:
        return _constructor(project, module.classes[name])
    if name in module.imports:
        return _resolve_dotted(project, module.imports[name])
    return Resolution(external=name)


def _resolve_dotted(project: ProjectModel, dotted: str) -> Resolution:
    info = project.functions.get(dotted)
    if info is not None:
        return Resolution(target=info)
    klass = project.classes.get(dotted)
    if klass is not None:
        return _constructor(project, klass)
    # ``pkg.mod.Class.method`` spelled out explicitly.
    head, _, method = dotted.rpartition(".")
    klass = project.classes.get(head)
    if klass is not None and method:
        target = project.method(klass, method)
        if target is not None:
            return Resolution(target=target)
    return Resolution(external=dotted)


def _constructor(project: ProjectModel, klass: ClassInfo) -> Resolution:
    init = project.method(klass, "__init__")
    return Resolution(target=init, external=klass.qualname,
                      is_constructor=True)


def iter_calls(func: FunctionInfo) -> Iterator[ast.Call]:
    """Every call expression belonging to ``func``'s own body."""
    for node in own_nodes(func.node):
        if isinstance(node, ast.Call):
            yield node


class CallGraph:
    """The resolved caller -> callee relation for a whole project."""

    def __init__(self, project: ProjectModel):
        self.project = project
        #: caller qualname -> sorted list of callee qualnames.
        self.edges: Dict[str, List[str]] = {}
        #: caller qualname -> sorted list of external dotted names.
        self.external: Dict[str, List[str]] = {}
        for qualname in sorted(project.functions):
            caller = project.functions[qualname]
            targets: Set[str] = set()
            externals: Set[str] = set()
            for call in iter_calls(caller):
                res = resolve_call(project, caller, call)
                if res.target is not None:
                    targets.add(res.target.qualname)
                elif res.external is not None:
                    externals.add(res.external)
            self.edges[qualname] = sorted(targets)
            self.external[qualname] = sorted(externals)

    def callees(self, qualname: str) -> List[str]:
        return self.edges.get(qualname, [])

    def callers(self, qualname: str) -> List[str]:
        return sorted(caller for caller, callees in self.edges.items()
                      if qualname in callees)

    def edge_count(self) -> int:
        return sum(len(callees) for callees in self.edges.values())

    def cross_module_edges(self) -> List[Tuple[str, str]]:
        """Resolved edges whose endpoints live in different modules."""
        pairs = []
        for caller, callees in sorted(self.edges.items()):
            caller_mod = self.project.functions[caller].module.name
            for callee in callees:
                if self.project.functions[callee].module.name != caller_mod:
                    pairs.append((caller, callee))
        return pairs

    def __repr__(self) -> str:
        return "<CallGraph %d functions, %d edges>" % (
            len(self.edges), self.edge_count())
