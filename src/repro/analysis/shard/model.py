"""The shard-affinity model: who owns each mutable location.

ROADMAP item 1 (the sharded, conservatively-synchronized multi-core
kernel) partitions the simulated grid by site or host and runs each
partition on its own core, exchanging only latency-mediated events.
That refactor is safe exactly when every piece of mutable state has a
single owning partition.  This module classifies ownership statically,
over the same never-imported AST representation the dataflow pass uses
(:mod:`repro.analysis.dataflow.symbols`):

* **entity families** — each module belongs to one of three families
  derived from its dotted name: ``host`` (hardware, guest OS, VMM,
  storage — state pinned to one physical machine), ``site``
  (middleware services and DHCP — state pinned to one site), or
  ``shared`` (kernel, observability, orchestration — deliberately
  partition-neutral);
* **mutable locations** — module-level and class-level names bound to
  mutable initializers (dict/list/set literals and comprehensions,
  ``dict()``/``defaultdict()``/``deque()``/``itertools.count()``),
  together with every *mutation site* that writes them (``global``
  rebinding, subscript stores, augmented assignment, mutating method
  calls, ``next()`` on counters) anywhere in the project;
* **process-wide cache sites** — ``functools.lru_cache`` / ``cache``
  decorations, with their bound and whether the decorated method's
  class is a frozen dataclass (the value-keyed pattern that cannot pin
  instances);
* **self-attribute writes** — per-class counts of ordinary
  ``self.attr`` mutation, the shard-local bulk the inventory reports.

The three lattice values — :data:`LOCAL`, :data:`CROSSING`,
:data:`GLOBAL` — order as ``LOCAL < CROSSING < GLOBAL``: a location is
shard-local until evidence promotes it.  Rules R15–R19
(:mod:`repro.analysis.shard.rules`) read this model; the generated
``docs/shard-safety.md`` inventory (:mod:`repro.analysis.shard.
inventory`) renders all of it with file:line provenance.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import dotted_name, is_self_attr
from repro.analysis.dataflow.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    build_project,
    own_nodes,
)

__all__ = ["LOCAL", "CROSSING", "GLOBAL", "HOST", "SITE", "SHARED",
           "MutableLocation", "MutationSite", "CacheSite", "ShardModel",
           "family_of_module", "build_shard_model"]

# -- the lattice -----------------------------------------------------------

#: Reachable from exactly one site/host entity; safe to partition.
LOCAL = "shard-local"
#: Written by one entity family, read or written by another; needs a
#: lookahead-mediated event in the sharded engine.
CROSSING = "shard-crossing"
#: Module- or class-level mutable state visible to every partition in
#: the process; must be owned by a Simulation or proven read-only.
GLOBAL = "process-global"

# -- entity families -------------------------------------------------------

HOST = "host"
SITE = "site"
SHARED = "shared"

#: Dotted-name components that pin a module's state to one physical
#: machine (a host shard when the grid is split per host).
_HOST_COMPONENTS = frozenset({"hardware", "guestos", "vmm", "storage"})
#: Components that pin state to one site (middleware services, DHCP).
_SITE_COMPONENTS = frozenset({"middleware", "dhcp"})


def family_of_module(name: str) -> str:
    """The entity family of a dotted module name.

    Site components are checked first so ``gridnet.dhcp`` lands in the
    site family even though the rest of ``gridnet`` is shared.
    """
    parts = set(name.split("."))
    if parts & _SITE_COMPONENTS:
        return SITE
    if parts & _HOST_COMPONENTS:
        return HOST
    return SHARED


#: Mutable-location names that look like memo tables; R17 claims these
#: so R15 does not double-report the same line.
_CACHE_NAME_RE = re.compile(r"cache|memo", re.IGNORECASE)

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "__setitem__",
})

#: Callables whose result is a mutable container (by expanded name).
_MUTABLE_CONSTRUCTORS = {
    "dict": "dict", "list": "list", "set": "set",
    "collections.defaultdict": "dict", "collections.OrderedDict": "dict",
    "collections.deque": "deque", "collections.Counter": "dict",
    "itertools.count": "counter",
}


class MutationSite:
    """One write to a mutable location."""

    __slots__ = ("module", "node", "how")

    def __init__(self, module: ModuleInfo, node: ast.AST, how: str):
        self.module = module
        self.node = node
        #: "rebind" | "subscript" | "augassign" | "method-call" | "next"
        self.how = how

    @property
    def where(self) -> str:
        return "%s:%d" % (self.module.path,
                          getattr(self.node, "lineno", 1))

    def __repr__(self) -> str:
        return "<MutationSite %s %s>" % (self.how, self.where)


class MutableLocation:
    """One module- or class-level name bound to a mutable value."""

    __slots__ = ("module", "name", "class_name", "node", "kind",
                 "mutations")

    def __init__(self, module: ModuleInfo, name: str, node: ast.AST,
                 kind: str, class_name: Optional[str] = None):
        self.module = module
        self.name = name
        self.class_name = class_name
        self.node = node
        #: "dict" | "list" | "set" | "deque" | "counter"
        self.kind = kind
        self.mutations: List[MutationSite] = []

    @property
    def label(self) -> str:
        """The name as written at the definition site."""
        if self.class_name is None:
            return self.name
        return "%s.%s" % (self.class_name, self.name)

    @property
    def qualname(self) -> str:
        return "%s.%s" % (self.module.name, self.label)

    @property
    def is_cache_named(self) -> bool:
        return bool(_CACHE_NAME_RE.search(self.name))

    @property
    def affinity(self) -> str:
        """Lattice value: GLOBAL once any mutation site exists."""
        return GLOBAL if self.mutations else LOCAL

    def __repr__(self) -> str:
        return "<MutableLocation %s (%d mutation(s))>" % (
            self.qualname, len(self.mutations))


class CacheSite:
    """One ``functools.lru_cache`` / ``functools.cache`` decoration."""

    __slots__ = ("function", "node", "maxsize", "explicit_unbounded",
                 "frozen_dataclass")

    def __init__(self, function: FunctionInfo, node: ast.AST,
                 maxsize: Optional[int], explicit_unbounded: bool,
                 frozen_dataclass: bool):
        self.function = function
        #: The decorator node (findings anchor here).
        self.node = node
        self.maxsize = maxsize
        self.explicit_unbounded = explicit_unbounded
        #: True when the decorated method's class is a frozen dataclass
        #: (value-keyed: cannot pin mutable instances process-wide).
        self.frozen_dataclass = frozen_dataclass

    @property
    def bounded(self) -> bool:
        return not self.explicit_unbounded

    @property
    def where(self) -> str:
        return "%s:%d" % (self.function.module.path,
                          getattr(self.node, "lineno", 1))

    def __repr__(self) -> str:
        return "<CacheSite %s maxsize=%r>" % (self.function.qualname,
                                              self.maxsize)


class ShardModel:
    """The project plus everything the shard rules need to classify."""

    #: The command-line switch of the rules that read this model.
    flag = "--shard"

    def __init__(self, project: ProjectModel):
        self.project = project
        #: (module name, location label) -> MutableLocation.
        self.locations: Dict[Tuple[str, str], MutableLocation] = {}
        #: Module-level names bound to *immutable* initializers; they
        #: become locations (kind "binding") only when some function
        #: rebinds them through ``global`` — the warm-pool pattern.
        self._bindings: Dict[Tuple[str, str],
                             Tuple[ModuleInfo, ast.AST]] = {}
        self.cache_sites: List[CacheSite] = []
        #: Class qualname -> number of ``self.attr`` writes in its own
        #: methods (the shard-local bulk, reported by the inventory).
        self.self_writes: Dict[str, int] = {}
        self._collect()

    # -- lookups -----------------------------------------------------------

    def family(self, module_name: str) -> str:
        return family_of_module(module_name)

    def class_family(self, klass: ClassInfo) -> str:
        return family_of_module(klass.module.name)

    def sorted_locations(self) -> List[MutableLocation]:
        return [self.locations[key] for key in sorted(self.locations)]

    def annotated_class(self, module: ModuleInfo, func: ast.AST,
                        param: str) -> Optional[ClassInfo]:
        """The project class a parameter's annotation resolves to."""
        for arg in getattr(func.args, "args", []):
            if arg.arg != param or arg.annotation is None:
                continue
            dotted = dotted_name(arg.annotation)
            if dotted is None:
                return None
            expanded = self.project.expand(module, dotted)
            klass = self.project.classes.get(expanded)
            if klass is None:
                klass = module.classes.get(dotted)
            return klass
        return None

    # -- construction ------------------------------------------------------

    def _collect(self) -> None:
        for name in sorted(self.project.modules):
            module = self.project.modules[name]
            self._collect_locations(module)
            self._collect_cache_sites(module)
            self._collect_self_writes(module)
        for name in sorted(self.project.modules):
            self._collect_mutations(self.project.modules[name])

    def _collect_locations(self, module: ModuleInfo) -> None:
        for node in _toplevel(module.tree.body):
            if isinstance(node, ast.ClassDef):
                for child in _toplevel(node.body):
                    self._maybe_location(module, child,
                                         class_name=node.name)
            else:
                self._maybe_location(module, node)

    def _maybe_location(self, module: ModuleInfo, node: ast.AST,
                        class_name: Optional[str] = None) -> None:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            return
        kind = self._mutable_kind(module, value)
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            label = target.id if class_name is None \
                else "%s.%s" % (class_name, target.id)
            key = (module.name, label)
            if kind is None:
                if class_name is None and key not in self._bindings:
                    self._bindings[key] = (module, node)
                continue
            self.locations[key] = MutableLocation(
                module, target.id, node, kind, class_name=class_name)

    def _mutable_kind(self, module: ModuleInfo,
                      value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Dict) or isinstance(value, ast.DictComp):
            return "dict"
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None:
                expanded = self.project.expand(module, dotted)
                return _MUTABLE_CONSTRUCTORS.get(expanded)
        return None

    def _collect_cache_sites(self, module: ModuleInfo) -> None:
        for info in module.functions.values():
            for decorator in getattr(info.node, "decorator_list", []):
                site = self._cache_decoration(module, info, decorator)
                if site is not None:
                    self.cache_sites.append(site)
        self.cache_sites.sort(key=lambda s: (s.function.module.path,
                                             s.node.lineno))

    def _cache_decoration(self, module: ModuleInfo, info: FunctionInfo,
                          decorator: ast.AST) -> Optional[CacheSite]:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call is not None else decorator
        dotted = dotted_name(target)
        if dotted is None:
            return None
        expanded = module.imports.get(dotted,
                                      self.project.expand(module, dotted))
        if expanded not in ("functools.lru_cache", "functools.cache"):
            return None
        if expanded == "functools.cache":
            maxsize: Optional[int] = None
            unbounded = True
        elif call is None:
            maxsize, unbounded = 128, False  # bare @lru_cache
        else:
            maxsize, unbounded = _lru_maxsize(call)
        frozen = False
        if info.class_name is not None:
            klass = module.classes.get(info.class_name)
            frozen = klass is not None and \
                _is_frozen_dataclass(self.project, module, klass)
        return CacheSite(info, decorator, maxsize, unbounded, frozen)

    def _collect_self_writes(self, module: ModuleInfo) -> None:
        for info in module.functions.values():
            if info.class_name is None:
                continue
            qualname = "%s.%s" % (module.name, info.class_name)
            count = self.self_writes.get(qualname, 0)
            for node in own_nodes(info.node):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets \
                        if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if is_self_attr(target):
                            count += 1
            self.self_writes[qualname] = count

    # -- mutation scan -----------------------------------------------------

    def _collect_mutations(self, module: ModuleInfo) -> None:
        # Module-level statements first (import-time population), then
        # each function body under its own local-scope rules.
        self._scan_scope(module, module.tree, is_function=False)
        for info in module.functions.values():
            self._scan_scope(module, info.node, is_function=True,
                             params=set(info.params))

    def _scan_scope(self, module: ModuleInfo, scope: ast.AST,
                    is_function: bool,
                    params: Optional[Set[str]] = None) -> None:
        declared_global: Set[str] = set()
        local_names: Set[str] = set(params or ())
        nodes = own_nodes(scope)
        if is_function:
            for node in nodes:
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            for node in nodes:
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets \
                        if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Name) and \
                                target.id not in declared_global:
                            local_names.add(target.id)
                elif isinstance(node, (ast.For, ast.comprehension)):
                    target = node.target
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            local_names.add(leaf.id)

        def refers_to_module(name: str) -> bool:
            if not is_function:
                return True
            return name in declared_global or name not in local_names

        for node in nodes:
            self._scan_node(module, node, is_function, declared_global,
                            refers_to_module)

    def _scan_node(self, module: ModuleInfo, node: ast.AST,
                   is_function: bool, declared_global: Set[str],
                   refers_to_module) -> None:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            how = "augassign" if isinstance(node, ast.AugAssign) \
                else "rebind"
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    # A module-level rebind of a tracked location is a
                    # mutation only inside a function (via ``global``);
                    # at module level the defining assignment itself
                    # would match.
                    if is_function and target.id in declared_global:
                        self._record(module, target.id, node, how)
                elif isinstance(target, ast.Subscript):
                    self._record_chain(module, target.value, node,
                                       "subscript", refers_to_module)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self._record_chain(module, target.value, node,
                                       "subscript", refers_to_module)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in _MUTATOR_METHODS:
                self._record_chain(module, func.value, node,
                                   "method-call", refers_to_module)
            elif isinstance(func, ast.Name) and func.id == "next" \
                    and node.args:
                self._record_chain(module, node.args[0], node, "next",
                                   refers_to_module, counters_only=True)

    def _record_chain(self, module: ModuleInfo, base: ast.AST,
                      node: ast.AST, how: str, refers_to_module,
                      counters_only: bool = False) -> None:
        """Attribute/Name chain -> tracked location, if any."""
        dotted = dotted_name(base)
        if dotted is None:
            return
        parts = dotted.split(".")
        candidates: List[Tuple[str, str]] = []
        if len(parts) == 1:
            if refers_to_module(parts[0]):
                candidates.append((module.name, parts[0]))
        else:
            # ``Class.attr`` in this module, or ``alias.NAME`` /
            # ``alias.Class.attr`` through an import.
            candidates.append((module.name, dotted))
            expanded = self.project.expand(module, dotted)
            if expanded != dotted and "." in expanded:
                for cut in (1, 2):
                    if len(expanded.rsplit(".", cut)) == cut + 1:
                        head = expanded.rsplit(".", cut)
                        candidates.append((head[0], ".".join(head[1:])))
        for key in candidates:
            location = self.locations.get(key)
            if location is None:
                continue
            if counters_only and location.kind != "counter":
                continue
            location.mutations.append(MutationSite(module, node, how))
            return

    def _record(self, module: ModuleInfo, name: str, node: ast.AST,
                how: str) -> None:
        key = (module.name, name)
        location = self.locations.get(key)
        if location is None:
            binding = self._bindings.get(key)
            if binding is None:
                return
            owner, def_node = binding
            location = self.locations[key] = MutableLocation(
                owner, name, def_node, "binding")
        location.mutations.append(MutationSite(module, node, how))

    def __repr__(self) -> str:
        mutated = sum(1 for loc in self.locations.values()
                      if loc.mutations)
        return "<ShardModel %d location(s), %d mutated, %d cache site(s)>" \
            % (len(self.locations), mutated, len(self.cache_sites))


def build_shard_model(paths: Iterable[str]) -> ShardModel:
    """Parse ``paths`` and build the shard-affinity model."""
    return ShardModel(build_project(paths))


# -- AST helpers -----------------------------------------------------------

def _toplevel(body: Iterable[ast.AST]) -> Iterable[ast.AST]:
    """Statements at one nesting level, descending into If/Try arms."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    yield child
        else:
            yield node




def _lru_maxsize(call: ast.Call) -> Tuple[Optional[int], bool]:
    """(maxsize, explicitly_unbounded) for an ``lru_cache(...)`` call."""
    value: Optional[ast.AST] = None
    for keyword in call.keywords:
        if keyword.arg == "maxsize":
            value = keyword.value
    if value is None and call.args:
        value = call.args[0]
    if value is None:
        return 128, False
    if isinstance(value, ast.Constant):
        if value.value is None:
            return None, True
        if isinstance(value.value, int):
            return value.value, False
    return None, False  # dynamic bound: treat as bounded-by-intent


def _is_frozen_dataclass(project: ProjectModel, module: ModuleInfo,
                         klass: ClassInfo) -> bool:
    for decorator in klass.node.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call is not None else decorator
        dotted = dotted_name(target)
        if dotted is None:
            continue
        expanded = module.imports.get(dotted,
                                      project.expand(module, dotted))
        if expanded not in ("dataclasses.dataclass", "dataclass"):
            continue
        if call is None:
            return False  # plain @dataclass is not frozen
        for keyword in call.keywords:
            if keyword.arg == "frozen" and \
                    isinstance(keyword.value, ast.Constant):
                return bool(keyword.value.value)
        return False
    return False
