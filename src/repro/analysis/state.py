"""The state model: every mutable container and every access to it.

The ``--shard`` rules (R15–R19) ask who may write a piece of state; the
``--scale`` rules (R22–R26) ask how big it can grow and who walks it.
Both read this one model, built once per run from the shared
:class:`~repro.analysis.dataflow.symbols.ProjectModel`, never importing
the code under analysis:

* **locations** — every container the tree binds: module-level and
  class-level names bound to a dict/list/set/deque/counter, and
  ``self.`` attributes assigned a container in a method.  One
  classifier (:func:`container_kind`) names each kind.  A module-level
  name bound to an immutable value becomes a location (kind
  ``binding``) once some function rebinds it through ``global``;
* **sites** — one walk over every scope (module bodies, functions,
  methods and the defs nested in them) classifies each access to a
  location: a ``global`` rebind, a subscript store or ``del``, a grow
  or shrink method, ``next()`` on a counter, a heap push or pop, a
  scan, a membership test, or ``sorted``/``min``/``max``.  Each site
  carries its function and whether it sits in a loop, computed on the
  way down;
* **shard affinity** — ``LOCAL < CROSSING < GLOBAL``: a module- or
  class-level location that any site writes is process-global, shared
  by every shard in the process (:attr:`Location.affinity`);
* **growth dimension** — ``BOUNDED < PER_HOST < PER_SITE <
  POPULATION``: a container starts bounded and is promoted by its name
  (with at least one runtime grow site), by the identifiers stored
  into it, or by growing on a per-event path with no shrink site
  anywhere (:attr:`Location.dimension`);
* **the hot set** — functions that run per simulated event: the
  call-graph closure of every generator (a simulation process) and of
  the kernel drain methods, also following unresolved ``x.meth()``
  calls to every project method of that name.  That over-approximates
  on purpose: a false hot function costs one justified suppression, a
  false cold one hides a per-event scan;
* **process caches** — ``functools.lru_cache``/``cache`` decorations
  with their bound and whether the class is a frozen dataclass, and the
  per-class count of ``self.attr`` writes the shard inventory reports.

The two families resolve a receiver differently, and each keeps its
own answer: the shard rules follow ``Class.attr`` and imported
``module.NAME`` paths but not local names, aliases or wrappers such as
``d[k].append``; the scale rules follow local aliases, ``self.attr``
through base classes and those wrappers.  For both, every name a
function binds (a parameter, an assignment or loop target) shadows a
module-level name unless it is declared ``global``.  A site records
which family counts it (:attr:`Site.shard`, :attr:`Site.scale`).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import dotted_name, is_self_attr, walk_tree
from repro.analysis.dataflow.callgraph import CallGraph
from repro.analysis.dataflow.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    build_project,
)

__all__ = ["LOCAL", "CROSSING", "GLOBAL", "HOST", "SITE", "SHARED",
           "BOUNDED", "PER_HOST", "PER_SITE", "POPULATION", "DIMENSIONS",
           "dim_order", "family_of_module", "container_kind", "Site",
           "Location", "CacheSite", "StateModel", "build_state_model"]

# -- shard affinity --------------------------------------------------------

#: Reachable from exactly one site/host entity; safe to partition.
LOCAL = "shard-local"
#: Written by one entity family, read or written by another.
CROSSING = "shard-crossing"
#: Module- or class-level mutable state visible to every partition in
#: the process; must be owned by a Simulation or proven read-only.
GLOBAL = "process-global"

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


# -- growth dimension ------------------------------------------------------

#: Size independent of scenario scale.
BOUNDED = "bounded"
#: One entry per physical host.
PER_HOST = "per-host"
#: One entry per site.
PER_SITE = "per-site"
#: One entry per session/VM/job/user/request — unbounded under open
#: arrivals, the dimension the scale rules act on.
POPULATION = "per-session"

DIMENSIONS = (BOUNDED, PER_HOST, PER_SITE, POPULATION)
_ORDER = {dim: index for index, dim in enumerate(DIMENSIONS)}


def dim_order(dimension: str) -> int:
    """Position of ``dimension`` on the lattice (bigger grows faster)."""
    return _ORDER[dimension]


#: Identifier shapes that name one member of the session population.
_POP_ID_RE = re.compile(
    r"(?:^|_)(session|job|task|vm|user|request|flow|account|decision|"
    r"outcome|record|arrival|pilot)s?(?:_|$)")
#: Identifier shapes that name one physical host.
_HOST_ID_RE = re.compile(r"(?:^|_)(host|machine|node)s?(?:_|$)")
#: Identifier shapes that name one site.
_SITE_ID_RE = re.compile(r"(?:^|_)(site)s?(?:_|$)")


def _classify_identifier(name: str) -> Tuple[str, Optional[str]]:
    """(dimension, matched word) for one identifier."""
    lowered = name.lower()
    for dimension, pattern in ((POPULATION, _POP_ID_RE),
                               (PER_SITE, _SITE_ID_RE),
                               (PER_HOST, _HOST_ID_RE)):
        match = pattern.search(lowered)
        if match:
            return dimension, match.group(1)
    return BOUNDED, None


#: Memo-table names: R17 claims these from R15, and R26 anchors on them.
_CACHE_NAME_RE = re.compile(r"cache|memo", re.IGNORECASE)
#: Callee names that rebuild a derived structure from scratch.
_REBUILD_RE = re.compile(r"refill|rebuild|recompute|recalc|sorted",
                         re.IGNORECASE)
#: Names in a guard test that mark a sanctioned invalidation check.
_INVALIDATION_RE = re.compile(
    r"epoch|generation|dirty|stale|version|valid|cache|memo|fresh|miss",
    re.IGNORECASE)

# -- containers and site kinds ---------------------------------------------

#: Callables whose result is a container, by expanded name.
_CONSTRUCTORS = {
    "dict": "dict", "list": "list", "set": "set",
    "collections.defaultdict": "dict", "collections.OrderedDict": "dict",
    "collections.deque": "deque", "collections.Counter": "dict",
    "itertools.count": "counter",
}
#: Kinds whose size can grow: the growth-dimension lattice applies.
#: A ``deque(maxlen=...)`` is kind ``ring`` and a counter holds no
#: entries, so neither is one.
GROWABLE = frozenset({"dict", "list", "set", "deque"})

#: Receiver methods that add entries.
GROW_METHODS = frozenset({"append", "appendleft", "add", "insert",
                          "extend", "extendleft", "setdefault", "update"})
#: Receiver methods that remove entries.
SHRINK_METHODS = frozenset({"pop", "popleft", "popitem", "remove",
                            "discard", "clear"})
#: Method names that mutate their receiver in place.
MUTATOR_METHODS = GROW_METHODS | SHRINK_METHODS | {"__setitem__"}
#: Builtins that imply a full ordered pass over their first argument.
SORTISH_CALLS = frozenset({"sorted", "min", "max"})

#: Site kinds that add entries (``store`` is ``c[k] = v``).
GROWS = GROW_METHODS | {"store", "heappush"}
#: Site kinds that remove entries (``prune`` is ``c[:] = kept``,
#: ``reset`` a re-initialization of a ``self.`` attribute).
SHRINKS = SHRINK_METHODS | {"del", "prune", "heappop", "reset"}
#: Site kinds the shard rules count as writes (``augstore`` is
#: ``c[k] += v``, ``rebind`` an assignment through ``global``).
WRITES = MUTATOR_METHODS | {"store", "augstore", "prune", "del",
                            "rebind", "next", "heappush", "heappop"}
#: Site kinds the scale rules read.
SCALE_KINDS = GROWS | SHRINKS | SORTISH_CALLS | {"scan", "membership"}

#: Calls through which the receiver chain is transparent
#: (``d.get(k, []).append(x)`` still grows ``d``'s contents).
_TRANSPARENT_METHODS = frozenset({"get", "setdefault", "values", "items",
                                  "keys", "copy"})
#: Builtins through which iteration is transparent
#: (``for x in sorted(coll)`` still scans ``coll``).
_TRANSPARENT_CALLS = frozenset({"list", "tuple", "sorted", "reversed",
                                "enumerate", "set", "frozenset", "iter"})

_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_ASSIGNS = (ast.Assign, ast.AugAssign, ast.AnnAssign)
_SCOPES = _DEFS + (ast.Lambda, ast.ClassDef)
#: What a kernel drain loop allocates, by node type (R25).
_ALLOCATIONS = {ast.Dict: "dict", ast.List: "list", ast.Set: "set",
                ast.ListComp: "comprehension", ast.SetComp: "comprehension",
                ast.DictComp: "comprehension",
                ast.GeneratorExp: "comprehension", ast.Lambda: "lambda",
                ast.FunctionDef: "closure", ast.AsyncFunctionDef: "closure"}

#: Kernel drain methods: (class name, method name) pairs that run once
#: per drained event.  Subclass overrides found by base-walking count
#: too.
_DRAIN_SEEDS = frozenset({
    ("Simulation", "step"), ("Simulation", "_run_fast"),
    ("Simulation", "run"), ("Simulation", "run_until_complete"),
    ("Simulation", "_pop_next"), ("Simulation", "_enqueue_event"),
    ("Simulation", "peek"),
    ("Event", "succeed"), ("Event", "fail"), ("Event", "_process"),
    ("Process", "_resume"), ("Condition", "_check"),
})

#: Method names the name-based hot closure never follows: container and
#: stdlib verbs that would connect everything to everything.
_CHA_STOPLIST = frozenset({
    "append", "appendleft", "add", "insert", "extend", "extendleft",
    "setdefault", "update", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "get", "keys", "values", "items", "copy",
    "sort", "reverse", "count", "index", "join", "split", "strip",
    "format", "startswith", "endswith", "encode", "decode", "observe",
    "inc", "dec", "set", "begin", "end", "close", "write", "read",
})

#: Location scopes.
MODULE, CLASS, INSTANCE = "module", "class", "instance"


def container_kind(project: ProjectModel, module: ModuleInfo,
                   value: ast.AST) -> Optional[str]:
    """The container kind ``value`` builds, or None for anything else."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        if dotted is not None:
            kind = _CONSTRUCTORS.get(project.expand(module, dotted))
            if kind == "deque" and any(
                    kw.arg == "maxlen"
                    and not (isinstance(kw.value, ast.Constant)
                             and kw.value.value is None)
                    for kw in value.keywords):
                return "ring"  # size capped by construction
            return kind
    return None


class Site:
    """One access to state (or one allocation in a kernel drain loop)."""

    __slots__ = ("function", "module", "node", "kind", "in_loop", "shard",
                 "scale")

    def __init__(self, function: Optional[FunctionInfo],
                 module: ModuleInfo, node: ast.AST, kind: str,
                 in_loop: bool = False):
        #: The enclosing function (for a nested def, the function it is
        #: nested in); None for module-level (import-time) code.
        self.function = function
        self.module = module
        self.node = node
        #: One of :data:`WRITES` or :data:`SCALE_KINDS`, or what a
        #: kernel drain loop allocates.
        self.kind = kind
        self.in_loop = in_loop
        #: Whether the shard rules / the scale rules count this site
        #: against its location.
        self.shard = False
        self.scale = False

    @property
    def where(self) -> str:
        return "%s:%d" % (self.module.path, getattr(self.node, "lineno", 1))

    def __repr__(self) -> str:
        return "<Site %s %s>" % (self.kind, self.where)


class Location:
    """One container: a module- or class-level name or a ``self.`` attr."""

    __slots__ = ("module", "name", "class_name", "node", "kind", "scope",
                 "sites", "dimension", "why")

    def __init__(self, module: ModuleInfo, name: str, node: ast.AST,
                 kind: str, scope: str = MODULE,
                 class_name: Optional[str] = None):
        self.module = module
        self.name = name
        self.class_name = class_name
        #: The defining assignment (findings anchor here).
        self.node = node
        #: "dict" | "list" | "set" | "deque" | "ring" | "counter" |
        #: "binding"
        self.kind = kind
        #: MODULE, CLASS or INSTANCE.
        self.scope = scope
        self.sites: List[Site] = []
        self.dimension = BOUNDED
        self.why = "no growth evidence"

    @property
    def label(self) -> str:
        """The name as written: ``Class.attr`` or the bare name."""
        if self.class_name is None:
            return self.name
        return "%s.%s" % (self.class_name, self.name)

    @property
    def qualname(self) -> str:
        return "%s.%s" % (self.module.name, self.label)

    @property
    def where(self) -> str:
        return "%s:%d" % (self.module.path, getattr(self.node, "lineno", 1))

    @property
    def is_cache_named(self) -> bool:
        return bool(_CACHE_NAME_RE.search(self.name))

    @property
    def growable(self) -> bool:
        """Does the growth-dimension lattice (the scale rules) apply?"""
        return self.kind in GROWABLE and self.scope != CLASS

    # -- the shard view ------------------------------------------------------

    @property
    def mutations(self) -> List[Site]:
        return [site for site in self.sites if site.shard]

    @property
    def affinity(self) -> str:
        """Lattice value: GLOBAL once any site writes the location."""
        return GLOBAL if self.mutations else LOCAL

    # -- the scale view ------------------------------------------------------

    def _scaled(self, kinds: Iterable[str]) -> List[Site]:
        return [site for site in self.sites
                if site.scale and site.kind in kinds]

    @property
    def grows(self) -> List[Site]:
        return self._scaled(GROWS)

    @property
    def shrinks(self) -> List[Site]:
        return self._scaled(SHRINKS)

    @property
    def scans(self) -> List[Site]:
        return self._scaled(("scan",))

    @property
    def memberships(self) -> List[Site]:
        return self._scaled(("membership",))

    @property
    def sorts(self) -> List[Site]:
        return self._scaled(SORTISH_CALLS)

    def promote(self, dimension: str, why: str) -> None:
        if _ORDER[dimension] > _ORDER[self.dimension]:
            self.dimension = dimension
            self.why = why

    def __repr__(self) -> str:
        return "<Location %s %s (%d site(s))>" % (self.qualname, self.kind,
                                                  len(self.sites))


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

    def __repr__(self) -> str:
        return "<CacheSite %s maxsize=%r>" % (self.function.qualname,
                                              self.maxsize)


class _Scope:
    """What one walked body knows about its names."""

    __slots__ = ("module", "function", "outer", "locals", "globals",
                 "assigns", "alias_values", "_aliases")

    def __init__(self, module: ModuleInfo,
                 function: Optional[FunctionInfo] = None,
                 outer: Optional["_Scope"] = None, args: Iterable[str] = ()):
        self.module = module
        self.function = function
        self.outer = outer
        #: Names this body binds: parameters, plain assignment targets,
        #: loop and comprehension targets (each shadows a module-level
        #: name).
        self.locals: Set[str] = set(args)
        self.globals: Set[str] = set()
        #: (name, node, in_loop) for every ``name = ...``/``name op= ...``.
        self.assigns: List[Tuple[str, ast.AST, bool]] = []
        #: (name, value) of single-name assignments in the function's
        #: own body, in walk order; nested defs share their function's.
        self.alias_values: List[Tuple[str, ast.AST]] = \
            outer.alias_values if outer is not None else []
        self._aliases: Optional[Dict[str, Location]] = None

    def is_module_name(self, name: str) -> bool:
        """Does ``name`` here refer to the module-level binding?"""
        if self.function is None or name in self.globals:
            return True
        if name in self.locals:
            return False
        return self.outer is None or self.outer.is_module_name(name)


class StateModel:
    """The project's containers, their access sites and the hot set."""

    def __init__(self, project: ProjectModel):
        self.project = project
        self.graph = CallGraph(project)
        #: (module name, name) for module-level names, (module name,
        #: "Class.attr") for class-level ones and (class qualname,
        #: attr) for ``self.`` attributes -> Location.
        self.locations: Dict[Tuple[str, str], Location] = {}
        #: Module-level names bound to an immutable value: a location
        #: (kind "binding") once a function rebinds one via ``global``.
        self._bindings: Dict[Tuple[str, str],
                             Tuple[ModuleInfo, ast.AST]] = {}
        self.cache_sites: List[CacheSite] = []
        #: Class qualname -> number of ``self.attr`` writes in its own
        #: methods (the shard-local bulk, reported by the inventory).
        self.self_writes: Dict[str, int] = {}
        #: Function qualname -> why it runs per event.
        self.hot: Dict[str, str] = {}
        #: The kernel drain subset of ``hot`` (R25's scope).
        self.kernel_hot: Dict[str, str] = {}
        #: (site, target) for each cache-named structure rebuilt in a
        #: hot function without an invalidation guard (R26).
        self.rebuilds: List[Tuple[Site, str]] = []
        #: Containers and closures built in kernel drain loops (R25).
        self.kernel_allocs: List[Site] = []
        #: Method name -> sorted method qualnames (the CHA-lite index).
        self._methods_by_name: Dict[str, List[str]] = {}
        #: (class qualname, attr) -> (function, node, kind) for every
        #: ``self.attr = <container>``.
        self._instance_assigns: Dict[Tuple[str, str], List[
            Tuple[FunctionInfo, ast.AST, str]]] = {}
        #: (scope, node, kind, receiver, in_loop, payload) per access,
        #: resolved once every location is known.
        self._accesses: List[tuple] = []
        self._scopes: List[_Scope] = []
        self._index_methods()
        self._compute_hot()
        self._handlers = {
            ast.Call: self._visit_call, ast.Assign: self._visit_assign,
            ast.AugAssign: self._visit_augassign,
            ast.Delete: self._visit_delete, ast.For: self._visit_for,
            ast.comprehension: self._bind_loop_target,
            ast.Compare: self._visit_compare,
            ast.Global: self._visit_global,
        }
        for comprehension in _COMPREHENSIONS:
            self._handlers[comprehension] = self._visit_comp
        for name in sorted(project.modules):
            self._collect_locations(project.modules[name])
        for name in sorted(project.modules):
            module = project.modules[name]
            self._walk(_Scope(module), module.tree)
            for key in sorted(module.functions):
                self._walk_function(module.functions[key])
        self._resolve_all()
        self._infer_dimensions()

    # -- lookups -------------------------------------------------------------

    def sorted_locations(self) -> List[Location]:
        return [self.locations[key] for key in sorted(self.locations)]

    def sorted_collections(self) -> List[Location]:
        """The locations the growth-dimension lattice applies to."""
        return [loc for loc in self.sorted_locations() if loc.growable]

    def is_hot(self, qualname: str) -> bool:
        return qualname in self.hot

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

    # -- the hot set ---------------------------------------------------------

    def _index_methods(self) -> None:
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            if info.class_name is None:
                continue
            self._methods_by_name.setdefault(info.name, []).append(qualname)

    def _drain_classes(self) -> Dict[str, Set[str]]:
        """Kernel class name -> drain method names, subclasses included."""
        wanted: Dict[str, Set[str]] = {}
        for klass_name, method in _DRAIN_SEEDS:
            wanted.setdefault(klass_name, set()).add(method)
        # Subclasses inherit their base's drain surface.
        grew = True
        while grew:
            grew = False
            for qualname in sorted(self.project.classes):
                klass = self.project.classes[qualname]
                if klass.name in wanted:
                    continue
                for base in klass.bases:
                    resolved = self.project.expand(klass.module, base)
                    base_name = resolved.rsplit(".", 1)[-1]
                    if base_name in wanted:
                        wanted[klass.name] = set(wanted[base_name])
                        grew = True
                        break
        return wanted

    def _compute_hot(self) -> None:
        drains = self._drain_classes()
        kernel_seeds: Dict[str, str] = {}
        seeds: Dict[str, str] = {}
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            if info.class_name in drains and \
                    info.name in drains[info.class_name]:
                kernel_seeds[qualname] = "kernel drain method"
            if info.is_generator:
                seeds[qualname] = "simulation process (generator)"
        self.kernel_hot = self._closure(kernel_seeds, follow_names=False)
        seeds.update(self.kernel_hot)
        self.hot = self._closure(seeds, follow_names=True)

    def _closure(self, seeds: Dict[str, str],
                 follow_names: bool) -> Dict[str, str]:
        hot = dict(seeds)
        todo = sorted(seeds)
        while todo:
            caller = todo.pop()
            for callee in self.graph.callees(caller):
                if callee not in hot:
                    hot[callee] = "called from %s" % caller
                    todo.append(callee)
            if not follow_names:
                continue
            for external in self.graph.external.get(caller, []):
                name = external.rsplit(".", 1)[-1]
                if "." not in external or name in _CHA_STOPLIST:
                    continue
                for target in self._methods_by_name.get(name, []):
                    if target not in hot:
                        hot[target] = "method %s() called from %s" \
                            % (name, caller)
                        todo.append(target)
        return hot

    # -- module- and class-level locations, cache decorations ----------------

    def _collect_locations(self, module: ModuleInfo) -> None:
        for node in _toplevel(module.tree.body):
            if isinstance(node, ast.ClassDef):
                for child in _toplevel(node.body):
                    self._maybe_location(module, child, node.name)
            else:
                self._maybe_location(module, node, None)
        for info in module.functions.values():
            for decorator in getattr(info.node, "decorator_list", []):
                site = self._cache_decoration(module, info, decorator)
                if site is not None:
                    self.cache_sites.append(site)
        self.cache_sites.sort(key=lambda s: (s.function.module.path,
                                             s.node.lineno))

    def _maybe_location(self, module: ModuleInfo, node: ast.AST,
                        class_name: Optional[str]) -> None:
        """Record a name's first binding to a container as its location."""
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            return
        kind = container_kind(self.project, module, value)
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            label = target.id if class_name is None \
                else "%s.%s" % (class_name, target.id)
            key = (module.name, label)
            if kind is None:
                if class_name is None:
                    self._bindings.setdefault(key, (module, node))
            elif key not in self.locations:
                self.locations[key] = Location(
                    module, target.id, node, kind,
                    CLASS if class_name else MODULE, class_name)

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

    # -- the walk ------------------------------------------------------------

    def _walk_function(self, info: FunctionInfo) -> None:
        scope = _Scope(info.module, info, args=info.params)
        # Nested defs (spawned closures, callbacks) count toward the
        # function they are nested in, or an eviction hiding in the
        # ``finally`` of a spawned fetcher would be invisible.
        nested = [(node, scope) for node in self._walk(scope, info.node,
                                                       own=True)]
        while nested:
            node, outer = nested.pop()
            inner = _Scope(info.module, info, outer,
                           [arg.arg for arg in node.args.args])
            nested.extend((child, inner)
                          for child in self._walk(inner, node))

    def _walk(self, scope: _Scope, root: ast.AST,
              own: bool = False) -> List[ast.AST]:
        """Classify every node of ``root``'s own body, depth-first, last
        child first; returns the defs nested in it."""
        self._scopes.append(scope)
        info = scope.function
        method = own and info is not None and info.class_name is not None
        kernel = own and info is not None and info.qualname in self.kernel_hot
        hot = own and info is not None and info.qualname in self.hot
        handlers = self._handlers
        nested: List[ast.AST] = []
        writes = 0
        todo = [(child, False) for child in ast.iter_child_nodes(root)]
        while todo:
            node, in_loop = todo.pop()
            node_type = type(node)
            handler = handlers.get(node_type)
            if handler is not None:
                handler(scope, node, in_loop)
            if own and node_type in _ASSIGNS:
                if method:
                    writes += self._visit_method_assign(info, node)
                if hot and node_type is ast.Assign:
                    self._visit_rebuild(info, node)
            if kernel and in_loop and node_type in _ALLOCATIONS:
                self.kernel_allocs.append(Site(
                    info, info.module, node, _ALLOCATIONS[node_type],
                    True))
            if node_type in _SCOPES:
                if node_type in _DEFS:
                    nested.append(node)
                continue
            inner = in_loop or node_type in _LOOPS
            todo.extend([(child, inner)
                         for child in ast.iter_child_nodes(node)])
        if method:
            qualname = "%s.%s" % (info.module.name, info.class_name)
            self.self_writes[qualname] = \
                self.self_writes.get(qualname, 0) + writes
        return nested

    def _access(self, scope: _Scope, node: ast.AST, kind: str,
                receiver: ast.AST, in_loop: bool,
                payload: Optional[List[ast.AST]] = None) -> None:
        if scope.function is None and kind not in WRITES:
            return  # the scale rules read runtime sites only
        self._accesses.append((scope, node, kind, receiver, in_loop,
                               payload))

    def _visit_call(self, scope: _Scope, node: ast.Call,
                    in_loop: bool) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATOR_METHODS:
                payload = [func.value] + list(node.args) \
                    if func.attr in GROW_METHODS else None
                self._access(scope, node, func.attr, func.value, in_loop,
                             payload)
        elif isinstance(func, ast.Name):
            if node.args and (func.id == "next"
                              or func.id in SORTISH_CALLS):
                self._access(scope, node, func.id, node.args[0], in_loop)
        if scope.function is None or not node.args:
            return
        dotted = dotted_name(func)
        if dotted is not None:
            expanded = self.project.expand(scope.module, dotted)
            if expanded in ("heapq.heappush", "heapq.heapreplace"):
                self._access(scope, node, "heappush", node.args[0],
                             in_loop, list(node.args))
            elif expanded == "heapq.heappop":
                self._access(scope, node, "heappop", node.args[0],
                             in_loop)

    def _visit_assign(self, scope: _Scope, node: ast.Assign,
                      in_loop: bool) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(scope, target.id, node, in_loop)
            elif isinstance(target, ast.Subscript):
                sliced = target.slice
                if isinstance(sliced, ast.Slice) and sliced.lower is None \
                        and sliced.upper is None and sliced.step is None:
                    self._access(scope, node, "prune", target.value,
                                 in_loop)
                else:
                    self._access(scope, node, "store", target.value,
                                 in_loop, [sliced, node.value])
        if scope.function is not None and scope.outer is None and \
                len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            scope.alias_values.append((node.targets[0].id, node.value))

    def _visit_augassign(self, scope: _Scope, node: ast.AugAssign,
                         in_loop: bool) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            self._bind(scope, target.id, node, in_loop)
        elif isinstance(target, ast.Subscript):
            self._access(scope, node, "augstore", target.value, in_loop)

    def _bind(self, scope: _Scope, name: str, node: ast.AST,
              in_loop: bool) -> None:
        if scope.function is not None:
            scope.locals.add(name)
            scope.assigns.append((name, node, in_loop))

    def _visit_delete(self, scope: _Scope, node: ast.Delete,
                      in_loop: bool) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._access(scope, node, "del", target.value, in_loop)

    def _visit_for(self, scope: _Scope, node: ast.For,
                   in_loop: bool) -> None:
        self._bind_loop_target(scope, node, in_loop)
        self._access(scope, node, "scan", node.iter, in_loop)

    def _bind_loop_target(self, scope: _Scope, node: ast.AST,
                             in_loop: bool) -> None:
        if scope.function is not None:
            scope.locals.update(leaf.id for leaf in ast.walk(node.target)
                                if isinstance(leaf, ast.Name))

    def _visit_comp(self, scope: _Scope, node: ast.AST,
                    in_loop: bool) -> None:
        for comp in node.generators:
            self._access(scope, node, "scan", comp.iter, in_loop)

    def _visit_compare(self, scope: _Scope, node: ast.Compare,
                       in_loop: bool) -> None:
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                self._access(scope, node, "membership", comparator,
                             in_loop)

    def _visit_global(self, scope: _Scope, node: ast.Global,
                      in_loop: bool) -> None:
        scope.globals.update(node.names)

    def _visit_method_assign(self, info: FunctionInfo,
                             node: ast.AST) -> int:
        """Record ``self.attr = <container>``; count ``self.`` writes."""
        pairs: List[Tuple[ast.AST, ast.AST]] = []
        if isinstance(node, ast.Assign):
            for target in node.targets:
                # ``out, self._outbox = self._outbox, []`` — the
                # swap-drain idiom re-inits the attribute.
                if isinstance(target, ast.Tuple) and \
                        isinstance(node.value, ast.Tuple) and \
                        len(target.elts) == len(node.value.elts):
                    pairs.extend(zip(target.elts, node.value.elts))
                else:
                    pairs.append((target, node.value))
        elif node.value is not None:
            pairs.append((node.target, node.value))
        owner = "%s.%s" % (info.module.name, info.class_name)
        for target, value in pairs:
            if is_self_attr(target):
                kind = container_kind(self.project, info.module, value)
                if kind in GROWABLE:
                    self._instance_assigns.setdefault(
                        (owner, target.attr), []).append((info, node, kind))
        if isinstance(node, ast.AnnAssign):
            return 0
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return sum(1 for target in targets if is_self_attr(target))

    def _visit_rebuild(self, info: FunctionInfo, node: ast.Assign) -> None:
        target_label = None
        for target in node.targets:
            if isinstance(target, ast.Name) and \
                    _CACHE_NAME_RE.search(target.id):
                target_label = target.id
            elif isinstance(target, ast.Attribute) and \
                    _CACHE_NAME_RE.search(target.attr):
                target_label = dotted_name(target) or target.attr
        if target_label is None or not _is_rebuild_value(node.value):
            return
        parents = walk_tree(info.module.tree)[1]
        if not _invalidation_guarded(node, parents, info.node):
            self.rebuilds.append(
                (Site(info, info.module, node, "rebuild"), target_label))

    # -- resolution ----------------------------------------------------------

    def _resolve_all(self) -> None:
        # ``global`` rebinds first: they turn bindings into locations.
        for scope in self._scopes:
            for name, node, in_loop in scope.assigns:
                if name in scope.globals:
                    self._rebind(scope, name, node, in_loop)
        # ``self.`` attributes: the ``__init__`` assignment (or the
        # first one) is the construction site; any other
        # re-initialization is an eviction choice and counts as a
        # shrink.
        for key in sorted(self._instance_assigns):
            sites = self._instance_assigns[key]
            construct = next((site for site in sites
                              if site[0].name == "__init__"), None)
            if construct is None:
                construct = min(sites, key=lambda s: (
                    s[0].module.path, getattr(s[1], "lineno", 1)))
            info, node, kind = construct
            owner, attr = key
            location = Location(info.module, attr, node, kind, INSTANCE,
                                info.class_name)
            for other_info, other_node, _kind in sites:
                if other_node is not node:
                    reset = Site(other_info, info.module, other_node,
                                 "reset")
                    reset.scale = True
                    location.sites.append(reset)
            self.locations[key] = location
        for scope, node, kind, receiver, in_loop, payload in self._accesses:
            shard, scale = self._receivers(scope, receiver)
            if kind not in WRITES or (kind == "next" and (
                    shard is None or shard.kind != "counter")):
                shard = None
            if kind not in SCALE_KINDS or scope.function is None:
                scale = None
            if shard is not None:
                self._attach(shard, scope, node, kind, in_loop,
                             True, shard is scale)
            if scale is not None and scale is not shard:
                self._attach(scale, scope, node, kind, in_loop,
                             False, True)
            if scale is not None and payload is not None:
                _promote_from_payload(scale, scale.sites[-1], payload)

    @staticmethod
    def _attach(location: Location, scope: _Scope, node: ast.AST,
                kind: str, in_loop: bool, shard: bool,
                scale: bool) -> None:
        site = Site(scope.function, scope.module, node, kind, in_loop)
        site.shard, site.scale = shard, scale
        location.sites.append(site)

    def _rebind(self, scope: _Scope, name: str, node: ast.AST,
                in_loop: bool) -> None:
        key = (scope.module.name, name)
        location = self.locations.get(key)
        if location is None:
            if key not in self._bindings:
                return
            owner, def_node = self._bindings[key]
            location = self.locations[key] = Location(
                owner, name, def_node, "binding")
        self._attach(location, scope, node, "rebind", in_loop, True, False)

    def _receivers(self, scope: _Scope, expr: ast.AST,
                   aliases: bool = True) \
            -> Tuple[Optional[Location], Optional[Location]]:
        """The location ``expr`` names for the shard rules and for the
        scale rules (see the module docstring)."""
        core = _unwrap(expr)
        wrapped = core is not expr
        if isinstance(core, ast.Name):
            name = core.id
            here = self.locations.get((scope.module.name, name))
            shard = here if not wrapped and scope.is_module_name(name) \
                else None
            scale = self._aliases(scope).get(name) if aliases else None
            if scale is None and here is not None and here.growable \
                    and scope.is_module_name(name):
                scale = here
            return shard, scale
        dotted = dotted_name(core)
        if dotted is None:
            return None, None
        shard = None if wrapped else self._dotted(scope.module, dotted)
        scale = None
        parts = dotted.split(".")
        info = scope.function
        if parts[0] == "self" and len(parts) == 2 and info is not None \
                and info.class_name is not None:
            scale = self._owned(info, parts[1])
        return shard, scale

    def _aliases(self, scope: _Scope) -> Dict[str, Location]:
        """Locals bound to a container (one step, no transit)."""
        root = scope
        while root.outer is not None:
            root = root.outer
        if root._aliases is None:
            root._aliases = {}
            for name, value in root.alias_values:
                resolved = self._receivers(root, value, aliases=False)[1]
                if resolved is not None:
                    root._aliases[name] = resolved
        return root._aliases

    def _dotted(self, module: ModuleInfo,
                dotted: str) -> Optional[Location]:
        """``Class.attr`` in this module, or ``alias.NAME`` /
        ``alias.Class.attr`` through an import."""
        candidates = [(module.name, dotted)]
        expanded = self.project.expand(module, dotted)
        if expanded != dotted and "." in expanded:
            for cut in (1, 2):
                head = expanded.rsplit(".", cut)
                if len(head) == cut + 1:
                    candidates.append((head[0], ".".join(head[1:])))
        for key in candidates:
            location = self.locations.get(key)
            if location is not None and location.scope != INSTANCE:
                return location
        return None

    def _owned(self, info: FunctionInfo,
               attr: str) -> Optional[Location]:
        """``self.<attr>`` resolved through project-known base classes."""
        klass = info.module.classes.get(info.class_name)
        seen: Set[str] = set()
        todo = [klass] if klass is not None else []
        while todo:
            current = todo.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            location = self.locations.get((current.qualname, attr))
            if location is not None:
                return location
            for base in current.bases:
                resolved = self.project.expand(current.module, base)
                base_class = self.project.classes.get(resolved)
                if base_class is None:
                    base_class = current.module.classes.get(base)
                if base_class is not None:
                    todo.append(base_class)
        return None

    # -- dimension inference -------------------------------------------------

    def _infer_dimensions(self) -> None:
        for location in self.sorted_collections():
            dimension, word = _classify_identifier(location.name)
            grows = location.grows
            # Name-based promotion needs at least one runtime grow
            # site: a population-named mapping that is only ever filled
            # at construction time (``session_overrides = dict(...)``)
            # is sized by configuration, not by the arrival process.
            if word is not None and grows:
                location.promote(dimension, "name contains %r" % word)
            # Payload promotion already ran during resolution.
            if not location.shrinks:
                for site in grows:
                    if site.function.qualname in self.hot:
                        location.promote(
                            POPULATION,
                            "grows per event at %s with no eviction "
                            "anywhere" % site.where)
                        break

    def __repr__(self) -> str:
        return "<StateModel %d location(s), %d hot function(s)>" % (
            len(self.locations), len(self.hot))


def build_state_model(paths: Iterable[str]) -> StateModel:
    """Parse ``paths`` and build the state model."""
    return StateModel(build_project(paths))


# -- helpers ---------------------------------------------------------------

def _promote_from_payload(location: Location, site: Site,
                          payloads: List[ast.AST]) -> None:
    """Promote by the identifiers stored into the location."""
    for payload in payloads:
        if payload is None:
            continue
        for leaf in ast.walk(payload):
            name: Optional[str] = None
            if isinstance(leaf, ast.Name):
                name = leaf.id
            elif isinstance(leaf, ast.Attribute):
                name = leaf.attr
            if name is None or name == "self":
                continue
            dimension, word = _classify_identifier(name)
            if word is not None:
                location.promote(dimension, "stores %r-shaped values at %s"
                                 % (word, site.where))


def _toplevel(body: Iterable[ast.AST]) -> Iterable[ast.AST]:
    """Statements at one nesting level, descending into If/Try arms."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    yield child
        else:
            yield node


def _unwrap(expr: ast.AST) -> ast.AST:
    """Peel transparent layers off a receiver/iterable expression."""
    while True:
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        elif isinstance(expr, ast.Call) and \
                isinstance(expr.func, ast.Attribute) and \
                expr.func.attr in _TRANSPARENT_METHODS:
            expr = expr.func.value
        elif isinstance(expr, ast.Call) and \
                isinstance(expr.func, ast.Name) and \
                expr.func.id in _TRANSPARENT_CALLS and len(expr.args) == 1:
            expr = expr.args[0]
        elif isinstance(expr, (ast.ListComp, ast.SetComp,
                               ast.GeneratorExp)) and expr.generators:
            expr = expr.generators[0].iter
        else:
            return expr


def _is_rebuild_value(value: ast.AST) -> bool:
    if isinstance(value, (ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        return dotted is not None and \
            bool(_REBUILD_RE.search(dotted.rsplit(".", 1)[-1]))
    return False


def _invalidation_guarded(node: ast.AST, parents: Dict[ast.AST, ast.AST],
                          stop: ast.AST) -> bool:
    """Is ``node`` under a test shaped like an invalidation check?"""
    current = parents.get(node)
    while current is not None and current is not stop:
        if isinstance(current, (ast.If, ast.While)) and \
                _is_invalidation_test(current.test):
            return True
        current = parents.get(current)
    return False


def _is_invalidation_test(test: ast.AST) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Is, ast.IsNot)) and \
                        isinstance(comparator, ast.Constant) and \
                        comparator.value is None:
                    return True
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and _INVALIDATION_RE.search(name):
            return True
    return False


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
