"""The growth-dimension model: how big can each collection get?

The ROADMAP's north star is sustained traffic from millions of users;
ROADMAP item 2 (brokered task queues over open arrivals) assumes that
per-event cost stays flat while the session population explodes.  That
assumption fails exactly where a collection's *size* is proportional to
the population and some per-event code walks it.  This module infers,
for every container the analyzed tree constructs, which growth
dimension bounds it:

* :data:`BOUNDED` — size independent of scenario scale (config tables,
  rule registries, fixed pools);
* :data:`PER_HOST` — one entry per physical host (sensors, NICs);
* :data:`PER_SITE` — one entry per site (services, gateways);
* :data:`POPULATION` — one entry per session/VM/job/user/request: the
  dimension that grows without bound under open arrivals.

Ordered ``BOUNDED < PER_HOST < PER_SITE < POPULATION``, a collection
starts bounded and evidence promotes it:

1. **naming** — the attribute name contains a population word
   (``sessions``, ``vms``, ``jobs`` …) or a host/site word;
2. **keying identifiers** — the values appended or the keys stored
   mention session/VM/job/user-shaped identifiers (``vm_name``,
   ``flow``, ``user``), the strongest syntactic signal;
3. **per-event accumulation** — the collection grows on a hot path
   (see below) and *no* code path ever shrinks it: whatever its entries
   are, their count is proportional to the events processed.

The model rides the ``--deep`` project representation
(:mod:`repro.analysis.dataflow.symbols`) and its call graph.  The **hot
set** — functions that run per simulated event — is the call-graph
closure of (a) every generator function (simulation processes and
event handlers by construction of the DES kernel) and (b) the kernel
drain methods.  Because the syntactic call graph cannot resolve
``obj.method()`` through attributes, the closure additionally follows
*method names*: an unresolved ``x.create_vm(...)`` inside a hot
function marks every project method named ``create_vm`` hot.  That
over-approximates — deliberately: for a lint pass, a false hot
function costs one justified suppression, a false cold one hides a
real million-session collapse.

Rules R22–R26 (:mod:`repro.analysis.scale.rules`) read this model; the
generated ``docs/scale-readiness.md`` (:mod:`repro.analysis.scale.
inventory`) renders every non-bounded collection with provenance.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import dotted_name, is_self_attr, walk_tree
from repro.analysis.dataflow.callgraph import CallGraph
from repro.analysis.dataflow.symbols import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    build_project,
    own_nodes,
)

__all__ = ["BOUNDED", "PER_HOST", "PER_SITE", "POPULATION", "DIMENSIONS",
           "dim_order", "UseSite", "TrackedCollection", "RebuildSite",
           "AllocSite", "ScaleModel", "build_scale_model"]

# -- the growth-dimension lattice ------------------------------------------

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

#: Cache/memo-shaped names (R26 anchors on these).
_CACHE_NAME_RE = re.compile(r"cache|memo", re.IGNORECASE)
#: Callee names that rebuild a derived structure from scratch.
_REBUILD_RE = re.compile(r"refill|rebuild|recompute|recalc|sorted",
                         re.IGNORECASE)
#: Names in a guard test that mark a sanctioned invalidation check.
_INVALIDATION_RE = re.compile(
    r"epoch|generation|dirty|stale|version|valid|cache|memo|fresh|miss",
    re.IGNORECASE)

#: Receiver methods that add entries.
_GROW_METHODS = frozenset({"append", "appendleft", "add", "insert",
                           "extend", "extendleft", "setdefault", "update"})
#: Receiver methods that remove entries.
_SHRINK_METHODS = frozenset({"pop", "popleft", "popitem", "remove",
                             "discard", "clear"})
#: Calls through which the receiver chain is transparent
#: (``d.get(k, []).append(x)`` still grows ``d``'s contents).
_TRANSPARENT_METHODS = frozenset({"get", "setdefault", "values", "items",
                                  "keys", "copy"})
#: Builtins through which iteration is transparent
#: (``for x in sorted(coll)`` still scans ``coll``).
_TRANSPARENT_CALLS = frozenset({"list", "tuple", "sorted", "reversed",
                                "enumerate", "set", "frozenset", "iter"})
#: Builtins that imply a full ordered pass over their first argument.
_SORTISH_CALLS = frozenset({"sorted", "min", "max"})

#: Constructors whose result is a trackable container.
_CONTAINER_CONSTRUCTORS = {
    "dict": "dict", "list": "list", "set": "set",
    "collections.defaultdict": "dict", "collections.OrderedDict": "dict",
    "collections.deque": "deque", "collections.Counter": "dict",
}

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


def _classify_identifier(name: str) -> Tuple[str, Optional[str]]:
    """(dimension, matched word) for one identifier."""
    lowered = name.lower()
    match = _POP_ID_RE.search(lowered)
    if match:
        return POPULATION, match.group(1)
    match = _SITE_ID_RE.search(lowered)
    if match:
        return PER_SITE, match.group(1)
    match = _HOST_ID_RE.search(lowered)
    if match:
        return PER_HOST, match.group(1)
    return BOUNDED, None


class UseSite:
    """One place a tracked collection is touched."""

    __slots__ = ("function", "module", "node", "how", "in_loop")

    def __init__(self, function: Optional[FunctionInfo],
                 module: ModuleInfo, node: ast.AST, how: str,
                 in_loop: bool = False):
        #: None for module-level (import-time) code.
        self.function = function
        self.module = module
        self.node = node
        #: "append" | "store" | "reset" | "del" | "remove" | "scan" |
        #: "membership" | "sortish" | ...
        self.how = how
        self.in_loop = in_loop

    @property
    def where(self) -> str:
        return "%s:%d" % (self.module.path, getattr(self.node, "lineno", 1))

    def __repr__(self) -> str:
        return "<UseSite %s %s>" % (self.how, self.where)


class TrackedCollection:
    """One container the tree constructs, with its inferred dimension."""

    __slots__ = ("module", "owner", "name", "node", "kind",
                 "construct_func", "dimension", "why",
                 "grows", "shrinks", "scans", "memberships", "sorts")

    def __init__(self, module: ModuleInfo, owner: Optional[str],
                 name: str, node: ast.AST, kind: str,
                 construct_func: Optional[FunctionInfo]):
        self.module = module
        #: Owning class *qualname* for instance attributes, None for
        #: module-level containers.
        self.owner = owner
        self.name = name
        self.node = node
        #: "dict" | "list" | "set" | "deque"
        self.kind = kind
        self.construct_func = construct_func
        self.dimension = BOUNDED
        self.why = "no growth evidence"
        self.grows: List[UseSite] = []
        self.shrinks: List[UseSite] = []
        self.scans: List[UseSite] = []
        self.memberships: List[UseSite] = []
        self.sorts: List[UseSite] = []

    @property
    def label(self) -> str:
        """The name as written: ``Class.attr`` or the bare name."""
        if self.owner is None:
            return self.name
        return "%s.%s" % (self.owner.rsplit(".", 1)[-1], self.name)

    @property
    def qualname(self) -> str:
        if self.owner is None:
            return "%s.%s" % (self.module.name, self.name)
        return "%s.%s" % (self.owner, self.name)

    @property
    def where(self) -> str:
        return "%s:%d" % (self.module.path, getattr(self.node, "lineno", 1))

    def promote(self, dimension: str, why: str) -> None:
        if _ORDER[dimension] > _ORDER[self.dimension]:
            self.dimension = dimension
            self.why = why

    def __repr__(self) -> str:
        return "<TrackedCollection %s %s (%s)>" % (
            self.qualname, self.kind, self.dimension)


class RebuildSite:
    """One cache-named assignment rebuilt inside a hot function (R26)."""

    __slots__ = ("function", "node", "target", "guarded")

    def __init__(self, function: FunctionInfo, node: ast.AST,
                 target: str, guarded: bool):
        self.function = function
        self.node = node
        self.target = target
        #: True when an enclosing test checks ``is None`` / an epoch —
        #: the sanctioned rebuild-per-invalidation pattern.
        self.guarded = guarded

    def __repr__(self) -> str:
        return "<RebuildSite %s = ... guarded=%r>" % (self.target,
                                                      self.guarded)


class AllocSite:
    """One fresh container/closure built inside a kernel drain loop."""

    __slots__ = ("function", "node", "what")

    def __init__(self, function: FunctionInfo, node: ast.AST, what: str):
        self.function = function
        self.node = node
        #: "dict" | "list" | "set" | "comprehension" | "lambda" |
        #: "closure"
        self.what = what

    def __repr__(self) -> str:
        return "<AllocSite %s in %s>" % (self.what,
                                         self.function.qualname)


class ScaleModel:
    """The project plus everything the scale rules need."""

    #: The command-line switch of the rules that read this model.
    flag = "--scale"

    def __init__(self, project: ProjectModel):
        self.project = project
        self.graph = CallGraph(project)
        #: (owner key, attr) -> TrackedCollection, where the owner key
        #: is a class qualname or a module name.
        self.collections: Dict[Tuple[str, str], TrackedCollection] = {}
        #: Function qualname -> why it runs per event.
        self.hot: Dict[str, str] = {}
        #: The kernel drain subset of ``hot`` (R25's scope).
        self.kernel_hot: Dict[str, str] = {}
        self.rebuild_sites: List[RebuildSite] = []
        self.kernel_allocs: List[AllocSite] = []
        #: Method name -> sorted method qualnames (the CHA-lite index).
        self._methods_by_name: Dict[str, List[str]] = {}
        self._index_methods()
        self._compute_hot()
        self._collect_collections()
        self._scan_functions()
        self._infer_dimensions()

    # -- hot-path computation ----------------------------------------------

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

    # -- collection discovery ----------------------------------------------

    def _collect_collections(self) -> None:
        for module_name in sorted(self.project.modules):
            module = self.project.modules[module_name]
            self._collect_module_level(module)
            self._collect_instance_attrs(module)

    def _collect_module_level(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            kind = self._container_kind(module, value)
            if kind is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    key = (module.name, target.id)
                    if key not in self.collections:
                        self.collections[key] = TrackedCollection(
                            module, None, target.id, node, kind, None)

    def _collect_instance_attrs(self, module: ModuleInfo) -> None:
        # First pass: every ``self.attr = <container>`` assignment,
        # grouped per (class, attr).
        assigns: Dict[Tuple[str, str],
                      List[Tuple[FunctionInfo, ast.AST, str]]] = {}
        for key in sorted(module.functions):
            info = module.functions[key]
            if info.class_name is None:
                continue
            owner = "%s.%s" % (module.name, info.class_name)
            for node in own_nodes(info.node):
                pairs: List[Tuple[ast.AST, ast.AST]] = []
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        # ``out, self._outbox = self._outbox, []`` —
                        # the swap-drain idiom re-inits the attribute.
                        if isinstance(target, ast.Tuple) and \
                                isinstance(node.value, ast.Tuple) and \
                                len(target.elts) == len(node.value.elts):
                            pairs.extend(zip(target.elts,
                                             node.value.elts))
                        else:
                            pairs.append((target, node.value))
                elif isinstance(node, ast.AnnAssign) and \
                        node.value is not None:
                    pairs.append((node.target, node.value))
                for target, value in pairs:
                    kind = self._container_kind(module, value)
                    if kind is None:
                        continue
                    if is_self_attr(target):
                        assigns.setdefault((owner, target.attr), []) \
                            .append((info, node, kind))
        # Second pass: the ``__init__`` assignment (or the first one)
        # is the construction site; any other re-initialization is an
        # eviction choice and counts as a shrink.
        for key in sorted(assigns):
            sites = assigns[key]
            construct = None
            for info, node, kind in sites:
                if info.name == "__init__":
                    construct = (info, node, kind)
                    break
            if construct is None:
                construct = min(
                    sites, key=lambda s: (s[0].module.path,
                                          getattr(s[1], "lineno", 1)))
            info, node, kind = construct
            owner, attr = key
            collection = TrackedCollection(module, owner, attr, node,
                                           kind, info)
            for other_info, other_node, _kind in sites:
                if other_node is not node:
                    collection.shrinks.append(
                        UseSite(other_info, module, other_node, "reset"))
            self.collections[key] = collection

    def _container_kind(self, module: ModuleInfo,
                        value: ast.AST) -> Optional[str]:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None:
                expanded = self.project.expand(module, dotted)
                kind = _CONTAINER_CONSTRUCTORS.get(expanded)
                if kind == "deque" and any(
                        kw.arg == "maxlen"
                        and not (isinstance(kw.value, ast.Constant)
                                 and kw.value.value is None)
                        for kw in value.keywords):
                    # A bounded ring: size is capped by construction,
                    # so neither growth nor scans over it are
                    # population-dimensioned.
                    return None
                return kind
        return None

    # -- use-site scan -----------------------------------------------------

    def _scan_functions(self) -> None:
        for module_name in sorted(self.project.modules):
            module = self.project.modules[module_name]
            for key in sorted(module.functions):
                self._scan_function(module.functions[key])

    def _scan_function(self, info: FunctionInfo) -> None:
        parents = walk_tree(info.module.tree)[1]
        aliases = self._collect_aliases(info)
        is_kernel = info.qualname in self.kernel_hot
        is_hot = is_kernel or info.qualname in self.hot
        for node in own_nodes(info.node):
            in_loop = _in_loop(node, parents, info.node)
            self._scan_node(info, node, aliases, in_loop)
            if is_kernel:
                self._scan_kernel_alloc(info, node, in_loop)
            if is_hot:
                self._scan_rebuild(info, node, parents)
        # Nested defs (spawned closures, callbacks) belong lexically to
        # this function and are not FunctionInfo entries of their own;
        # their grow/shrink/scan sites count toward the same
        # collections, or an eviction hiding in a ``finally`` of a
        # spawned fetcher would be invisible.
        queue = [node for node in own_nodes(info.node)
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))]
        while queue:
            scope = queue.pop()
            for node in own_nodes(scope):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    queue.append(node)
                    continue
                in_loop = _in_loop(node, parents, scope)
                self._scan_node(info, node, aliases, in_loop)

    def _collect_aliases(self, info: FunctionInfo) \
            -> Dict[str, TrackedCollection]:
        """Locals bound to a tracked collection (one step, no transit)."""
        aliases: Dict[str, TrackedCollection] = {}
        for node in own_nodes(info.node):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            resolved = self._resolve(info, {}, node.value)
            if resolved is not None:
                aliases[node.targets[0].id] = resolved
        return aliases

    def _scan_node(self, info: FunctionInfo, node: ast.AST,
                   aliases: Dict[str, TrackedCollection],
                   in_loop: bool) -> None:
        module = info.module
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _GROW_METHODS:
                    collection = self._resolve(info, aliases, func.value)
                    if collection is not None:
                        site = UseSite(info, module, node, func.attr,
                                       in_loop)
                        collection.grows.append(site)
                        self._promote_from_payload(
                            collection, site, [func.value] + list(node.args))
                elif func.attr in _SHRINK_METHODS:
                    collection = self._resolve(info, aliases, func.value)
                    if collection is not None:
                        collection.shrinks.append(
                            UseSite(info, module, node, func.attr, in_loop))
            elif isinstance(func, ast.Name):
                self._scan_call_by_name(info, node, func, aliases, in_loop)
            dotted = dotted_name(func)
            if dotted is not None:
                expanded = self.project.expand(module, dotted)
                if expanded in ("heapq.heappush", "heapq.heapreplace") \
                        and node.args:
                    collection = self._resolve(info, aliases, node.args[0])
                    if collection is not None:
                        site = UseSite(info, module, node, "heappush",
                                       in_loop)
                        collection.grows.append(site)
                        self._promote_from_payload(collection, site,
                                                   list(node.args))
                elif expanded == "heapq.heappop" and node.args:
                    collection = self._resolve(info, aliases, node.args[0])
                    if collection is not None:
                        collection.shrinks.append(
                            UseSite(info, module, node, "heappop", in_loop))
        elif isinstance(node, ast.Assign):
            # AugAssign subscripts (``d[k] += 1``) are excluded: on a
            # plain dict/list they update an existing slot and cannot
            # add one.
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    collection = self._resolve(info, aliases, target.value)
                    if collection is None:
                        continue
                    if isinstance(target.slice, ast.Slice) and \
                            target.slice.lower is None and \
                            target.slice.upper is None and \
                            target.slice.step is None:
                        # ``coll[:] = kept`` — the in-place prune
                        # idiom: an eviction choice, not growth.
                        collection.shrinks.append(
                            UseSite(info, module, node, "prune", in_loop))
                        continue
                    site = UseSite(info, module, node, "store", in_loop)
                    collection.grows.append(site)
                    self._promote_from_payload(
                        collection, site, [target.slice, node.value])
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    collection = self._resolve(info, aliases, target.value)
                    if collection is not None:
                        collection.shrinks.append(
                            UseSite(info, module, node, "del", in_loop))
        elif isinstance(node, ast.For):
            collection = self._resolve(info, aliases, node.iter)
            if collection is not None:
                collection.scans.append(
                    UseSite(info, module, node, "scan", in_loop))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                collection = self._resolve(info, aliases, comp.iter)
                if collection is not None:
                    collection.scans.append(
                        UseSite(info, module, node, "scan", in_loop))
        elif isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                collection = self._resolve(info, aliases, comparator)
                if collection is not None:
                    collection.memberships.append(
                        UseSite(info, module, node, "membership", in_loop))

    def _scan_call_by_name(self, info: FunctionInfo, node: ast.Call,
                           func: ast.Name,
                           aliases: Dict[str, TrackedCollection],
                           in_loop: bool) -> None:
        if func.id not in _SORTISH_CALLS or not node.args:
            return
        collection = self._resolve(info, aliases, node.args[0])
        if collection is not None:
            collection.sorts.append(
                UseSite(info, info.module, node, func.id, in_loop))

    def _scan_kernel_alloc(self, info: FunctionInfo, node: ast.AST,
                           in_loop: bool) -> None:
        if not in_loop:
            return
        what: Optional[str] = None
        if isinstance(node, ast.Dict):
            what = "dict"
        elif isinstance(node, ast.List):
            what = "list"
        elif isinstance(node, ast.Set):
            what = "set"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            what = "comprehension"
        elif isinstance(node, ast.Lambda):
            what = "lambda"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            what = "closure"
        if what is not None:
            self.kernel_allocs.append(AllocSite(info, node, what))

    def _scan_rebuild(self, info: FunctionInfo, node: ast.AST,
                      parents: Dict[ast.AST, ast.AST]) -> None:
        if not isinstance(node, ast.Assign):
            return
        target_label = None
        for target in node.targets:
            if isinstance(target, ast.Name) and \
                    _CACHE_NAME_RE.search(target.id):
                target_label = target.id
            elif isinstance(target, ast.Attribute) and \
                    _CACHE_NAME_RE.search(target.attr):
                target_label = dotted_name(target) or target.attr
        if target_label is None:
            return
        if not self._is_rebuild_value(node.value):
            return
        guarded = _invalidation_guarded(node, parents, info.node)
        self.rebuild_sites.append(
            RebuildSite(info, node, target_label, guarded))

    def _is_rebuild_value(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(value, ast.Assign):  # chained a = b = rebuild()
            return self._is_rebuild_value(value.value)
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None and \
                    _REBUILD_RE.search(dotted.rsplit(".", 1)[-1]):
                return True
        return False

    # -- receiver resolution -----------------------------------------------

    def _resolve(self, info: FunctionInfo,
                 aliases: Dict[str, TrackedCollection],
                 expr: ast.AST) -> Optional[TrackedCollection]:
        expr = _unwrap(expr)
        if isinstance(expr, ast.Name):
            alias = aliases.get(expr.id)
            if alias is not None:
                return alias
            if expr.id in info.params:
                return None
            return self.collections.get((info.module.name, expr.id))
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and len(parts) == 2 and \
                info.class_name is not None:
            return self._owned(info, parts[1])
        return None

    def _owned(self, info: FunctionInfo,
               attr: str) -> Optional[TrackedCollection]:
        """``self.<attr>`` resolved through project-known base classes."""
        klass = info.module.classes.get(info.class_name)
        seen: Set[str] = set()
        todo = [klass] if klass is not None else []
        while todo:
            current = todo.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            collection = self.collections.get((current.qualname, attr))
            if collection is not None:
                return collection
            for base in current.bases:
                resolved = self.project.expand(current.module, base)
                base_class = self.project.classes.get(resolved)
                if base_class is None:
                    base_class = current.module.classes.get(base)
                if base_class is not None:
                    todo.append(base_class)
        return None

    # -- dimension inference -----------------------------------------------

    def _promote_from_payload(self, collection: TrackedCollection,
                              site: UseSite,
                              payloads: List[ast.AST]) -> None:
        """Promote by the identifiers stored into the collection."""
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
                    collection.promote(
                        dimension,
                        "stores %r-shaped values at %s" % (word,
                                                           site.where))

    def _infer_dimensions(self) -> None:
        for key in sorted(self.collections):
            collection = self.collections[key]
            dimension, word = _classify_identifier(collection.name)
            # Name-based promotion needs at least one runtime grow
            # site: a population-named mapping that is only ever filled
            # at construction time (``session_overrides = dict(...)``)
            # is sized by configuration, not by the arrival process.
            if word is not None and collection.grows:
                collection.promote(dimension,
                                   "name contains %r" % word)
            # Payload promotion already ran during the site scan.
            if not collection.shrinks:
                for site in collection.grows:
                    if site.function is not None and \
                            site.function.qualname in self.hot:
                        collection.promote(
                            POPULATION,
                            "grows per event at %s with no eviction "
                            "anywhere" % site.where)
                        break

    # -- lookups -----------------------------------------------------------

    def sorted_collections(self) -> List[TrackedCollection]:
        return [self.collections[key] for key in sorted(self.collections)]

    def is_hot(self, qualname: str) -> bool:
        return qualname in self.hot

    def __repr__(self) -> str:
        population = sum(1 for c in self.collections.values()
                         if c.dimension == POPULATION)
        return "<ScaleModel %d collection(s), %d population-dimensioned, " \
               "%d hot function(s)>" % (len(self.collections), population,
                                        len(self.hot))


def build_scale_model(paths: Iterable[str]) -> ScaleModel:
    """Parse ``paths`` and build the growth-dimension model."""
    return ScaleModel(build_project(paths))


# -- AST helpers -----------------------------------------------------------

def _in_loop(node: ast.AST, parents: Dict[ast.AST, ast.AST],
             stop: ast.AST) -> bool:
    """Is ``node`` (lexically) inside a loop or comprehension?"""
    current = parents.get(node)
    while current is not None and current is not stop:
        if isinstance(current, (ast.For, ast.While, ast.ListComp,
                                ast.SetComp, ast.DictComp,
                                ast.GeneratorExp)):
            return True
        current = parents.get(current)
    return False


def _invalidation_guarded(node: ast.AST, parents: Dict[ast.AST, ast.AST],
                          stop: ast.AST) -> bool:
    """Is ``node`` under a test shaped like an invalidation check?"""
    current = parents.get(node)
    while current is not None and current is not stop:
        if isinstance(current, (ast.If, ast.While)):
            if _is_invalidation_test(current.test):
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


