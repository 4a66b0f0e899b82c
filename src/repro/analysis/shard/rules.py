"""The shard-affinity rules R15–R19 (the ``--shard`` pass).

Where R11–R14 chase host nondeterminism, these five rules chase
*ownership*: state that a world split into per-site or per-host shards
could not partition without silent coupling, so that a sharded run
would stop being a pure function of its seed.

* **R15** ``process-global-mutable-state`` — a module- or class-level
  mutable that is actually written at runtime.  Read-only lookup
  tables stay silent; a dict that any code path mutates is visible to
  every shard in the process.
* **R16** ``cross-entity-direct-mutation`` — a host-family method
  directly writing attributes of a site-family object (or vice versa)
  without an intervening kernel event.  These writes are exactly the
  edges that need lookahead-mediated events once entities live on
  different cores.  Resolution is by parameter annotation — the
  deliberate, documented approximation of this pass.
* **R17** ``unkeyed-process-cache`` — memo state whose lifetime is the
  process, not a simulation: cache-named module mutables that are
  written, ``functools.cache``/``lru_cache(maxsize=None)`` sites, and
  ``lru_cache`` on methods of non-frozen classes (instance-identity
  keys pin objects for the process lifetime).  Bounded ``lru_cache``
  on a frozen dataclass method is the sanctioned pattern and stays
  silent.
* **R18** ``non-mergeable-accumulator`` — a statistics class with a
  sample-intake method (``add``/``observe``/``record``/``inc``/
  ``sample``) mutating numeric instance state but no ``merge`` method
  (own or inherited from a project-known base): per-shard parts of it
  cannot be folded deterministically.
* **R19** ``shared-event-queue-escape`` — scheduling through another
  component's ``.sim`` handle (``other.sim.timeout(...)``), or
  triggering (``succeed``/``fail``) an event reached through a
  foreign-family parameter: both push work onto a timeline the caller
  does not own.

Each is a :class:`~repro.analysis.core.ProjectRule` reading the
:class:`StateModel`, registered with :func:`~repro.analysis.core.register`
like every other rule and selected by ``--shard``, so suppressions, SARIF
export and the baseline ratchet apply unchanged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import (
    Finding,
    ProjectRule,
    dotted_name,
    is_self_attr,
    register,
)
from repro.analysis.dataflow.symbols import own_nodes
from repro.analysis.state import (
    HOST,
    MUTATOR_METHODS,
    SITE,
    CacheSite,
    Location,
    StateModel,
    family_of_module,
)

__all__ = ["ProcessGlobalMutableStateRule",
           "CrossEntityDirectMutationRule", "UnkeyedProcessCacheRule",
           "NonMergeableAccumulatorRule", "SharedEventQueueEscapeRule"]


def _mutation_summary(location: Location) -> str:
    sites = location.mutations
    first = min(sites, key=lambda s: (s.module.path, s.node.lineno))
    extra = "" if len(sites) == 1 \
        else " and %d more site(s)" % (len(sites) - 1)
    return "written at %s%s" % (first.where, extra)


@register
class ProcessGlobalMutableStateRule(ProjectRule):
    """R15: a module/class-level mutable that is written at runtime.

    Why it matters: Shards of one world run in separate processes; state
    hiding in module globals silently diverges between them and between
    consecutive runs in one process.

    Fix pattern: Move the state onto an object owned by one shard
    (usually the Simulation or a component keyed by it).

    Example: _REGISTRY: List[...] = []  # simlint: disable=R15
    import-time append-only plugin registry
    """

    code = "R15"
    name = "process-global-mutable-state"
    model = StateModel
    family = "--shard"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        for location in model.sorted_locations():
            if not location.mutations or location.is_cache_named:
                continue  # read-only tables are fine; caches are R17's
            scope = "class-level" if location.class_name else \
                "module-level"
            what = "binding %r is rebound through `global`," \
                if location.kind == "binding" else "mutable %r is"
            yield self.finding(
                location.module.path, location.node,
                ("%s " + what + " %s — process-global state is shared "
                 "by every shard; own it by a Simulation "
                 "(sim.model_cache) or justify why it never couples "
                 "worlds") % (scope, location.label,
                              _mutation_summary(location)))


@register
class CrossEntityDirectMutationRule(ProjectRule):
    """R16: host-family code mutating a site-family object, or back.

    Why it matters: The shard partition follows the host/site entity
    families; a direct attribute write across that line bypasses the
    message channel and breaks the partition's determinism contract.

    Fix pattern: Send a message (or call a method on the owning side)
    instead of reaching into the other family's attributes.

    Example: site.load = x  # simlint: disable=R16 single-shard
    configuration phase, before the clock starts
    """

    code = "R16"
    name = "cross-entity-direct-mutation"
    model = StateModel
    family = "--shard"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        for module_name in sorted(model.project.modules):
            module = model.project.modules[module_name]
            family = family_of_module(module_name)
            if family not in (HOST, SITE):
                continue  # shared orchestration may touch anything
            for key in sorted(module.functions):
                info = module.functions[key]
                yield from self._check_function(model, module, family,
                                                info)

    def _check_function(self, model: StateModel, module, family,
                        info) -> Iterator[Finding]:
        foreign = _foreign_params(model, module, family, info)
        if not foreign:
            return
        for node in own_nodes(info.node):
            target: Optional[ast.AST] = None
            verb = "writes"
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for candidate in targets:
                    if isinstance(candidate, (ast.Attribute,
                                              ast.Subscript)):
                        target = candidate
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATOR_METHODS:
                    target = node.func
                    verb = "mutates"
            if target is None:
                continue
            root = _chain_root(target)
            if root is None or root not in foreign:
                continue
            other_family, other_class = foreign[root]
            yield self.finding(
                module.path, node,
                "%s-affine %s directly %s state of %s-affine %s "
                "(parameter %r) — route the change through a kernel "
                "event so the sharded engine can mediate it with "
                "lookahead" % (family, info.qualname, verb,
                               other_family, other_class, root))


def _foreign_params(model: StateModel, module, family, info):
    """Params annotated with a class of the *other* concrete family."""
    foreign = {}
    for param in info.params:
        if param in ("self", "cls"):
            continue
        klass = model.annotated_class(module, info.node, param)
        if klass is None:
            continue
        other = family_of_module(klass.module.name)
        if other in (HOST, SITE) and other != family:
            foreign[param] = (other, klass.name)
    return foreign


def _chain_root(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@register
class UnkeyedProcessCacheRule(ProjectRule):
    """R17: memo state whose lifetime is the process, not a simulation.

    Why it matters: A cache keyed only by input values survives across
    simulations in one process; the second run hits entries the first
    run warmed, so workers=1 vs workers=N (fresh processes) diverge.

    Fix pattern: Key the cache by the owning Simulation (or store it on
    one).

    Example: _memo = {}  # simlint: disable=R17 pure function of inputs,
    value identity never observed
    """

    code = "R17"
    name = "unkeyed-process-cache"
    model = StateModel
    family = "--shard"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        for location in model.sorted_locations():
            if location.mutations and location.is_cache_named:
                yield self.finding(
                    location.module.path, location.node,
                    "process-wide cache %r (%s) outlives every "
                    "simulation — key it by a simulation-owned "
                    "generation (sim.model_cache) or document why "
                    "value-keyed sharing cannot couple worlds"
                    % (location.label, _mutation_summary(location)))
        for site in model.cache_sites:
            yield from self._check_cache_site(site)

    def _check_cache_site(self, site: CacheSite) -> Iterator[Finding]:
        info = site.function
        if site.explicit_unbounded:
            yield self.finding(
                info.module.path, site.node,
                "unbounded functools cache on %s() grows for the "
                "process lifetime and is shared by every shard; give "
                "it a maxsize and value-typed keys" % info.qualname)
        elif info.class_name is not None and not site.frozen_dataclass:
            yield self.finding(
                info.module.path, site.node,
                "lru_cache on method %s() of a non-frozen class keys "
                "by instance identity: entries pin instances "
                "process-wide and never hit across worlds; make the "
                "class a frozen dataclass or move the memo onto the "
                "instance" % info.qualname)


#: Method names that take one sample into a statistics object.
_INTAKE_NAMES = ("add", "observe", "record", "inc", "sample")


@register
class NonMergeableAccumulatorRule(ProjectRule):
    """R18: a sample-taking stats class without a deterministic merge.

    Why it matters: Per-shard statistics must merge into the
    single-world answer after the run; an accumulator with no merge()
    forces order-dependent recombination or silent dropping.

    Fix pattern: Implement merge(other) with an order-independent
    formulation, as the t-digest and counter classes do.

    Example: class Peak:  # simlint: disable=R18 max() is trivially
    merge-order-independent
    """

    code = "R18"
    name = "non-mergeable-accumulator"
    model = StateModel
    family = "--shard"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        for qualname in sorted(model.project.classes):
            klass = model.project.classes[qualname]
            intakes = [name for name in _INTAKE_NAMES
                       if self._is_intake(klass, name)]
            if not intakes:
                continue
            if model.project.method(klass, "merge") is not None:
                continue
            yield self.finding(
                klass.module.path, klass.node,
                "%s accumulates samples via %s() but defines no "
                "merge(): per-shard parts cannot be folded back "
                "deterministically — add a merge and fold parts in "
                "creation order" % (klass.name,
                                    "/".join(intakes)))

    def _is_intake(self, klass, name: str) -> bool:
        info = klass.module.functions.get("%s.%s" % (klass.name, name))
        if info is None:
            return False
        for node in own_nodes(info.node):
            if isinstance(node, ast.AugAssign) and \
                    is_self_attr(node.target):
                return True
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "append" and \
                    is_self_attr(node.func.value):
                return True
        return False


#: ``sim`` factory methods that enqueue onto a timeline.
_SCHEDULING_FACTORIES = frozenset({"timeout", "event", "spawn",
                                   "process", "all_of", "any_of"})


@register
class SharedEventQueueEscapeRule(ProjectRule):
    """R19: events pushed onto a timeline the caller does not own.

    Why it matters: Scheduling onto another shard's kernel bypasses the
    stamped channel; the event lands in a different barrier round on
    every run.

    Fix pattern: Route cross-shard work through ShardWorld.send().

    Example: other.sim.call_at(t, f)  # simlint: disable=R19 both worlds
    verified same-shard by the caller
    """

    code = "R19"
    name = "shared-event-queue-escape"
    model = StateModel
    family = "--shard"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        for module_name in sorted(model.project.modules):
            module = model.project.modules[module_name]
            family = family_of_module(module_name)
            if family not in (HOST, SITE):
                continue
            for key in sorted(module.functions):
                info = module.functions[key]
                foreign = _foreign_params(model, module, family, info)
                params = set(info.params) - {"self", "cls"}
                for node in own_nodes(info.node):
                    if not (isinstance(node, ast.Call) and
                            isinstance(node.func, ast.Attribute)):
                        continue
                    yield from self._check_call(module, family, info,
                                                node, params, foreign)

    def _check_call(self, module, family, info, node: ast.Call,
                    params, foreign) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        # (a) other.sim.timeout(...) — scheduling through a foreign
        # component's sim handle.
        if (len(parts) >= 3 and parts[-2] == "sim"
                and parts[-1] in _SCHEDULING_FACTORIES
                and parts[0] in params):
            yield self.finding(
                module.path, node,
                "%s schedules onto %r's timeline through its .sim "
                "handle (%s) — in the sharded engine that queue "
                "belongs to another partition; deliver the work as a "
                "latency-mediated event instead"
                % (info.qualname, parts[0], dotted))
            return
        # (b) foreign.done.succeed(...) — triggering an event owned by
        # an entity of the other family.
        if parts[-1] in ("succeed", "fail") and len(parts) >= 2 \
                and parts[0] in foreign:
            other_family, other_class = foreign[parts[0]]
            yield self.finding(
                module.path, node,
                "%s %ss an event owned by %s-affine %s (parameter %r) "
                "directly — completion must be delivered through the "
                "owner's event queue to stay shardable"
                % (info.qualname, parts[-1], other_family, other_class,
                   parts[0]))
