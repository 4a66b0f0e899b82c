"""The growth-dimension rules R22–R26 (the ``--scale`` pass).

Where R15–R19 chase *ownership* (who may touch state), these five
rules chase *complexity*: per-event work or memory that is
proportional to the session population, the failure mode that turns a
million-session run into a quadratic crawl.  Each rule reads the
:class:`~repro.analysis.state.StateModel` — inferred growth
dimensions plus the per-event hot set — and reports at most one
finding per (collection, function) pair, so one suppression comment
covers one remediation decision.

* **R22** ``per-event-linear-scan`` — a loop or comprehension over a
  population-dimensioned collection inside a hot function: O(n) work
  per event, O(n²) per scenario.  Index the lookup or maintain the
  derived result incrementally.
* **R23** ``unbounded-growth-container`` — a population-dimensioned
  container that grows on a hot path and is never shrunk anywhere in
  the project: memory proportional to total events processed.
  Generalizes R20 (unbounded obs collectors) to arbitrary model state.
* **R24** ``quadratic-membership`` — ``x in <list>`` against a
  population-dimensioned *list* on a hot path or inside a loop (a
  linear probe per test), or ``sorted()``/``min()``/``max()`` over a
  population collection inside a loop (a full ordered pass per
  iteration).
* **R25** ``per-event-allocation`` — a fresh dict/list/set,
  comprehension, lambda or nested def built inside a loop in a kernel
  drain method: allocator pressure on the single hottest path in the
  system.
* **R26** ``rebuild-in-hot-path`` — a cache/memo-named structure
  recomputed from scratch (comprehension or ``refill``/``rebuild``/
  ``recompute``-shaped call) inside a hot function without an
  invalidation guard.  The sanctioned pattern rebuilds at most once
  per invalidation epoch behind an ``if ... is None`` / epoch test.

Each is a :class:`~repro.analysis.core.ProjectRule` reading the
:class:`StateModel`, registered with :func:`~repro.analysis.core.register`
like every other rule and selected by ``--scale``, so suppressions, SARIF
export and the baseline ratchet apply unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.analysis.core import Finding, ProjectRule, register
from repro.analysis.state import POPULATION, Site, StateModel

__all__ = ["PerEventLinearScanRule", "UnboundedGrowthContainerRule",
           "QuadraticMembershipRule", "PerEventAllocationRule",
           "RebuildInHotPathRule"]


def _by_function(sites: List[Site]) -> List[Tuple[str, List[Site]]]:
    """Sites grouped per enclosing function, module level excluded."""
    grouped: Dict[str, List[UseSite]] = {}
    for site in sites:
        if site.function is None:
            continue
        grouped.setdefault(site.function.qualname, []).append(site)
    result = []
    for qualname in sorted(grouped):
        group = sorted(grouped[qualname],
                       key=lambda s: (s.module.path,
                                      getattr(s.node, "lineno", 1)))
        result.append((qualname, group))
    return result


def _extra(count: int) -> str:
    return "" if count == 1 else " and %d more site(s)" % (count - 1)


@register
class PerEventLinearScanRule(ProjectRule):
    """R22: O(population) iteration inside per-event code.

    Why it matters: A loop or comprehension over a
    per-session-dimensioned collection inside the per-event hot set
    (simulation processes, kernel drains, and their call closure) does
    O(n) work per event — O(n^2) per scenario.  At a million sessions
    that is the difference between minutes and weeks.

    Fix pattern: Index the lookup (dict keyed by what the scan searches
    for) or maintain the derived quantity incrementally (running totals,
    per-key buckets).  The sanctioned examples: VirtualMachineMonitor's
    name index and resident-memory running total.

    Example: for vm in self.vms:  # simlint: disable=R22 teardown path,
    runs once per scenario not per event
    """

    code = "R22"
    name = "per-event-linear-scan"
    model = StateModel
    family = "--scale"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        for collection in model.sorted_collections():
            if collection.dimension != POPULATION:
                continue
            for qualname, sites in _by_function(collection.scans):
                if not model.is_hot(qualname):
                    continue
                first = sites[0]
                yield self.finding(
                    first.module.path, first.node,
                    "%s iterates %s-dimensioned %r (%s) on a per-event "
                    "path (%s)%s — O(population) work per event; index "
                    "the lookup or maintain the result incrementally"
                    % (qualname, collection.dimension, collection.label,
                       collection.why, model.hot[qualname],
                       _extra(len(sites))))


@register
class UnboundedGrowthContainerRule(ProjectRule):
    """R23: population state that grows per event and is never evicted.

    Why it matters: A collection that gains an entry on a hot path and
    has no shrink site anywhere in the tree holds memory proportional to
    total sessions processed.  Generalizes R20 from obs collectors to
    arbitrary model state: registries, logs, per-key memo dicts.

    Fix pattern: Evict on completion (delete the key when the session/VM
    ends), bound the container (deque(maxlen=...) is recognised as
    bounded), or stream aggregates instead of retaining raw entries.

    Example: self.log: List[Transfer] = []  # simlint: disable=R23
    experiment-lifetime artifact, sized by the scenario not the steady
    state
    """

    code = "R23"
    name = "unbounded-growth-container"
    model = StateModel
    family = "--scale"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        for collection in model.sorted_collections():
            if collection.dimension != POPULATION or collection.shrinks:
                continue
            hot_grows = [site for site in collection.grows
                         if site.function is not None
                         and model.is_hot(site.function.qualname)]
            if not hot_grows:
                continue
            first = min(hot_grows,
                        key=lambda s: (s.module.path,
                                       getattr(s.node, "lineno", 1)))
            yield self.finding(
                collection.module.path, collection.node,
                "%s %r grows per event at %s%s and is never shrunk — "
                "memory is O(total sessions); evict on completion, "
                "bound it, or stream aggregates instead (generalizes "
                "R20)" % (collection.kind, collection.label, first.where,
                          _extra(len(hot_grows))))


@register
class QuadraticMembershipRule(ProjectRule):
    """R24: linear membership probes and sorted passes over population.

    Why it matters: `x in population_list` is a linear scan per test —
    run once per session it is quadratic in the population.  Likewise
    sorted()/min()/max() over a population collection inside a loop
    repeats a full ordered pass per iteration.

    Fix pattern: Key membership as a dict/set (an insertion-ordered dict
    preserves determinism where a set would not); hoist ordered passes
    out of loops or track the extremum incrementally.

    Example: if name in self._names:  # simlint: disable=R24 list is
    capped at 8 by admission control above
    """

    code = "R24"
    name = "quadratic-membership"
    model = StateModel
    family = "--scale"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        for collection in model.sorted_collections():
            if collection.dimension != POPULATION:
                continue
            if collection.kind in ("list", "deque"):
                for qualname, sites in _by_function(
                        collection.memberships):
                    live = [s for s in sites
                            if s.in_loop or model.is_hot(qualname)]
                    if not live:
                        continue
                    yield self.finding(
                        live[0].module.path, live[0].node,
                        "%s probes membership in %s %r (%s) — a linear "
                        "scan per test, quadratic once per session%s; "
                        "key it as a dict/set"
                        % (qualname, collection.kind, collection.label,
                           collection.why, _extra(len(live))))
            for qualname, sites in _by_function(collection.sorts):
                live = [s for s in sites if s.in_loop]
                if not live:
                    continue
                yield self.finding(
                    live[0].module.path, live[0].node,
                    "%s runs %s() over %s-dimensioned %r inside a loop "
                    "— a full O(n log n) pass per iteration%s; hoist "
                    "it or keep the extremum incrementally"
                    % (qualname, live[0].kind, collection.dimension,
                       collection.label, _extra(len(live))))


@register
class PerEventAllocationRule(ProjectRule):
    """R25: fresh containers/closures built inside kernel drain loops.

    Why it matters: The kernel's drain loops (step/_run_fast and the
    succeed/fail/_resume chain) execute once per event — the single
    hottest code in the system.  A dict/list/set display, comprehension,
    lambda or nested def inside one of their loops costs an allocation
    per drained event.

    Fix pattern: Hoist the allocation out of the loop, reuse a scratch
    object, or restructure so the container is built once per call, not
    per iteration.

    Example: errs = []  # simlint: disable=R25 only reachable on the
    failure path, empty in steady state
    """

    code = "R25"
    name = "per-event-allocation"
    model = StateModel
    family = "--scale"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        grouped: Dict[str, List[Site]] = {}
        for site in model.kernel_allocs:
            grouped.setdefault(site.function.qualname, []).append(site)
        for qualname in sorted(grouped):
            sites = sorted(grouped[qualname],
                           key=lambda s: (s.module.path,
                                          getattr(s.node, "lineno", 1)))
            first = sites[0]
            kinds = sorted({site.kind for site in sites})
            yield self.finding(
                first.module.path, first.node,
                "kernel drain method %s builds a fresh %s inside its "
                "event loop%s — one allocation per drained event; "
                "hoist it out of the loop or reuse a scratch object"
                % (qualname, "/".join(kinds), _extra(len(sites))))


@register
class RebuildInHotPathRule(ProjectRule):
    """R26: memoized structures recomputed per event, not per epoch.

    Why it matters: A cache/memo-named structure rebuilt from scratch
    (comprehension or refill/rebuild/recompute call) on every invocation
    of a hot function does the work memoization was meant to save.  The
    cache must be rebuilt at most once per invalidation epoch.

    Fix pattern: Guard the rebuild: `if self._cache is None: self._cache
    = self._refill()`, invalidating (set to None, or bump an epoch
    counter) only where the inputs change — the
    FlowEngine._allocate/_refill pair is the sanctioned example.

    Example: self._view = self._rebuild()  # simlint: disable=R26 inputs
    change on every call by construction, nothing to memoize
    """

    code = "R26"
    name = "rebuild-in-hot-path"
    model = StateModel
    family = "--scale"

    def check_project(self, model: StateModel) -> Iterator[Finding]:
        rebuilds = sorted(model.rebuilds,
                          key=lambda pair: (pair[0].module.path,
                                            pair[0].node.lineno))
        for site, target in rebuilds:
            yield self.finding(
                site.module.path, site.node,
                "%s rebuilds %r from scratch on every invocation of a "
                "per-event path (%s) — rebuild at most once per "
                "invalidation epoch: guard with `if ... is None` or an "
                "epoch/generation check"
                % (site.function.qualname, target,
                   model.hot.get(site.function.qualname,
                                 "per-event path")))
