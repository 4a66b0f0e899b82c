"""The interprocedural rules R11–R14, powered by the taint engine.

Unlike the per-file rules in :mod:`repro.analysis.rules`, these
project rules read the :class:`TaintEngine`, so they see the whole
project at once — the symbol table,
the call graph and the taint fixpoint — so it can flag flows the
single-file pass structurally cannot:

* **R11** ``tainted-sim-state`` — a wall-clock / entropy /
  worker-identity value reaches simulation state (an event delay or
  value, a spawn, an RNG seed, a heap key), possibly through any number
  of function and module boundaries.
* **R12** ``rng-stream-escape`` — a ``sim.streams`` child is re-seeded,
  or handed to code that re-seeds it or forks a new generator from its
  draws; either way the stream's future draws stop being a pure
  function of the root seed.
* **R13** ``helper-event-discarded`` — a call to a *helper* that
  (transitively) returns an :class:`Event` is used as a bare statement,
  so the event is lost; the call-graph-aware sibling of R4.
* **R14** ``unordered-key-taint`` — a value whose *order* is hash- or
  filesystem-dependent flows into a scheduling key or into trace /
  metric output, making timelines and metrics differ run to run.

Each registers with :func:`repro.analysis.core.register` like every
other rule; ``--deep`` selects them.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.core import Finding, ProjectRule, register
from repro.analysis.dataflow.taint import (
    ENTROPY,
    UNORDERED,
    WALLCLOCK,
    WORKER,
    CallSite,
    TaintEngine,
)

__all__ = ["TaintedSimStateRule", "RngStreamEscapeRule",
           "HelperEventDiscardedRule", "UnorderedKeyTaintRule"]


def _callee_label(site: CallSite) -> str:
    if site.func_attr is not None:
        return site.func_attr
    res = site.resolution
    if res.target is not None:
        return res.target.name
    return (res.external or "call").rsplit(".", 1)[-1]


#: Sinks that feed simulation state: event creation/values, process
#: spawns, RNG seeding, heap keys.
_SIM_STATE_SINKS = frozenset({"timeout", "succeed", "fail", "spawn",
                              "process", "seed", "heappush"})

#: Constructors whose argument becomes an RNG seed.
_SEEDING_CALLS = frozenset({"random.Random", "numpy.random.default_rng",
                            "repro.simulation.randomness.RandomStreams",
                            "heapq.heappush"})


def _is_sink(site: CallSite, names: frozenset) -> bool:
    if site.func_attr in names:
        return True
    res = site.resolution
    external = res.external or ""
    if external in _SEEDING_CALLS:
        return True
    return bool(res.is_constructor and external
                and external.rsplit(".", 1)[-1]
                in ("Random", "RandomStreams"))


@register
class TaintedSimStateRule(ProjectRule):
    """R11: host nondeterminism flowing into sim state (cross-function).

    Why it matters: time.time()/os.environ/hash() values that travel
    through helper returns into event payloads or model attributes make
    two same-seed runs diverge, even when the read and the write are in
    different functions.

    Fix pattern: Cut the flow: derive the value from sim.now, the root
    seed, or configuration instead.

    Example: stamp = self._host_id()  # simlint: disable=R11 diagnostic
    label only, never ordered on
    """

    code = "R11"
    name = "tainted-sim-state"
    model = TaintEngine

    _KINDS = {WALLCLOCK, ENTROPY, WORKER}

    def check_project(self, engine: TaintEngine) -> Iterator[Finding]:
        for qualname in sorted(engine.call_sites):
            for site in engine.call_sites[qualname]:
                if not _is_sink(site, _SIM_STATE_SINKS):
                    continue
                for arg, kinds in site.tainted_args(self._KINDS):
                    yield self.finding(
                        site.caller.module.path, site.node,
                        "argument %s of %s() carries %s taint — sim "
                        "state must be a pure function of the seed; "
                        "derive the value from sim.now or sim.streams"
                        % (arg.label, _callee_label(site),
                           "/".join(sorted(kinds))))


@register
class RngStreamEscapeRule(ProjectRule):
    """R12: a named RNG stream re-seeded or forked non-derivably.

    Why it matters: RandomStreams guarantees per-name independence only
    while streams are derived through its API; re-seeding one from
    arbitrary data or aliasing it out re-couples draws across
    components.

    Fix pattern: Always obtain streams via streams.stream(name) and
    never call .seed() on one.

    Example: s.seed(n)  # simlint: disable=R12 n is itself derived from
    the root seed upstream
    """

    code = "R12"
    name = "rng-stream-escape"
    model = TaintEngine

    def check_project(self, engine: TaintEngine) -> Iterator[Finding]:
        for qualname in sorted(engine.call_sites):
            for site in engine.call_sites[qualname]:
                yield from self._check_site(engine, site)

    def _check_site(self, engine: TaintEngine,
                    site: CallSite) -> Iterator[Finding]:
        # Direct re-seed of a stream value in hand.
        if site.func_attr == "seed" and site.receiver_is_stream:
            yield self.finding(
                site.caller.module.path, site.node,
                "re-seeding a sim.streams stream discards its "
                "derivation from the root seed and correlates it with "
                "other consumers; request a fresh named stream instead")
            return
        # A stream handed to a function that re-seeds/forks the
        # corresponding parameter.
        res = site.resolution
        if res.target is not None:
            callee = engine.summary(res.target.qualname)
            if callee is not None and callee.reseed_params:
                params = callee.info.params
                offset = 1 if params and params[0] in ("self", "cls") \
                    else 0
                for index, arg in enumerate(site.node.args):
                    slot = index + offset
                    if slot >= len(params) or \
                            params[slot] not in callee.reseed_params:
                        continue
                    info = site.args[index] if index < len(site.args) \
                        else None
                    if info is not None and info.is_stream:
                        yield self.finding(
                            site.caller.module.path, site.node,
                            "RNG stream escapes to %s(), which re-seeds "
                            "or forks parameter '%s'; streams must stay "
                            "derivable from the root seed"
                            % (res.target.name, params[slot]))
        # A new generator forked from a stream's draws at this site.
        if _is_fork_site(site):
            for arg in site.args:
                if arg.draws_stream:
                    yield self.finding(
                        site.caller.module.path, site.node,
                        "new generator seeded from a stream's draws: "
                        "the child depends on the stream's consumption "
                        "position, not the root seed; use "
                        "streams.child()/spawn_key() instead")


_FORK_CALLS = frozenset({"random.Random", "numpy.random.default_rng",
                         "repro.simulation.randomness.RandomStreams"})


def _is_fork_site(site: CallSite) -> bool:
    res = site.resolution
    external = res.external or ""
    if external in _FORK_CALLS:
        return True
    return bool(res.is_constructor and external
                and external.rsplit(".", 1)[-1]
                in ("Random", "RandomStreams"))


@register
class HelperEventDiscardedRule(ProjectRule):
    """R13: discarding the Event returned (transitively) by a helper.

    Why it matters: A helper that returns sim.timeout(...)'s event is an
    R4 hazard one call away: invoking it as a bare statement loses the
    event just as surely, and the per-file rule cannot see it.

    Fix pattern: Yield or store the helper's return value; rename
    helpers that intentionally fire-and-forget so they return None.

    Example: self._kick()  # simlint: disable=R13 _kick schedules via
    call_at internally, return is advisory
    """

    code = "R13"
    name = "helper-event-discarded"
    model = TaintEngine

    def check_project(self, engine: TaintEngine) -> Iterator[Finding]:
        for qualname in sorted(engine.call_sites):
            for site in engine.call_sites[qualname]:
                if not site.is_bare_stmt:
                    continue
                res = site.resolution
                if res.target is None or res.is_constructor:
                    continue
                callee = engine.summary(res.target.qualname)
                if callee is None or not callee.returns_event or \
                        callee.info.is_generator:
                    continue
                yield self.finding(
                    site.caller.module.path, site.node,
                    "%s() returns an Event (via its call graph) but the "
                    "result is discarded — the event is lost; yield it "
                    "or store it" % res.target.name)


#: Sinks where iteration order becomes observable: scheduling keys and
#: trace/metric output.
_ORDER_SINKS = frozenset({"timeout", "succeed", "fail", "spawn",
                          "process", "seed", "heappush", "instant",
                          "begin", "counter", "gauge", "histogram"})


@register
class UnorderedKeyTaintRule(ProjectRule):
    """R14: hash/filesystem iteration order reaching keys or output.

    Why it matters: os.listdir()/glob() order and set/dict-over-hash
    order vary across hosts; when such an ordering reaches event keys or
    artifact rows, byte-identical output is impossible.

    Fix pattern: sorted() at the source, before the order can propagate.

    Example: names = os.listdir(d)  # simlint: disable=R14 sorted() two
    lines below before use
    """

    code = "R14"
    name = "unordered-key-taint"
    model = TaintEngine

    def check_project(self, engine: TaintEngine) -> Iterator[Finding]:
        for qualname in sorted(engine.call_sites):
            for site in engine.call_sites[qualname]:
                if not _is_sink(site, _ORDER_SINKS):
                    continue
                for arg, _kinds in site.tainted_args({UNORDERED}):
                    yield self.finding(
                        site.caller.module.path, site.node,
                        "argument %s of %s() derives from unordered "
                        "iteration (set / directory listing): scheduling "
                        "keys and trace/metric output must not depend "
                        "on hash or filesystem order; sort first"
                        % (arg.label, _callee_label(site)))
