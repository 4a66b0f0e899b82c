"""Sharded parallel simulation with deterministic conservative sync.

One large scenario, many cores: the grid is partitioned (by site, via
:meth:`repro.core.grid.VirtualGrid.partitions`), each partition runs
its *own* :class:`~repro.simulation.kernel.Simulation` kernel, and the
kernels synchronize with a conservative window protocol whose
lookahead is the simulated WAN latency between the partitions'
sites — exactly where cross-site events already pay delay, so the
protocol never has to roll anything back.

Protocol (a per-pair-lookahead window scheme in the YAWNS family):

1. every shard reports the time of its next event, ``n_g`` (including
   not-yet-delivered inbound messages);
2. each shard's *horizon* is ``min over senders j of n_j + L[j][g]``,
   where ``L[j][g]`` is the minimum simulated latency from any host of
   ``j`` to any host of ``g`` (:meth:`Network.min_latency`) — no
   message from ``j`` can take effect at ``g`` before its send time
   plus ``L[j][g]``, so everything below the horizon is safe to run;
3. shards run to their horizons in parallel, queueing cross-shard
   sends in per-destination channels;
4. at the barrier, channels drain: each message is stamped
   ``(send_time, sender_shard, sequence)`` and delivered sorted by
   ``(deliver_time, send_time, sender, seq)``, so the delivery order —
   and therefore every downstream event id — is a pure function of the
   message *set*, never of shard count, process placement or
   wall-clock interleaving.
5. a shard whose model declares it will send no more
   (:meth:`ShardWorld.close_outbound`) stops constraining anyone's
   horizon — the CMB "null message at +infinity" — which is what lets
   a scenario's compute tail run fully parallel, one final unbounded
   window per shard.

Determinism contract: **every artifact of a sharded run is a pure
function of (scenario, seed, partition plan)** — never of ``shards``.
``shards=1`` executes the same plan, same windows, same channel
stamps, in one process; ``shards=N`` spreads the partition kernels
over ``N`` persistent worker processes (kept warm through
:mod:`repro.simulation.workerpool`, the same warm-pool discipline as
the replication runner).  Per-shard
:class:`~repro.obs.metrics.MetricsRegistry` (partition-keyed) and
:class:`~repro.obs.recorder.FlightRecorder` instances fold through
their existing merge paths to byte-identical outputs for any shard
count; ``tests/simulation/test_sharded.py`` and ``make
shard-determinism`` hold the proofs.

A scenario that cannot be decomposed (cross-partition state touched
without a latency-paying event in between — e.g. the paper scenarios'
synchronous NFS mounts sharing one max-min flow engine) must run as a
single partition group; the engine then degenerates to the plain
single-kernel run, byte-identical by construction.  See
``docs/sharding.md``.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.simulation.kernel import Simulation, SimulationError

__all__ = [
    "ShardError",
    "ShardMessage",
    "ShardWorld",
    "ShardKernel",
    "ShardPlan",
    "ShardRunResult",
    "ShardedSimulation",
    "deliver_order",
]

_INF = float("inf")


class ShardError(SimulationError):
    """Raised for misuse of the sharded engine or protocol violations."""


class ShardMessage:
    """One cross-shard event in flight.

    The stamp ``(send_time, sender, seq)`` totally orders the messages
    of any one sender, and — prefixed with ``deliver_time`` — totally
    orders every message a destination shard receives: ``seq`` is
    allocated per (sender, destination) channel, so two messages can
    share a stamp prefix only by being the same message.  Payloads
    must be picklable value data (numbers, strings, tuples, dicts);
    live model objects never cross a shard boundary.
    """

    __slots__ = ("dest", "channel", "payload", "deliver_time",
                 "send_time", "sender", "seq")

    def __init__(self, dest: str, channel: str, payload: Any,
                 deliver_time: float, send_time: float, sender: str,
                 seq: int):
        self.dest = dest
        self.channel = channel
        self.payload = payload
        self.deliver_time = deliver_time
        self.send_time = send_time
        self.sender = sender
        self.seq = seq

    @property
    def sort_key(self) -> Tuple[float, float, str, int]:
        """The canonical delivery order key."""
        return (self.deliver_time, self.send_time, self.sender, self.seq)

    def __repr__(self) -> str:
        return ("<ShardMessage %s->%s/%s t=%.6g deliver=%.6g seq=%d>"
                % (self.sender, self.dest, self.channel, self.send_time,
                   self.deliver_time, self.seq))


def deliver_order(messages: Iterable[ShardMessage]) -> List[ShardMessage]:
    """Messages sorted into canonical delivery order.

    The order is a pure function of the message set: however the
    messages arrived (which round, which worker, which interleaving),
    sorting by ``(deliver_time, send_time, sender, seq)`` reproduces
    one total order, because the stamp is unique per message.
    """
    return sorted(messages, key=lambda m: m.sort_key)


class ShardWorld:
    """One partition's simulation plus its channel endpoints.

    A scenario *builder* (a module-level callable, so it can run in a
    worker process) constructs one world per partition group: build
    the group's slice of the grid against ``world.sim``, register
    inbound handlers with :meth:`on_message`, and emit cross-shard
    events with :meth:`send`.  ``lookaheads`` maps each reachable
    destination group to the minimum simulated latency toward it — the
    engine injects the plan's matrix row, and :meth:`send` enforces
    that no message undercuts it (the conservative protocol's safety
    condition).
    """

    def __init__(self, sim: Simulation, group: str,
                 lookaheads: Optional[Mapping[str, float]] = None,
                 recorder=None):
        self.sim = sim
        self.group = group
        self.lookaheads: Dict[str, float] = dict(lookaheads or {})
        for dest, value in self.lookaheads.items():
            if dest == group:
                raise ShardError("lookahead of %s toward itself" % group)
            if not value > 0.0:
                raise ShardError(
                    "lookahead %s->%s must be positive, got %r — a "
                    "zero-delay coupling means the groups belong to "
                    "one shard" % (group, dest, value))
        #: The per-shard flight recorder, if any.  Must not be started:
        #: the engine samples it at conservative window boundaries so
        #: every shard's heartbeats align (see ShardKernel), instead of
        #: a per-world heartbeat process that would keep the queue
        #: alive forever.
        self.recorder = recorder
        if recorder is not None and recorder._proc is not None:
            raise ShardError("hand the engine an unstarted recorder; "
                             "it samples at window boundaries")
        #: Optional result hook: ``collect(world) -> picklable`` runs
        #: at finalize time and its value lands in the run results
        #: under ``"data"``.
        self.collect: Optional[Callable[["ShardWorld"], Any]] = None
        self.outbound_open = True
        #: Earliest-cross-send forecast: the model's binding promise
        #: that no :meth:`send` happens before this simulated instant.
        #: Monotone (see :meth:`promise_no_send_before`); the adaptive
        #: coordinator widens other shards' windows with it.
        self.send_promise = 0.0
        self._handlers: Dict[str, Callable[["ShardWorld", ShardMessage],
                                           Any]] = {}
        self._outbox: List[ShardMessage] = []
        self._next_seq: Dict[str, int] = {}  # simlint: disable=R23  per-destination sequence counters: bounded by the shard plan's channel set
        self.sent = 0
        self.received = 0

    # -- channel API ---------------------------------------------------------

    def on_message(self, channel: str,
                   handler: Callable[["ShardWorld", ShardMessage], Any]
                   ) -> None:
        """Register the inbound handler for one named channel.

        The handler runs at the message's stamped delivery time (in
        canonical delivery order) and may spawn processes in
        ``world.sim``; it must not block.
        """
        if channel in self._handlers:
            raise ShardError("channel %s already has a handler" % channel)
        self._handlers[channel] = handler

    def send(self, dest: str, channel: str, payload: Any,
             latency: float) -> ShardMessage:
        """Emit one cross-shard event, delivered ``latency`` from now.

        ``latency`` models the full simulated delay the event pays to
        reach the destination (propagation plus any serialization the
        sender accounts for) and must be at least the plan's lookahead
        toward ``dest`` — sending below lookahead would let an event
        land inside a window the destination already executed.
        """
        if not self.outbound_open:
            raise ShardError(
                "%s closed its outbound channels; close_outbound() is a "
                "promise to send no more" % self.group)
        if self.sim.now < self.send_promise:
            raise ShardError(
                "%s sends at t=%.6g, breaking its promise of no sends "
                "before %.6g — promise_no_send_before must never "
                "overshoot the model's true next send"
                % (self.group, self.sim.now, self.send_promise))
        if dest == self.group:
            raise ShardError("cross-shard send to own group %s" % dest)
        lookahead = self.lookaheads.get(dest, _INF)
        if lookahead == _INF:
            raise ShardError("no channel from %s to %s in the shard plan"
                             % (self.group, dest))
        if latency < lookahead:
            raise ShardError(
                "send %s->%s at latency %r undercuts the lookahead %r"
                % (self.group, dest, latency, lookahead))
        seq = self._next_seq.get(dest, 0)
        self._next_seq[dest] = seq + 1
        message = ShardMessage(dest, channel, payload,
                               self.sim.now + latency, self.sim.now,
                               self.group, seq)
        self._outbox.append(message)
        self.sent += 1
        return message

    def close_outbound(self) -> None:
        """Declare that this shard will never send again.

        Monotone and binding: after the close drains, no other shard's
        horizon considers this one, which is what lets disjoint tails
        run to completion in a single unbounded window.
        """
        self.outbound_open = False

    def promise_no_send_before(self, when: float) -> None:
        """Forecast: no cross-shard send strictly before ``when``.

        The bounded cousin of :meth:`close_outbound` (which is the
        promise at +infinity).  Binding — :meth:`send` raises if the
        model breaks it — and monotone: a promise never retreats, so a
        stale (past) forecast is harmless rather than wrong.  The
        adaptive coordinator computes every other shard's window from
        ``max(next_event, promise) + lookahead`` instead of
        ``next_event + lookahead``, which is what cuts round count when
        lookahead is small relative to event density: a shard that is
        busy with internal work but knows its next send instant (a
        scheduled announce, a queued transfer's completion) lets
        everyone else run right up to that instant plus the latency
        floor.  Conservatism is preserved because a send can only
        happen at an executed event (``>=`` the shard's reported next
        event time) *and* at or after the reported promise (enforced
        above; promises only grow after reporting).
        """
        if when > self.send_promise:
            self.send_promise = when

    # -- engine side ---------------------------------------------------------

    def dispatch(self, message: ShardMessage) -> None:
        """Deliver one inbound message to its channel handler."""
        handler = self._handlers.get(message.channel)
        if handler is None:
            raise ShardError("%s has no handler for channel %r"
                             % (self.group, message.channel))
        self.received += 1
        handler(self, message)

    def drain_outbox(self) -> List[ShardMessage]:
        """Remove and return everything sent since the last drain."""
        out, self._outbox = self._outbox, []
        return out

    def result(self) -> Dict[str, Any]:
        """The picklable per-shard outcome shipped back at finalize."""
        out: Dict[str, Any] = {
            "group": self.group,
            "now": self.sim.now,
            "events": self.sim._next_id,
            "sent": self.sent,
            "received": self.received,
            "metrics": self.sim._metrics,  # None unless the world made one
        }
        if self.recorder is not None:
            out["recorder"] = self.recorder.detach()
        if self.collect is not None:
            out["data"] = self.collect(self)
        return out

    def __repr__(self) -> str:
        return "<ShardWorld %s t=%.6f out=%d>" % (
            self.group, self.sim.now, len(self._outbox))


class ShardKernel:
    """The engine's handle on one world: windows, delivery, sampling.

    Drives the world's kernel between conservative barriers.  All
    ``world.sim`` access below is the engine executing its own
    protocol on the shard it owns — model code must go through the
    channel API instead (simlint rule R21 flags bypasses).
    """

    def __init__(self, world: ShardWorld):
        self.world = world
        recorder = world.recorder
        self._interval = recorder.interval if recorder is not None else None
        # The next aligned sample instant: multiples of the interval
        # from time zero, identical on every shard by construction.
        self._next_sample = self._interval if recorder is not None else None
        # Undispatched inbound messages.  Dispatch happens per *instant*,
        # not per arrival: every message due at the drain's time goes out
        # in one stamp-ordered batch, so two same-instant messages order
        # identically whether one round carried both or two rounds
        # carried one each.
        self._inbox: List[ShardMessage] = []

    def status(self) -> Dict[str, Any]:
        """The shard's barrier report before any window has run."""
        sim = self.world.sim  # simlint: disable=R21  engine-owned shard
        return {"next": sim.peek(), "now": sim.now,
                "open": self.world.outbound_open,
                "promise": self.world.send_promise}

    def _deliver(self, messages: Sequence[ShardMessage]) -> None:
        sim = self.world.sim  # simlint: disable=R21  engine-owned shard
        for message in deliver_order(messages):
            if message.deliver_time < sim.now:
                raise ShardError(
                    "message %r arrives in %s's past (now=%.6g) — "
                    "lookahead violation" % (message, self.world.group,
                                             sim.now))
            self._inbox.append(message)
            sim.call_at(message.deliver_time, self._drain)

    def _drain(self, sim: Simulation) -> None:
        """Dispatch every inbox message due now, in stamp order.

        One drain event is scheduled per message, but the first one to
        fire at an instant flushes the whole instant (later drains at
        the same time no-op), so the dispatch order within an instant
        is the canonical stamp order however arrivals were batched
        into rounds.
        """
        now = sim.now
        # Exact float match by construction: each drain fires via
        # call_at(message.deliver_time), so ``now`` IS one of the
        # stamps, bit for bit — no arithmetic happened in between.
        due = [m for m in self._inbox if m.deliver_time == now]  # simlint: disable=R6  drain fires at the exact stamp
        if not due:
            return
        self._inbox = [m for m in self._inbox
                       if m.deliver_time != now]  # simlint: disable=R6  drain fires at the exact stamp
        for message in deliver_order(due):
            self.world.dispatch(message)

    def _advance(self, horizon: float) -> None:
        """Run the kernel to ``horizon`` (unbounded when infinite),
        sampling the flight recorder at every aligned instant crossed."""
        sim = self.world.sim  # simlint: disable=R21  engine-owned shard
        recorder = self.world.recorder
        if recorder is None:
            if horizon == _INF:
                sim.run()
            elif horizon > sim.now:
                sim.run(until=horizon)
            return
        interval = self._interval
        while True:
            bound = min(horizon, sim.peek())
            if bound == _INF:
                break
            while self._next_sample <= bound:
                sim.run(until=self._next_sample)
                recorder.sample()
                self._next_sample += interval
            if bound >= horizon:
                break
            sim.run(until=bound)
        if horizon != _INF and horizon > sim.now:
            sim.run(until=horizon)

    def round(self, directive: Mapping[str, Any]) -> Dict[str, Any]:
        """Deliver inbound messages, run one window, report back."""
        import time

        sim = self.world.sim  # simlint: disable=R21  engine-owned shard
        events_before = sim._next_id
        self._deliver(directive.get("messages", ()))
        cpu_before = time.process_time()  # simlint: disable=R2  harness timing, never reaches the model
        self._advance(directive["horizon"])
        cpu = time.process_time() - cpu_before  # simlint: disable=R2  harness timing, never reaches the model
        return {
            "next": sim.peek(),
            "now": sim.now,
            "open": self.world.outbound_open,
            "promise": self.world.send_promise,
            "out": self.world.drain_outbox(),
            "events": sim._next_id - events_before,
            "cpu": cpu,
        }

    def finalize(self, end_time: float) -> Dict[str, Any]:
        """Park the shard at the global end time and collect results.

        Runs the (drained) kernel forward so every shard's flight
        recorder samples the same aligned instants up to ``end_time``
        plus one final beat exactly at it — the alignment
        :meth:`FlightRecorder.merge` requires.
        """
        sim = self.world.sim  # simlint: disable=R21  engine-owned shard
        recorder = self.world.recorder
        if recorder is not None:
            while self._next_sample <= end_time:
                sim.run(until=self._next_sample)
                recorder.sample()
                self._next_sample += self._interval
        if end_time > sim.now:
            sim.run(until=end_time)
        if recorder is not None:
            recorder.stop(final_sample=True)
        return self.world.result()


class ShardPlan:
    """The partition groups and their pairwise lookahead matrix."""

    def __init__(self, groups: Sequence[str],
                 lookaheads: Optional[Mapping[Tuple[str, str],
                                              float]] = None):
        if not groups:
            raise ShardError("a shard plan needs at least one group")
        if len(set(groups)) != len(groups):
            raise ShardError("duplicate group labels: %r" % (groups,))
        #: Canonical group order: sorted labels.  Every fold the engine
        #: performs (message collection, result merging) walks this
        #: order, which is what makes outputs placement-invariant.
        self.groups: Tuple[str, ...] = tuple(sorted(groups))
        self._lookaheads: Dict[Tuple[str, str], float] = {}
        for (src, dst), value in dict(lookaheads or {}).items():
            if src not in self.groups or dst not in self.groups:
                raise ShardError("lookahead names unknown group: %r"
                                 % ((src, dst),))
            if src == dst:
                raise ShardError("lookahead of %s toward itself" % src)
            if not value > 0.0:
                raise ShardError(
                    "lookahead %s->%s must be positive, got %r — merge "
                    "zero-delay-coupled groups into one shard instead"
                    % (src, dst, value))
            self._lookaheads[(src, dst)] = float(value)

    def lookahead(self, src: str, dst: str) -> float:
        """Min delay of any src->dst event (``inf``: no channel)."""
        return self._lookaheads.get((src, dst), _INF)

    def row(self, src: str) -> Dict[str, float]:
        """``dest -> lookahead`` for one sender (finite entries only)."""
        return {dst: value
                for (a, dst), value in sorted(self._lookaheads.items())
                if a == src}

    @classmethod
    def uniform(cls, groups: Sequence[str], lookahead: float
                ) -> "ShardPlan":
        """All-pairs channels with one shared lookahead."""
        matrix = {(a, b): lookahead
                  for a in groups for b in groups if a != b}
        return cls(groups, matrix)

    def __repr__(self) -> str:
        return "<ShardPlan groups=%d channels=%d>" % (
            len(self.groups), len(self._lookaheads))


class _ShardHost:
    """Build-and-drive state for the shards one executor owns.

    Instantiated per run in the coordinator (local mode) and once per
    worker process (process mode); either way it answers the same
    three requests, so both transports execute identical code.
    """

    def __init__(self):
        self.kernels: Dict[str, ShardKernel] = {}

    def handle(self, request: Tuple[str, Any]) -> Any:
        op, payload = request
        if op == "build":
            return self._build(payload)
        if op == "round":
            return {group: self.kernels[group].round(payload[group])
                    for group in sorted(payload)}
        if op == "finish":
            return {group: kernel.finalize(payload["end"])
                    for group, kernel in sorted(self.kernels.items())}
        raise ShardError("unknown shard request %r" % (op,))

    def _build(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        import importlib

        self.kernels.clear()
        module_name, qualname = payload["builder"]
        builder = importlib.import_module(module_name)
        for part in qualname.split("."):
            builder = getattr(builder, part)
        status = {}
        for group in payload["groups"]:
            world = builder(group=group,
                            lookaheads=payload["lookaheads"][group],
                            **payload["kwargs"])
            if not isinstance(world, ShardWorld):
                raise ShardError("builder returned %r, not a ShardWorld"
                                 % (world,))
            if world.group != group:
                raise ShardError("builder built group %r when asked "
                                 "for %r" % (world.group, group))
            kernel = ShardKernel(world)
            self.kernels[group] = kernel
            status[group] = kernel.status()
        return status


#: The request handler worker processes serve (workerpool main).  The
#: host instance is worker-process-private engine scaffolding: each
#: build request replaces its contents wholesale, and nothing model-
#: level survives between runs except by arriving in the next build
#: message.
_WORKER_HOST = _ShardHost()  # simlint: disable=R15  worker-process-private engine state, replaced per build request


def _shard_worker_main(request):
    """Module-level worker entry (must be picklable by reference)."""
    return _WORKER_HOST.handle(request)


class ShardRunResult:
    """Everything a sharded run produced, plus engine statistics."""

    def __init__(self, plan: ShardPlan, shards: int, workers: int,
                 adaptive: bool = True):
        self.plan = plan
        self.shards = shards
        self.workers = workers
        #: Whether windows grew from earliest-cross-send forecasts.
        self.adaptive = adaptive
        #: group -> the world's :meth:`ShardWorld.result` dict.
        self.results: Dict[str, Dict[str, Any]] = {}
        self.rounds = 0
        self.messages_delivered = 0
        self.end_time = 0.0
        #: group -> events created / engine CPU-seconds consumed.
        self.events: Dict[str, int] = {}
        self.cpu: Dict[str, float] = {}
        self.coordinator_cpu = 0.0

    @property
    def total_events(self) -> int:
        return sum(self.events.values())

    def data(self, group: str) -> Any:
        """One group's ``collect`` payload."""
        return self.results[group].get("data")

    def merged_metrics(self):
        """Per-shard registries folded in canonical group order."""
        from repro.obs.metrics import MetricsRegistry

        merged = MetricsRegistry()
        for group in self.plan.groups:
            registry = self.results[group].get("metrics")
            if registry is not None:
                merged.merge(registry)
        return merged

    def merged_recorder(self):
        """Per-shard flight records folded (None when none recorded)."""
        from repro.obs.recorder import FlightRecorder

        parts = [self.results[group]["recorder"]
                 for group in self.plan.groups
                 if self.results[group].get("recorder") is not None]
        if not parts:
            return None
        return FlightRecorder.merge(parts)

    def __repr__(self) -> str:
        return ("<ShardRunResult groups=%d rounds=%d messages=%d "
                "events=%d>" % (len(self.results), self.rounds,
                                self.messages_delivered,
                                self.total_events))


class ShardedSimulation:
    """The coordinator: partition kernels under conservative windows.

    ``builder`` must be a module-level callable (it crosses process
    boundaries by name) with signature ``builder(group, lookaheads,
    **kwargs) -> ShardWorld``; ``kwargs`` must be picklable.
    ``shards`` bounds wall-clock concurrency only — one worker process
    per shard, capped at the number of partition groups; ``shards=1``
    (or a single group) runs everything in-process.  Results are a
    pure function of (builder, kwargs, plan): the round schedule,
    channel stamps, and fold orders never depend on ``shards``.
    """

    def __init__(self, builder: Callable[..., ShardWorld],
                 plan: ShardPlan, shards: int = 1,
                 kwargs: Optional[Mapping[str, Any]] = None,
                 adaptive: bool = True):
        if shards < 1:
            raise ShardError("shards must be >= 1, got %r" % (shards,))
        if not callable(builder):
            raise ShardError("builder must be callable, got %r"
                             % (builder,))
        module = getattr(builder, "__module__", None)
        qualname = getattr(builder, "__qualname__", "")
        if module is None or "<locals>" in qualname:
            raise ShardError("builder must be a module-level callable "
                             "(it crosses process boundaries by name)")
        self.builder = builder
        self.plan = plan
        self.shards = shards
        self.kwargs = dict(kwargs or {})
        self.workers = max(1, min(shards, len(plan.groups)))
        #: Grow windows from per-shard earliest-cross-send forecasts
        #: (:meth:`ShardWorld.promise_no_send_before`).  Window *sizes*
        #: change; delivered message stamps and artifacts do not, so
        #: this is on by default (``adaptive=False`` reproduces the
        #: fixed-lookahead round schedule for A/B measurement).
        self.adaptive = adaptive

    # -- placement -----------------------------------------------------------

    def _assignment(self) -> List[List[str]]:
        """Groups per worker, round-robin over canonical order."""
        buckets: List[List[str]] = [[] for _ in range(self.workers)]
        for index, group in enumerate(self.plan.groups):
            buckets[index % self.workers].append(group)
        return buckets

    def run(self) -> ShardRunResult:
        """Execute the scenario to quiescence and collect every shard."""
        import time

        result = ShardRunResult(self.plan, self.shards, self.workers,
                                adaptive=self.adaptive)
        cpu_start = time.process_time()  # simlint: disable=R2  harness timing, never reaches the model
        assignment = self._assignment()
        owner = {group: worker
                 for worker, groups in enumerate(assignment)
                 for group in groups}
        if self.workers == 1:
            host = _ShardHost()
            transports: List[Callable] = [host.handle]
        else:
            from repro.simulation.workerpool import warm_group

            group = warm_group(self.workers, _shard_worker_main)
            transports = []
        spec = {
            "builder": (self.builder.__module__,
                        self.builder.__qualname__),
            "kwargs": self.kwargs,
            "lookaheads": {g: self.plan.row(g)
                           for g in self.plan.groups},
        }

        def roundtrip(requests: List[Tuple[int, Any]]) -> List[Any]:
            if self.workers == 1:
                return [transports[0](request)
                        for _worker, request in requests]
            return group.roundtrip(requests)

        # -- build ----------------------------------------------------------
        replies = roundtrip([
            (worker, ("build", dict(spec, groups=groups)))
            for worker, groups in enumerate(assignment)])
        state: Dict[str, Dict[str, Any]] = {}
        for reply in replies:
            state.update(reply)
        for g in self.plan.groups:
            result.events[g] = 0
            result.cpu[g] = 0.0
        pending: Dict[str, List[ShardMessage]] = {g: []
                                                  for g in self.plan.groups}

        # -- conservative window rounds --------------------------------------
        while True:
            eff = {}
            for g in self.plan.groups:
                bound = state[g]["next"]
                for message in pending[g]:
                    if message.deliver_time < bound:
                        bound = message.deliver_time
                eff[g] = bound
            if all(value == _INF for value in eff.values()):
                break
            horizons = {}
            for g in self.plan.groups:
                horizon = _INF
                for j in self.plan.groups:
                    if j == g or not state[j]["open"]:
                        continue
                    lookahead = self.plan.lookahead(j, g)
                    if lookahead == _INF:
                        continue
                    # A send from j happens at an executed event (so at
                    # or after eff[j]) and never before j's reported
                    # promise (enforced in ShardWorld.send; promises
                    # only grow after reporting) — the later of the two
                    # is the conservative send floor.
                    send_floor = eff[j]
                    if self.adaptive and state[j]["promise"] > send_floor:
                        send_floor = state[j]["promise"]
                    horizon = min(horizon, send_floor + lookahead)
                horizons[g] = horizon
            runnable = [g for g in self.plan.groups
                        if pending[g] or eff[g] <= horizons[g]]
            if not runnable:
                raise ShardError(
                    "conservative deadlock: no shard can advance "
                    "(eff=%r horizons=%r)" % (eff, horizons))
            per_worker: Dict[int, Dict[str, Any]] = {}
            for g in runnable:
                directive = {"horizon": horizons[g],
                             "messages": pending[g]}
                pending[g] = []
                per_worker.setdefault(owner[g], {})[g] = directive
                result.messages_delivered += len(directive["messages"])
            replies = roundtrip(sorted((worker, ("round", directives))
                                       for worker, directives
                                       in per_worker.items()))
            for reply in replies:
                for g in sorted(reply):
                    report = reply[g]
                    state[g] = {"next": report["next"],
                                "now": report["now"],
                                "open": report["open"],
                                "promise": report["promise"]}
                    result.events[g] += report["events"]
                    result.cpu[g] += report["cpu"]
            # Collect sends in canonical group order so the pending
            # lists — and therefore next round's delivery sort inputs —
            # are identical whatever the worker interleaving was.
            outgoing: Dict[str, List[ShardMessage]] = {
                g: [] for g in self.plan.groups}
            for reply in replies:
                for g in sorted(reply):
                    outgoing[g] = reply[g]["out"]
            for g in self.plan.groups:
                for message in outgoing[g]:
                    if message.dest not in pending:
                        raise ShardError("message to unknown group %r"
                                         % (message.dest,))
                    lookahead = self.plan.lookahead(g, message.dest)
                    if message.deliver_time - message.send_time \
                            < lookahead:
                        raise ShardError(
                            "%r undercuts lookahead %r" % (message,
                                                           lookahead))
                    pending[message.dest].append(message)
            result.rounds += 1

        # -- finalize --------------------------------------------------------
        result.end_time = max(state[g]["now"] for g in self.plan.groups)
        replies = roundtrip([(worker, ("finish",
                                       {"end": result.end_time}))
                             for worker, groups in enumerate(assignment)
                             if groups])
        for reply in replies:
            result.results.update(reply)
        result.coordinator_cpu = (
            time.process_time() - cpu_start  # simlint: disable=R2  harness timing, never reaches the model
            - (sum(result.cpu.values()) if self.workers == 1 else 0.0))
        return result
