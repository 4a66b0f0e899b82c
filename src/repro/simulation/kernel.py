"""The discrete-event simulation kernel.

The kernel implements a process-interaction simulation in the style of
SimPy.  A :class:`Simulation` owns a virtual clock and a priority queue of
scheduled events.  Model code is written as generator functions that yield
:class:`Event` objects (most commonly :class:`Timeout`); the kernel resumes
the generator when the yielded event fires.

Only the features the rest of :mod:`repro` needs are implemented, which
keeps the kernel small, easy to audit, and fast:

* one-shot events with success/failure values,
* timeouts,
* processes (which are themselves events that fire on termination),
* process interruption (used to model preemption and VM suspend),
* ``all_of`` / ``any_of`` composite conditions,
* an end-of-instant hook (:meth:`Simulation.at_instant_end`), through
  which a model that many events touch in one instant settles once.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import (Any, Callable, Deque, Dict, Generator, Iterable,
                    List, Optional, Tuple)

from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "Interrupt",
    "Simulation",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`, letting the interrupted process decide how to
    react (e.g. a CPU model distinguishing preemption from cancellation).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: Sentinel for "event has not yet fired".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Events move through three states: *pending* (created, not triggered),
    *triggered* (scheduled to fire at the current simulation time) and
    *processed* (callbacks have run).  An event fires exactly once, either
    successfully with a value (:meth:`succeed`) or with an exception
    (:meth:`fail`).

    Events are the kernel's unit of allocation — every timeout, resource
    grant and message hand-off creates one — so the class is slotted and
    the trigger paths write the heap entry directly instead of going
    through :meth:`Simulation._enqueue_event`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulation"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # True once a failure has reached a waiter (a process or a
        # condition) and must not escalate out of Simulation.step().
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event has not yet fired."""
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        # Inlined _enqueue_event: this is the kernel's hottest call
        # site, and a normal-priority entry at the current time goes to
        # the O(1) immediate queue.
        sim = self.sim
        sim._immediate.append((sim.now, 2, sim._next_id, self))
        sim._next_id += 1
        if sim._tracing:
            sim.trace.on_event_scheduled(sim, self, sim.now, 2)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._enqueue_event(self)
        return self

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return "<%s %s at %#x>" % (type(self).__name__, state, id(self))


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time.

    A timeout is born triggered — it can never be succeeded, failed or
    waited on before it is scheduled — so construction skips the
    pending-sentinel dance and writes its heap entry directly.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError("timeout delay must be non-negative, got %r"
                                  % (delay,))
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        if delay:
            when = sim.now + delay
            heappush(sim._queue, (when, 2, sim._next_id, self))
        else:
            when = sim.now
            sim._immediate.append((when, 2, sim._next_id, self))
        sim._next_id += 1
        if sim._tracing:
            sim.trace.on_event_scheduled(sim, self, when, 2)


class Initialize(Event):
    """Internal event used to start a newly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulation", process: "Process"):
        self.sim = sim
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._defused = False
        sim._enqueue_event(self, priority=Simulation._PRIORITY_HIGH)


class Process(Event):
    """A running model coroutine.

    A process wraps a generator.  Each value the generator yields must be
    an :class:`Event`; the process sleeps until that event fires and is
    then resumed with the event's value (or the event's exception is thrown
    into it).  The process object is itself an event that fires when the
    generator terminates, so processes can wait for each other.
    """

    __slots__ = ("name", "_generator", "_target")

    def __init__(self, sim: "Simulation", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                "Process requires a generator, got %r" % (generator,))
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = Initialize(sim, self)
        if sim._tracing:
            sim.trace.on_process_spawned(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is about to be resumed delivers the interrupt first.
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt dead process %s" % self.name)
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        interrupt_event = Event(self.sim)
        interrupt_event.callbacks.append(self._resume)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True  # never escalates to the kernel
        self.sim._enqueue_event(interrupt_event,
                                priority=Simulation._PRIORITY_URGENT)
        if self.sim._tracing:
            self.sim.trace.on_process_interrupted(self.sim, self, cause)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        generator = self._generator
        sim._active_process = self
        if sim._tracing:
            sim.trace.on_process_resumed(sim, self)
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # Mark the failure as handled: it reached a process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                sim._enqueue_event(self)
                if sim._tracing:
                    sim.trace.on_process_terminated(sim, self, True)
                break
            except BaseException as exc:  # model code raised
                self._ok = False
                self._value = exc
                sim._enqueue_event(self)
                if sim._tracing:
                    sim.trace.on_process_terminated(sim, self, False)
                break

            if not isinstance(next_event, Event):
                generator.throw(SimulationError(
                    "process %s yielded %r, which is not an Event"
                    % (self.name, next_event)))
                continue
            if next_event.sim is not sim:
                generator.throw(SimulationError(
                    "process %s yielded an event from another simulation"
                    % self.name))
                continue

            self._target = next_event
            callbacks = next_event.callbacks
            if callbacks is not None:
                # Event still pending or triggered-but-unprocessed: wait.
                callbacks.append(self._resume)
                break
            # Event already processed: resume immediately with its value.
            if sim._tracing:
                sim.trace.on_event_observed(sim, next_event)
            event = next_event

        sim._active_process = None

    def __repr__(self) -> str:
        return "<Process %s %s at %#x>" % (
            self.name, "alive" if self.is_alive else "dead", id(self))


class Condition(Event):
    """Composite event firing when ``count`` of its sub-events have fired.

    Used through :meth:`Simulation.all_of` and :meth:`Simulation.any_of`.
    The condition's value is a list of the values of the fired sub-events,
    in the order the sub-events were given.
    """

    __slots__ = ("_events", "_needed", "_fired", "_collected", "_index")

    def __init__(self, sim: "Simulation", events: Iterable[Event],
                 count: Optional[int] = None):
        super().__init__(sim)
        self._events = list(events)
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("condition mixes simulations")
        self._needed = len(self._events) if count is None else count
        self._fired = 0
        # Values are collected incrementally as sub-events complete
        # (keyed back to their position via the id-map), so firing a
        # wide all_of is one O(n) assembly, not a rescan of every
        # sub-event state per completion.
        self._collected: List[Any] = [_PENDING] * len(self._events)
        self._index = {id(event): i
                       for i, event in enumerate(self._events)}
        if self._needed == 0:
            self.succeed([])
            return
        for event in self._events:
            if event.callbacks is None:
                if sim._tracing:
                    sim.trace.on_event_observed(sim, event)
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._fired += 1
        index = self._index[id(event)]
        if self._collected[index] is _PENDING:
            self._collected[index] = event._value
        if self._fired >= self._needed:
            # Assemble in given order.  Slots not collected through
            # _check still contribute when their event has triggered
            # successfully (e.g. triggered-but-unprocessed sub-events
            # of an any_of, or duplicate entries sharing one id slot).
            values = []
            for i, e in enumerate(self._events):
                v = self._collected[i]
                if v is not _PENDING:
                    values.append(v)
                elif e._value is not _PENDING and e._ok:
                    values.append(e._value)
            self.succeed(values)


class Simulation:
    """The event loop: a virtual clock plus a priority queue of events.

    Typical use::

        sim = Simulation()

        def worker(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"

    Internally two queues back the loop: the heap ``_queue`` for
    entries in the future (or at non-normal priority), and the deque
    ``_immediate`` for normal-priority entries at the current time —
    the path every ``Event.succeed`` takes.  Because the clock never
    moves backwards and entry ids strictly increase, ``_immediate`` is
    always sorted by the same ``(when, priority, id)`` key the heap
    uses, so merging the two heads reproduces the single-heap firing
    order exactly while the hot path pays O(1) instead of O(log n).

    An *instant* is every event at one clock value.  Callbacks passed to
    :meth:`at_instant_end` run when the current instant has no event
    left, before the clock moves on or the loop returns: a pending call
    behaves as one more event at ``now``, after all the others (so
    :meth:`peek` reports ``now`` and :meth:`step` processes it as one
    step).  An event such a callback schedules at ``now`` is processed
    in the same instant, and any callback it registers runs after it.
    The processor-sharing CPU uses this to sample its monitors and arm
    its completion timer once per instant, however many submits,
    cancels and completions the instant holds.
    """

    _PRIORITY_URGENT = 0   # interrupts
    _PRIORITY_HIGH = 1     # process initialization
    _PRIORITY_NORMAL = 2   # ordinary events

    def __init__(self, start_time: float = 0.0, seed: int = 0,
                 tracer: Optional[Tracer] = None, metrics=None):
        self.now = float(start_time)
        self.seed = int(seed)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._immediate: Deque[Tuple[float, int, int, Event]] = deque()
        self._next_id = 0
        self._active_process: Optional[Process] = None
        #: Callbacks due at the end of the current instant, in order.
        self._instant_end: Dict[Callable[[], None], None] = {}
        self._streams = None
        # ``metrics`` lets the owner install a pre-configured registry
        # (e.g. a partition-keyed one for a shard kernel) before any
        # component resolves a metric; None keeps the lazy default.
        self._metrics = metrics
        self._model_caches: Optional[Dict[str, dict]] = None
        #: The attached tracer; the shared null tracer unless one is given.
        self.trace: Tracer = tracer if tracer is not None else NULL_TRACER
        # Hot-path guard: hook sites test one boolean attribute, so an
        # untraced simulation pays a branch, never a method call.
        self._tracing = self.trace.enabled
        if self._tracing:
            self.trace.bind(self)

    @property
    def streams(self):
        """The simulation-owned RNG stream registry (lazily created).

        Components that are not handed an explicit ``rng`` derive their
        default stream from here, so a simulation's draws are a pure
        function of its ``seed`` — never of a hard-coded literal.
        """
        if self._streams is None:
            from repro.simulation.randomness import RandomStreams

            self._streams = RandomStreams(self.seed)
        return self._streams

    @property
    def metrics(self):
        """The simulation-owned metrics registry (lazily created).

        Components resolve their metric objects here once at
        construction time (``sim.metrics.counter("layer.name")``) and
        update them directly afterwards; see :mod:`repro.obs.metrics`.
        """
        if self._metrics is None:
            from repro.obs.metrics import MetricsRegistry

            self._metrics = MetricsRegistry()
        return self._metrics

    def model_cache(self, name: str) -> dict:
        """A named memo dict owned by *this* simulation (lazily created).

        Model layers that want to memoize derived state register a
        cache here instead of at module level, so the memo's lifetime
        is the simulation's — two worlds in one process (or two shards
        of one world) can never couple through it.  The same ``name``
        always returns the same dict for a given simulation; callers
        bound its size themselves.
        """
        if self._model_caches is None:
            self._model_caches = {}
        cache = self._model_caches.get(name)
        if cache is None:
            cache = self._model_caches[name] = {}
        return cache

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a pending one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    # ``process`` is a familiar alias for SimPy users.
    process = spawn

    def all_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when every event in ``events`` has fired."""
        return Condition(self, events)

    def any_of(self, events: Iterable[Event]) -> Condition:
        """Event that fires when at least one event in ``events`` has fired."""
        return Condition(self, events, count=1)

    def call_at(self, when: float, callback: Callable[["Simulation"], None]
                ) -> Event:
        """Schedule ``callback(self)`` at absolute time ``when``.

        The external injection hook of the sharded engine: a driver
        that holds the kernel between events (never from model code
        running *inside* it) plants a callback at a future instant —
        e.g. a cross-shard message delivery at its stamped time.  The
        callback fires after any already-queued event at the same
        instant (entry ids order the tie), which is exactly the
        documented delivery-order contract for shard channels.
        """
        if when < self.now:
            raise SimulationError(
                "cannot call back at %r, already at %r" % (when, self.now))
        event = Event(self)
        event._ok = True
        event._value = None
        event.callbacks.append(lambda _event: callback(self))
        self._enqueue_event(event, delay=when - self.now)
        return event

    def at_instant_end(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once the current instant has no event left.

        The call happens before the clock advances, before
        :meth:`run` returns and before :meth:`run_until_complete`
        returns or reports a deadlock.  Registering a callback that is
        already pending moves it behind the others, so pending callbacks
        run in the order of their latest registration.
        """
        pending = self._instant_end
        if callback in pending:
            del pending[callback]
        pending[callback] = None

    def _end_instant(self) -> None:
        """Run the callbacks registered for the end of this instant."""
        pending = list(self._instant_end)
        self._instant_end.clear()
        for callback in pending:
            callback()

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- scheduling --------------------------------------------------------

    def _enqueue_event(self, event: Event, delay: float = 0.0,
                       priority: int = _PRIORITY_NORMAL) -> None:
        when = self.now + delay
        if delay == 0.0 and priority == 2:
            self._immediate.append((when, 2, self._next_id, event))
        else:
            heappush(self._queue, (when, priority, self._next_id, event))
        self._next_id += 1
        if self._tracing:
            self.trace.on_event_scheduled(self, event, when, priority)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain.

        ``now`` while an end-of-instant call is pending.
        """
        if self._instant_end:
            return self.now
        if self._immediate:
            if self._queue and self._queue[0] < self._immediate[0]:
                return self._queue[0][0]
            return self._immediate[0][0]
        return self._queue[0][0] if self._queue else float("inf")

    def _pop_next(self) -> Tuple[float, int, int, Event]:
        """Remove and return the globally next queue entry."""
        immediate = self._immediate
        if immediate:
            queue = self._queue
            if queue and queue[0] < immediate[0]:
                return heappop(queue)
            return immediate.popleft()
        if self._queue:
            return heappop(self._queue)
        raise SimulationError("no events to step")

    def step(self) -> None:
        """Process the single next event (advancing the clock to it).

        When only events at a later time (or none) remain, the pending
        end-of-instant calls are the next event: the step runs them.
        """
        if self._instant_end and not self._immediate and (
                not self._queue or self._queue[0][0] > self.now):
            self._end_instant()
            return
        when, _priority, _eid, event = self._pop_next()
        if self._tracing:
            if when > self.now:
                self.trace.on_clock_advanced(self, self.now, when)
            self.trace.on_event_fired(self, event)
        self.now = when
        event._process()
        if event._ok is False and not event._defused:
            # An uncaught failure with no waiter: escalate to the caller of
            # run() so that model bugs never pass silently.
            raise event._value

    def _run_fast(self, until: Optional[float]) -> None:
        """The drain loop with :meth:`step` inlined and lookups hoisted.

        Behaviourally identical to calling ``step()`` per event; used
        only when ``self`` is exactly a :class:`Simulation` so that
        subclasses overriding ``step``/``_enqueue_event`` keep their
        semantics through :meth:`run`.
        """
        queue = self._queue
        immediate = self._immediate
        instant_end = self._instant_end
        tracing = self._tracing
        trace = self.trace
        while True:
            if immediate:
                # Immediate entries sit at sim.now, and the heap head is
                # no later, so neither advances the clock.
                if queue and queue[0] < immediate[0]:
                    entry = heappop(queue)
                else:
                    entry = immediate.popleft()
            elif instant_end and (not queue or queue[0][0] > self.now):
                self._end_instant()
                continue
            elif queue:
                if until is not None and queue[0][0] > until:
                    break
                entry = heappop(queue)
            else:
                break
            when = entry[0]
            event = entry[3]
            if tracing:
                if when > self.now:
                    trace.on_clock_advanced(self, self.now, when)
                trace.on_event_fired(self, event)
            self.now = when
            event._process()
            if event._ok is False and not event._defused:
                raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event falls on it, which makes repeated bounded runs
        composable.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                "cannot run until %r, already at %r" % (until, self.now))
        if type(self) is Simulation:
            self._run_fast(until)
        else:
            while self._queue or self._immediate or self._instant_end:
                if until is not None and self.peek() > until:
                    break
                self.step()
        if until is not None:
            self.now = max(self.now, until)

    def run_until_complete(self, process: Process) -> Any:
        """Run until ``process`` terminates and return (or raise) its value.

        The end-of-instant calls pending when the process terminates run
        before this returns, so the caller reads settled model state.
        """
        if type(self) is Simulation:
            queue = self._queue
            immediate = self._immediate
            instant_end = self._instant_end
            tracing = self._tracing
            trace = self.trace
            while process._value is _PENDING:
                if immediate:
                    if queue and queue[0] < immediate[0]:
                        entry = heappop(queue)
                    else:
                        entry = immediate.popleft()
                elif instant_end and (not queue or queue[0][0] > self.now):
                    self._end_instant()
                    continue
                elif queue:
                    entry = heappop(queue)
                else:
                    raise SimulationError(
                        "deadlock: %s is waiting but no events remain"
                        % process)
                when = entry[0]
                event = entry[3]
                if tracing:
                    if when > self.now:
                        trace.on_clock_advanced(self, self.now, when)
                    trace.on_event_fired(self, event)
                self.now = when
                event._process()
                if event._ok is False and not event._defused:
                    raise event._value
        else:
            while process.is_alive:
                if not (self._queue or self._immediate
                        or self._instant_end):
                    raise SimulationError(
                        "deadlock: %s is waiting but no events remain"
                        % process)
                self.step()
        if self._instant_end:
            self._end_instant()
        # The caller consumes the outcome here, so the process's own
        # termination event (possibly still queued) must not escalate.
        process._defused = True
        if process._ok:
            return process._value
        raise process._value

    def __repr__(self) -> str:
        return "<Simulation t=%.6f, %d queued>" % (
            self.now, len(self._queue) + len(self._immediate))
