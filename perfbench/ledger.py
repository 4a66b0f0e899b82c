"""Per-layer host-time ledger for traced benchmark runs.

Installing a :class:`Ledger` wraps every function and method defined in
the ``repro`` layer modules, from outside the program: the module
attributes and class attributes are replaced in place and restored by
:meth:`Ledger.uninstall`.  Host time is charged to exactly one layer at
a time.  Each wrapped call switches the current layer to its own and
switches back when it returns, so a layer's self time is its wrapped
time minus the wrapped calls nested inside it.  A generator function's
wrapper returns a proxy that makes the same switch around every
resumption, so a simulated process's time lands in the layer whose code
runs, not in the kernel loop that resumes it.

Kernel events and process resumes are counted through the kernel's
public :class:`~repro.obs.tracer.Tracer` hooks: every ``Simulation``
built while the ledger is installed gets a counting tracer unless the
caller passes one.  Modelled quantities (disk operations, cache
evictions and lookups, flow fills, bytes) are read from the layers'
public attributes and from the arguments and results of the wrapped
calls.  The work this bookkeeping does is charged to the ``trace``
bucket, never to a layer.

Shard worker processes fork from the coordinator after installation,
so they run the same wrappers.  Each worker ships what it accrued back
inside :meth:`ShardWorld.result`'s dictionary, and the coordinator's
``ShardedSimulation.run`` hook folds it in and removes it before the
caller sees the result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Ledger", "LAYER_OF_MODULE", "OUTSIDE", "BOOKKEEPING"]

#: Time spent outside every wrapped call (the benchmark harness).
OUTSIDE = "harness"
#: Time the ledger's own counting hooks spend.
BOOKKEEPING = "trace"

#: Module prefix -> layer; the longest matching prefix wins.  Layers
#: named in the benchmark's per-layer metrics are listed with their own
#: modules; the remaining modules of each package form an ``.other``
#: bucket so that every host second is owned by someone.
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.simulation.kernel", "simulation.kernel"),
    ("repro.simulation.resources", "simulation.kernel"),
    ("repro.simulation.monitor", "simulation.kernel"),
    ("repro.simulation.randomness", "simulation.kernel"),
    ("repro.simulation.sharded", "simulation.sharded"),
    ("repro.simulation.workerpool", "simulation.workerpool"),
    ("repro.hardware.cpu", "hardware.cpu"),
    ("repro.hardware.disk", "hardware.disk"),
    ("repro.hardware", "hardware.other"),
    ("repro.guestos", "guestos"),
    ("repro.workloads", "workloads"),
    ("repro.vmm", "vmm"),
    ("repro.storage.localfs", "storage.localfs"),
    ("repro.storage.cache", "storage.cache"),
    ("repro.storage.nfs", "storage.nfs"),
    ("repro.storage.pvfs", "storage.pvfs"),
    ("repro.storage", "storage.other"),
    ("repro.gridnet.flows", "gridnet.flows"),
    ("repro.gridnet", "gridnet.other"),
    ("repro.middleware", "middleware"),
    ("repro.obs", "obs"),
    ("repro.experiments", "experiments"),
    ("repro.core", "core"),
    ("repro.scheduling", "scheduling"),
    ("repro.prediction", "prediction"),
)

#: Modules whose private helpers *are* the dispatch loop: only their
#: public functions and constructors are wrapped, so the loop and its
#: resume machinery stay one layer and cost no wrapper per event.
_PUBLIC_ONLY = ("repro.simulation.kernel", "repro.simulation.resources")

#: Development tooling and entry points, outside the benchmark.
_SKIPPED = ("repro.analysis", "repro.cli", "repro.__main__")

#: Key under which a shard worker ships its accruals inside
#: ``ShardWorld.result()``; removed again in the coordinator.
_PAYLOAD = "_perfbench_ledger"


def layer_of(module_name: str) -> Optional[str]:
    """The layer owning ``module_name`` (None when it is not traced)."""
    if module_name == "repro" or module_name.startswith(_SKIPPED):
        return None
    best = None
    for prefix, layer in LAYER_OF_MODULE:
        if module_name == prefix or module_name.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class _TimedGenerator:
    """A generator proxy charging every resumption to one layer."""

    def __init__(self, ledger: "Ledger", generator, layer: int):
        self._ledger = ledger
        self._generator = generator
        self._layer = layer
        self.__name__ = getattr(generator, "__name__", "process")
        self.__qualname__ = getattr(generator, "__qualname__",
                                    self.__name__)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self._generator.send, value)

    def throw(self, *args):
        return self._resume(self._generator.throw, *args)

    def _resume(self, method, *args):
        ledger = self._ledger
        layer = self._layer
        now = time.perf_counter()
        previous = ledger.cur
        ledger.self_time[previous] += now - ledger.mark
        ledger.cur = layer
        ledger.mark = now
        try:
            return method(*args)
        finally:
            now = time.perf_counter()
            ledger.self_time[layer] += now - ledger.mark
            ledger.cur = previous
            ledger.mark = now

    def close(self):
        return self._generator.close()


class Ledger:
    """Self time per layer, call counts per function, modelled counts."""

    def __init__(self):
        layers = {layer for _prefix, layer in LAYER_OF_MODULE}
        self.layers: List[str] = [OUTSIDE, BOOKKEEPING] + sorted(layers)
        self.index = {name: i for i, name in enumerate(self.layers)}
        #: ``(layer, "module:qualname")`` per wrapped function slot.
        self.functions: List[Tuple[str, str]] = []
        self.self_time: List[float] = [0.0] * len(self.layers)
        self.calls: List[int] = []
        self.counts: Dict[str, float] = {}
        self.cur = 0
        self.mark = time.perf_counter()
        self.tracer = None
        #: Layer objects whose modelled counters are read when their
        #: world ends: ``(kind, object)``.
        self._watched: List[Tuple[str, Any]] = []
        #: ``(bytes, done event)`` per flow started.
        self._flows: List[Tuple[float, Any]] = []
        #: Disk bytes written by each persistent-mode Table 2 sample.
        self.persistent_writes: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        self._fork_hook = False

    # -- accounting ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every accrual (the lists are mutated in place: the
        installed wrappers hold references to them)."""
        self.self_time[:] = [0.0] * len(self.layers)
        self.calls[:] = [0] * len(self.functions)
        self.counts.clear()
        self._watched.clear()
        self._flows.clear()
        self.persistent_writes.clear()
        if self.tracer is not None:
            self.tracer.events = 0
            self.tracer.resumes = 0
        self.cur = 0
        self.mark = time.perf_counter()

    def _bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _bookkeep(self, hook: Callable, *args):
        """Run one counting hook, charging its time to ``trace``."""
        now = time.perf_counter()
        previous = self.cur
        self.self_time[previous] += now - self.mark
        self.cur = 1
        self.mark = now
        try:
            return hook(*args)
        finally:
            now = time.perf_counter()
            self.self_time[1] += now - self.mark
            self.cur = previous
            self.mark = now

    def harvest(self) -> None:
        """Read the modelled counters of every world that has ended.

        Called at each world boundary (one Table 2 sample, one Table 1
        macro run, one Figure 1 scenario, one shard's result) and at the
        end of a round, so finished worlds are not kept alive.
        """
        for kind, obj in self._watched:
            if kind == "cache":
                self._bump("cache.hits", obj.hits)
                self._bump("cache.misses", obj.misses)
            elif kind == "engine":
                self._bump("flows.fills", obj.full_allocations)
            elif kind == "nfsd":
                self._bump("nfs.bytes_served", obj.bytes_served)
        self._watched.clear()
        delivered = sum(nbytes for nbytes, done in self._flows
                        if done.triggered)
        self._bump("flows.delivered_bytes", delivered)
        self._flows.clear()

    def snapshot(self) -> Dict[str, Any]:
        """The accruals so far, as plain data."""
        return {"self_time": list(self.self_time),
                "calls": list(self.calls),
                "counts": dict(self.counts),
                "events": self.tracer.events if self.tracer else 0,
                "resumes": self.tracer.resumes if self.tracer else 0,
                "persistent_writes": list(self.persistent_writes)}

    def merge(self, payload: Dict[str, Any]) -> None:
        """Fold a worker's snapshot into this ledger."""
        for i, value in enumerate(payload["self_time"]):
            self.self_time[i] += value
        for i, value in enumerate(payload["calls"]):
            self.calls[i] += value
        for key, value in payload["counts"].items():
            self._bump(key, value)
        self.tracer.events += payload["events"]
        self.tracer.resumes += payload["resumes"]
        self.persistent_writes.extend(payload["persistent_writes"])

    def _forked(self) -> None:
        """In a freshly forked worker: start from zero, own no stack."""
        if self._patches:
            self.reset()

    # -- wrapping -----------------------------------------------------------

    def _slot(self, layer: str, name: str) -> int:
        self.functions.append((layer, name))
        self.calls.append(0)
        return len(self.functions) - 1

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        slot = self._slot(layer, name)
        index = self.index[layer]
        calls = self.calls
        ledger = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                calls[slot] += 1
                return _TimedGenerator(ledger, fn(*args, **kwargs), index)
            return generator_wrapper

        self_time = self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[slot] += 1
            now = clock()
            previous = ledger.cur
            self_time[previous] += now - ledger.mark
            ledger.cur = index
            ledger.mark = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_time[index] += now - ledger.mark
                ledger.cur = previous
                ledger.mark = now
        return wrapper

    def _hooked(self, wrapped: Callable, pre: Optional[Callable],
                post: Optional[Callable]) -> Callable:
        ledger = self

        @functools.wraps(wrapped)
        def hooked(*args, **kwargs):
            token = ledger._bookkeep(pre, args, kwargs) if pre else None
            result = wrapped(*args, **kwargs)
            if post is not None:
                ledger._bookkeep(post, token, args, kwargs, result)
            return result
        return hooked

    def install(self) -> None:
        """Wrap every layer module of ``repro`` (idempotent per ledger)."""
        if self._patches:
            return
        import repro

        for info in pkgutil.iter_modules(repro.__path__, "repro."):
            if layer_of(info.name) is None:
                continue
            package = importlib.import_module(info.name)
            if info.ispkg:
                for sub in pkgutil.walk_packages(package.__path__,
                                                 info.name + "."):
                    importlib.import_module(sub.name)
        modules = {name: module for name, module in sorted(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")}
        self._install_tracer()
        hooks = self._hooks()
        replaced: Dict[int, Callable] = {}
        for module_name, module in modules.items():
            layer = layer_of(module_name)
            if layer is None:
                continue
            public_only = module_name.startswith(_PUBLIC_ONLY)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) \
                        and value.__module__ == module_name \
                        and not (public_only and attr.startswith("_")) \
                        and value.__name__ != "<lambda>":
                    key = "%s:%s" % (module_name, value.__qualname__)
                    new = self._wrap(value, layer, key)
                    if key in hooks:
                        new = self._hooked(new, *hooks[key])
                    replaced[id(value)] = new
                elif inspect.isclass(value) \
                        and value.__module__ == module_name:
                    self._wrap_class(value, module_name, layer,
                                     public_only, hooks)
        # Rebind every module-level reference to a wrapped function,
        # including ``from x import f`` copies in other modules.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    self._patch(module, attr, replaced[id(value)])
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._forked)
            self._fork_hook = True
        self.reset()

    def _wrap_class(self, cls, module_name: str, layer: str,
                    public_only: bool, hooks) -> None:
        if issubclass(cls, (BaseException, tuple)) \
                or getattr(cls, "_is_protocol", False):
            return
        import enum

        if issubclass(cls, enum.Enum):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__init__":
                continue
            if public_only and attr.startswith("_") and attr != "__init__":
                continue
            kind = None
            fn = raw
            if isinstance(raw, staticmethod):
                kind, fn = staticmethod, raw.__func__
            elif isinstance(raw, classmethod):
                kind, fn = classmethod, raw.__func__
            if not inspect.isfunction(fn):
                continue
            key = "%s:%s" % (module_name, fn.__qualname__)
            if key == "repro.simulation.kernel:Simulation.__init__":
                fn = self._with_counting_tracer(fn)
            new = self._wrap(fn, layer, key)
            if key in hooks:
                new = self._hooked(new, *hooks[key])
            self._patch(cls, attr, kind(new) if kind else new)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- kernel counting through the Tracer hooks ----------------------------

    def _install_tracer(self) -> None:
        from repro.obs.tracer import Tracer

        class CountingTracer(Tracer):
            """Counts fired events and process resumes; records nothing."""

            enabled = True

            def __init__(self):
                self.events = 0
                self.resumes = 0

            def bind(self, sim) -> None:
                pass

            def on_event_scheduled(self, sim, event, when, priority):
                pass

            def on_event_fired(self, sim, event):
                self.events += 1

            def on_event_observed(self, sim, event):
                pass

            def on_clock_advanced(self, sim, previous, now):
                pass

            def on_process_spawned(self, sim, process):
                pass

            def on_process_resumed(self, sim, process):
                self.resumes += 1

            def on_process_interrupted(self, sim, process, cause):
                pass

            def on_process_terminated(self, sim, process, ok):
                pass

            def on_resource_acquired(self, sim, resource, request):
                pass

            def on_resource_released(self, sim, resource, request):
                pass

        self.tracer = CountingTracer()

    def _with_counting_tracer(self, init: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(init)
        def init_with_tracer(sim, *args, **kwargs):
            if len(args) < 3 and kwargs.get("tracer") is None:
                kwargs["tracer"] = tracer
            init(sim, *args, **kwargs)
        return init_with_tracer

    # -- counting hooks -----------------------------------------------------

    def _hooks(self) -> Dict[str, Tuple[Optional[Callable],
                                        Optional[Callable]]]:
        """``module:qualname`` -> (pre, post) counting hooks."""
        from repro.storage.cache import BlockCache

        contains = vars(BlockCache)["contains"]
        ledger = self

        def arg(args, kwargs, position, name):
            return args[position] if len(args) > position else kwargs[name]

        def disk_read(_token, _args, _kwargs, _result):
            ledger._bump("disk.ops")

        def disk_write(_token, args, kwargs, _result):
            ledger._bump("disk.ops")
            ledger._bump("disk.write_bytes", arg(args, kwargs, 1, "nbytes"))

        def watch(kind):
            def post(_token, args, _kwargs, _result):
                ledger._watched.append((kind, args[0]))
            return post

        def cache_insert(_token, _args, _kwargs, evicted):
            if evicted is not None:
                ledger._bump("cache.evictions")

        def cache_run_before(args, kwargs):
            cache = args[0]
            file_id = arg(args, kwargs, 1, "file_id")
            run = arg(args, kwargs, 2, "run")
            present = sum(1 for block in run
                          if contains(cache, file_id, block))
            return cache.size_blocks, len(run) - present

        def cache_run_after(token, args, _kwargs, _result):
            cache = args[0]
            if cache.capacity_blocks == 0:
                return
            before, fresh = token
            ledger._bump("cache.evictions",
                         before + fresh - cache.size_blocks)

        def flow_started(_token, _args, _kwargs, flow):
            ledger._bump("flows.started")
            ledger._flows.append((flow.total_bytes, flow.done))

        def world_ended(_token, _args, _kwargs, _result):
            ledger.harvest()

        def sample_before(_args, _kwargs):
            return ledger.counts.get("disk.write_bytes", 0)

        def sample_after(token, args, kwargs, _result):
            ledger.harvest()
            if arg(args, kwargs, 1, "storage_mode") == "persistent":
                ledger.persistent_writes.append(
                    ledger.counts.get("disk.write_bytes", 0) - token)

        def sharded_run(_token, _args, _kwargs, result):
            ledger._bump("sharded.rounds", result.rounds)
            for outcome in result.results.values():
                payload = outcome.pop(_PAYLOAD, None)
                if payload is not None:
                    ledger.merge(payload)

        def shard_result(_token, _args, _kwargs, outcome):
            ledger.harvest()
            if os.getpid() != ledger._pid:
                outcome[_PAYLOAD] = ledger.snapshot()
                ledger.reset()

        return {
            "repro.hardware.disk:Disk.read": (None, disk_read),
            "repro.hardware.disk:Disk.write": (None, disk_write),
            "repro.storage.cache:BlockCache.__init__": (None, watch("cache")),
            "repro.storage.cache:BlockCache.insert": (None, cache_insert),
            "repro.storage.cache:BlockCache.insert_run": (cache_run_before,
                                                          cache_run_after),
            "repro.gridnet.flows:FlowEngine.__init__": (None, watch("engine")),
            "repro.gridnet.flows:FlowEngine.start_flow": (None, flow_started),
            "repro.storage.nfs:NfsServer.__init__": (None, watch("nfsd")),
            "repro.experiments.table1:macro_run": (None, world_ended),
            "repro.experiments.figure1:_scenario": (None, world_ended),
            "repro.experiments.table2:startup_sample": (sample_before,
                                                        sample_after),
            "repro.simulation.sharded:ShardedSimulation.run": (None,
                                                               sharded_run),
            "repro.simulation.sharded:ShardWorld.result": (None,
                                                           shard_result),
        }
