"""Interprocedural taint analysis over nondeterminism sources.

The lattice is a set of *taint kinds* per value:

* ``wall-clock`` — host-clock reads (``time.time``, ``datetime.now``);
* ``entropy`` — OS randomness (``os.urandom``, ``uuid.uuid4``,
  ``random.SystemRandom`` draws);
* ``worker-identity`` — pool/host identity (``os.cpu_count``,
  ``os.getpid``, ``socket.gethostname``);
* ``unordered-iteration`` — values whose *order* is hash- or
  filesystem-dependent (iterating a ``set``, ``os.listdir`` results).

The engine computes one summary per project function — taint entering
each parameter, taint of the return value, whether the function
returns an RNG stream or an :class:`Event`, and which parameters it
re-seeds or forks — and iterates caller→callee taint pushes to a
global fixpoint.  The analysis is flow-insensitive and
context-insensitive: a parameter tainted by *any* caller is tainted
for *all* callers.  That over-approximates, which is the right
direction for a determinism lint — a clean bill of health must mean
something.

``sorted()``, ``min``, ``max``, ``sum`` and ``len`` launder the
``unordered-iteration`` kind (they impose or erase order), which is
exactly the sanctioned fix simlint's R3 recommends.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import is_self_attr
from repro.analysis.dataflow.callgraph import Resolution, resolve_call
from repro.analysis.dataflow.symbols import (
    FunctionInfo,
    ProjectModel,
    own_nodes,
)

__all__ = ["WALLCLOCK", "ENTROPY", "WORKER", "UNORDERED",
           "FunctionSummary", "ArgInfo", "CallSite", "TaintEngine"]

WALLCLOCK = "wall-clock"
ENTROPY = "entropy"
WORKER = "worker-identity"
UNORDERED = "unordered-iteration"

#: External callables that *produce* taint, by expanded dotted name.
#: Filled by the loops below at import time, read-only afterwards —
#: identical in every process, so it cannot couple shards.
SOURCES: Dict[str, str] = {}  # simlint: disable=R15  built at import time, read-only after import
for _name in ("time.time", "time.time_ns", "time.monotonic",
              "time.monotonic_ns", "time.perf_counter",
              "time.perf_counter_ns", "time.process_time",
              "time.process_time_ns", "time.clock_gettime",
              "datetime.datetime.now", "datetime.datetime.utcnow",
              "datetime.datetime.today", "datetime.date.today"):
    SOURCES[_name] = WALLCLOCK
for _name in ("os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
              "secrets.token_bytes", "secrets.token_hex",
              "secrets.token_urlsafe", "secrets.randbits",
              "secrets.randbelow", "secrets.choice",
              "random.SystemRandom"):
    SOURCES[_name] = ENTROPY
for _name in ("os.cpu_count", "os.getpid", "os.getppid",
              "os.sched_getaffinity", "multiprocessing.cpu_count",
              "multiprocessing.current_process", "threading.get_ident",
              "threading.get_native_id", "socket.gethostname",
              "platform.node"):
    SOURCES[_name] = WORKER
for _name in ("os.listdir", "os.scandir", "os.walk", "glob.glob",
              "glob.iglob"):
    SOURCES[_name] = UNORDERED

#: Builtins that erase the unordered-iteration kind: they either
#: impose a total order or reduce order-insensitively.
_ORDER_LAUNDERERS = frozenset({"sorted", "min", "max", "sum", "len"})

#: Methods whose result is an RNG stream (``RandomStreams`` API).
_STREAM_METHODS = frozenset({"stream"})

#: Event-returning factory methods on a Simulation/Resource.
_EVENT_METHODS = frozenset({"timeout", "event", "all_of", "any_of",
                            "request"})
#: Event classes by bare name (kernel + resources).
_EVENT_CLASSES = frozenset({"Event", "Timeout", "Condition", "Request"})

#: The node types :meth:`TaintEngine._walk_body` acts on; every other
#: node of a body is a no-op for the local fixpoint.
_EFFECT_NODES = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For,
                 ast.AsyncFor, ast.withitem, ast.Return, ast.Call)

#: Constructors that fork a generator; called with stream draws they
#: create a non-derivable child (R12).
_FORK_CONSTRUCTORS = frozenset({
    "random.Random", "numpy.random.default_rng",
    "repro.simulation.randomness.RandomStreams",
})


class FunctionSummary:
    """Interprocedural facts about one function, grown to fixpoint."""

    __slots__ = ("info", "param_taint", "stream_params", "setlike_params",
                 "returns_taint", "returns_stream", "returns_event",
                 "reseed_params", "effects")

    def __init__(self, info: FunctionInfo):
        self.info = info
        #: The body's own nodes that can move taint, in walk order: the
        #: local fixpoint re-reads them on every pass of every round.
        self.effects = tuple(node for node in own_nodes(info.node)
                             if isinstance(node, _EFFECT_NODES))
        #: Parameter name -> kinds pushed in by any caller.
        self.param_taint: Dict[str, Set[str]] = {}
        #: Parameter names known to receive an RNG stream.
        self.stream_params: Set[str] = set()
        #: Parameter names known to receive a set (unordered iteration).
        self.setlike_params: Set[str] = set()
        self.returns_taint: Set[str] = set()
        self.returns_stream = False
        self.returns_event = False
        #: Parameter names the body re-seeds or forks non-derivably.
        self.reseed_params: Set[str] = set()

    def __repr__(self) -> str:
        return "<FunctionSummary %s returns=%s>" % (
            self.info.qualname, sorted(self.returns_taint))


class ArgInfo:
    """One call argument with its analysis facts."""

    __slots__ = ("label", "node", "taint", "is_stream", "draws_stream")

    def __init__(self, label: str, node: ast.AST, taint: Set[str],
                 is_stream: bool, draws_stream: bool):
        #: ``"1"``-based position or the keyword name.
        self.label = label
        self.node = node
        self.taint = taint
        self.is_stream = is_stream
        #: The expression consumes draws from a stream
        #: (e.g. ``rng.random()``) — the R12 fork signature.
        self.draws_stream = draws_stream


class CallSite:
    """One resolved call with per-argument taint, for the deep rules."""

    __slots__ = ("node", "caller", "resolution", "func_attr",
                 "receiver_taint", "receiver_is_stream", "args",
                 "is_bare_stmt")

    def __init__(self, node: ast.Call, caller: FunctionInfo,
                 resolution: Resolution, func_attr: Optional[str],
                 receiver_taint: Set[str], receiver_is_stream: bool,
                 args: List[ArgInfo], is_bare_stmt: bool):
        self.node = node
        self.caller = caller
        self.resolution = resolution
        #: Final attribute for method-style calls (``x.timeout`` -> "timeout").
        self.func_attr = func_attr
        self.receiver_taint = receiver_taint
        self.receiver_is_stream = receiver_is_stream
        self.args = args
        self.is_bare_stmt = is_bare_stmt

    def tainted_args(self, kinds: Set[str]) -> List[Tuple["ArgInfo",
                                                          Set[str]]]:
        """Arguments carrying any of ``kinds``, with the overlap."""
        hits = []
        for arg in self.args:
            overlap = arg.taint & kinds
            if overlap:
                hits.append((arg, overlap))
        return hits


class _FnState:
    """Per-function mutable environment during one local pass."""

    __slots__ = ("env", "streams", "setlike", "events")

    def __init__(self) -> None:
        self.env: Dict[str, Set[str]] = {}
        self.streams: Set[str] = set()
        self.setlike: Set[str] = set()
        #: Local names currently holding an Event.
        self.events: Set[str] = set()


class TaintEngine:
    """Summaries and call sites for a project, iterated to the fixpoint
    on construction (see module doc)."""

    #: The command-line switch of the rules that read this model.
    flag = "--deep"

    #: Safety bound on global fixpoint rounds; real projects converge
    #: in a handful because the lattice is four bits per value.
    MAX_ROUNDS = 30

    def __init__(self, project: ProjectModel):
        self.project = project
        self.summaries: Dict[str, FunctionSummary] = {
            q: FunctionSummary(info)
            for q, info in project.functions.items()}
        #: (class qualname, attr) -> taint kinds, across all methods.
        self.attr_taint: Dict[Tuple[str, str], Set[str]] = {}
        self.attr_stream: Set[Tuple[str, str]] = set()
        self.attr_setlike: Set[Tuple[str, str]] = set()
        self._resolutions: Dict[int, Resolution] = {}
        self._changed = False
        #: caller qualname -> call sites, built by :meth:`_solve`.
        self.call_sites: Dict[str, List[CallSite]] = {}
        self._seed_reseeds()
        self._solve()

    # -- fixpoint ------------------------------------------------------------

    def _solve(self) -> None:
        """Iterate to fixpoint, then freeze per-call-site facts."""
        order = sorted(self.summaries)
        for _round in range(self.MAX_ROUNDS):
            self._changed = False
            for qualname in order:
                self._analyze_function(self.summaries[qualname])
            if not self._changed:
                break
        for qualname in order:
            self.call_sites[qualname] = self._build_call_sites(
                self.summaries[qualname])

    # -- public --------------------------------------------------------------

    def summary(self, qualname: str) -> Optional[FunctionSummary]:
        return self.summaries.get(qualname)

    # -- resolution cache ----------------------------------------------------

    def _resolve(self, caller: FunctionInfo, call: ast.Call) -> Resolution:
        key = id(call)
        if key not in self._resolutions:
            self._resolutions[key] = resolve_call(self.project, caller,
                                                  call)
        return self._resolutions[key]

    # -- seeding -------------------------------------------------------------

    def _seed_reseeds(self) -> None:
        """Mark parameters whose own body re-seeds/forks them.

        Purely syntactic (no taint needed): ``p.seed(...)`` or a fork
        constructor consuming ``p``'s draws, with ``p`` a parameter.
        The transitive closure (a function handing its stream param to
        a reseeder) is added during the fixpoint.
        """
        for summary in self.summaries.values():
            params = set(summary.info.params)
            for node in own_nodes(summary.info.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Attribute) and func.attr == "seed"
                        and isinstance(func.value, ast.Name)
                        and func.value.id in params):
                    summary.reseed_params.add(func.value.id)
                elif self._is_fork_constructor(summary.info, node):
                    for arg in list(node.args) + [kw.value
                                                  for kw in node.keywords]:
                        for name in _drawn_names(arg):
                            if name in params:
                                summary.reseed_params.add(name)

    def _is_fork_constructor(self, caller: FunctionInfo,
                             call: ast.Call) -> bool:
        res = self._resolve(caller, call)
        name = res.external or (res.target.qualname if res.target else "")
        if name in _FORK_CONSTRUCTORS:
            return True
        return bool(res.is_constructor and res.external
                    and res.external.rsplit(".", 1)[-1]
                    in ("Random", "RandomStreams"))

    # -- local analysis ------------------------------------------------------

    def _analyze_function(self, summary: FunctionSummary) -> None:
        info = summary.info
        state = _FnState()
        for param in info.params:
            state.env[param] = set(summary.param_taint.get(param, ()))
        state.streams |= summary.stream_params
        state.setlike |= summary.setlike_params
        # Flow-insensitive local fixpoint: a couple of passes settle
        # chains like ``a = src(); b = a; return b``.
        for _pass in range(8):
            before = (dict((k, frozenset(v))
                           for k, v in state.env.items()),
                      frozenset(state.streams), frozenset(state.setlike))
            self._walk_body(summary, state)
            after = (dict((k, frozenset(v)) for k, v in state.env.items()),
                     frozenset(state.streams), frozenset(state.setlike))
            if before == after:
                break

    def _walk_body(self, summary: FunctionSummary, state: _FnState) -> None:
        info = summary.info
        for node in summary.effects:
            if isinstance(node, ast.Assign):
                self._assign(summary, state, node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._assign(summary, state, [node.target], node.value)
            elif isinstance(node, ast.AugAssign):
                taint = self._taint_of(node.value, summary, state)
                if isinstance(node.target, ast.Name):
                    state.env.setdefault(node.target.id, set()).update(taint)
                elif _is_self_attr(node.target, info):
                    self._taint_attr(info, node.target.attr, taint)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                taint = self._iteration_taint(node.iter, summary, state)
                for name in _target_names(node.target):
                    state.env.setdefault(name, set()).update(taint)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    taint = self._taint_of(node.context_expr, summary,
                                           state)
                    for name in _target_names(node.optional_vars):
                        state.env.setdefault(name, set()).update(taint)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._note_return(summary, state, node.value)
            elif isinstance(node, ast.Call):
                self._push_args(summary, state, node)

    def _assign(self, summary: FunctionSummary, state: _FnState,
                targets: List[ast.AST], value: ast.AST) -> None:
        info = summary.info
        taint = self._taint_of(value, summary, state)
        streamy = self._is_stream(value, summary, state)
        setty = self._is_setlike(value, state)
        eventy = self._is_event(value, summary, state)
        for target in targets:
            for name in _target_names(target):
                state.env.setdefault(name, set()).update(taint)
                if streamy:
                    state.streams.add(name)
                if setty:
                    state.setlike.add(name)
                if eventy:
                    state.events.add(name)
            if _is_self_attr(target, info):
                self._taint_attr(info, target.attr, taint)
                key = (self._class_qualname(info), target.attr)
                if streamy and key not in self.attr_stream:
                    self.attr_stream.add(key)
                    self._changed = True
                if setty and key not in self.attr_setlike:
                    self.attr_setlike.add(key)
                    self._changed = True

    def _note_return(self, summary: FunctionSummary, state: _FnState,
                     value: ast.AST) -> None:
        taint = self._taint_of(value, summary, state)
        if not taint <= summary.returns_taint:
            summary.returns_taint |= taint
            self._changed = True
        if not summary.returns_stream and \
                self._is_stream(value, summary, state):
            summary.returns_stream = True
            self._changed = True
        if not summary.returns_event and \
                self._is_event(value, summary, state):
            summary.returns_event = True
            self._changed = True

    def _is_event(self, value: ast.AST, summary: FunctionSummary,
                  state: _FnState) -> bool:
        if isinstance(value, ast.Name):
            return value.id in state.events
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Attribute) and func.attr in _EVENT_METHODS:
            return True
        if isinstance(func, ast.Name) and func.id in _EVENT_CLASSES:
            return True
        res = self._resolve(summary.info, value)
        if res.is_constructor and res.external and \
                self._class_is_event(res.external):
            return True
        if res.target is not None and not res.is_constructor:
            callee = self.summaries.get(res.target.qualname)
            return bool(callee and callee.returns_event
                        and not callee.info.is_generator)
        return False

    def _class_is_event(self, qualname: str) -> bool:
        """Is the class an Event subclass, walking project-known bases?"""
        seen: Set[str] = set()
        todo = [qualname]
        while todo:
            current = todo.pop()
            if current in seen:
                continue
            seen.add(current)
            if current.rsplit(".", 1)[-1] in _EVENT_CLASSES:
                return True
            klass = self.project.classes.get(current)
            if klass is None:
                continue
            for base in klass.bases:
                if base.rsplit(".", 1)[-1] in _EVENT_CLASSES:
                    return True
                todo.append(self.project.expand(klass.module, base))
        return False

    # -- interprocedural pushes ----------------------------------------------

    def _push_args(self, summary: FunctionSummary, state: _FnState,
                   call: ast.Call) -> None:
        res = self._resolve(summary.info, call)
        if res.target is None:
            return
        callee = self.summaries[res.target.qualname]
        params = callee.info.params
        offset = 1 if params and params[0] in ("self", "cls") else 0
        pairs: List[Tuple[str, ast.AST]] = []
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            slot = index + offset
            if slot < len(params):
                pairs.append((params[slot], arg))
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in params:
                pairs.append((keyword.arg, keyword.value))
        for param, arg in pairs:
            taint = self._taint_of(arg, summary, state)
            bucket = callee.param_taint.setdefault(param, set())
            if not taint <= bucket:
                bucket |= taint
                self._changed = True
            if self._is_setlike(arg, state) and \
                    param not in callee.setlike_params:
                callee.setlike_params.add(param)
                self._changed = True
            if self._is_stream(arg, summary, state):
                if param not in callee.stream_params:
                    callee.stream_params.add(param)
                    self._changed = True
                # Transitive re-seed: our stream param handed straight
                # to a parameter the callee re-seeds.
                if (param in callee.reseed_params
                        and isinstance(arg, ast.Name)
                        and arg.id in summary.info.params
                        and arg.id not in summary.reseed_params):
                    summary.reseed_params.add(arg.id)
                    self._changed = True

    # -- expression queries --------------------------------------------------

    def _taint_of(self, expr: ast.AST, summary: FunctionSummary,
                  state: _FnState) -> Set[str]:
        info = summary.info
        if isinstance(expr, ast.Name):
            return set(state.env.get(expr.id, ()))
        if isinstance(expr, ast.Attribute):
            if _is_self_attr(expr, info):
                key = (self._class_qualname(info), expr.attr)
                return set(self.attr_taint.get(key, ()))
            return self._taint_of(expr.value, summary, state)
        if isinstance(expr, ast.Call):
            return self._call_taint(expr, summary, state)
        if isinstance(expr, (ast.BinOp, ast.BoolOp, ast.Compare,
                             ast.UnaryOp, ast.IfExp, ast.JoinedStr,
                             ast.FormattedValue, ast.Tuple, ast.List,
                             ast.Set, ast.Dict, ast.Starred,
                             ast.Subscript, ast.Slice, ast.Await)):
            taint: Set[str] = set()
            for child in ast.iter_child_nodes(expr):
                taint |= self._taint_of(child, summary, state)
            return taint
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            taint = set()
            for generator in expr.generators:
                taint |= self._iteration_taint(generator.iter, summary,
                                               state)
            for child in ast.iter_child_nodes(expr):
                if not isinstance(child, ast.comprehension):
                    taint |= self._taint_of(child, summary, state)
            return taint
        return set()

    def _call_taint(self, call: ast.Call, summary: FunctionSummary,
                    state: _FnState) -> Set[str]:
        func = call.func
        res = self._resolve(summary.info, call)
        name = res.external or ""
        if name in SOURCES:
            return {SOURCES[name]}
        taint: Set[str] = set()
        if res.target is not None:
            taint |= self.summaries[res.target.qualname].returns_taint
        else:
            # Unresolved call: conservatively pass arguments through.
            for arg in call.args:
                taint |= self._taint_of(arg, summary, state)
            for keyword in call.keywords:
                taint |= self._taint_of(keyword.value, summary, state)
            if isinstance(func, ast.Name) and \
                    func.id in _ORDER_LAUNDERERS:
                taint.discard(UNORDERED)
        if isinstance(func, ast.Attribute):
            if func.attr in _STREAM_METHODS:
                # Draws from a named stream are the *sanctioned*
                # randomness: deterministic per seed, never tainted.
                return set()
            # A method call on a tainted object yields tainted values
            # (e.g. SystemRandom().random()).
            taint |= self._taint_of(func.value, summary, state)
        return taint

    def _iteration_taint(self, iterable: ast.AST,
                         summary: FunctionSummary,
                         state: _FnState) -> Set[str]:
        taint = self._taint_of(iterable, summary, state)
        if self._is_setlike(_unwrap_order_preserving(iterable), state):
            taint = taint | {UNORDERED}
        return taint

    def _is_setlike(self, expr: ast.AST, state: _FnState) -> bool:
        expr = _unwrap_order_preserving(expr)
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
                and expr.func.id in ("set", "frozenset"):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in state.setlike
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and \
                expr.value.id == "self":
            return any(  # simlint: disable=R3  any() ignores order
                key[1] == expr.attr for key in self.attr_setlike)
        return False

    def _is_stream(self, expr: ast.AST, summary: FunctionSummary,
                   state: _FnState) -> bool:
        info = summary.info
        if isinstance(expr, ast.Name):
            return expr.id in state.streams
        if isinstance(expr, ast.Attribute):
            if _is_self_attr(expr, info):
                return (self._class_qualname(info),
                        expr.attr) in self.attr_stream
            return False
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in _STREAM_METHODS:
                return True
            res = self._resolve(info, expr)
            if res.target is not None:
                return self.summaries[res.target.qualname].returns_stream
        return False

    def _taint_attr(self, info: FunctionInfo, attr: str,
                    taint: Set[str]) -> None:
        key = (self._class_qualname(info), attr)
        bucket = self.attr_taint.setdefault(key, set())
        if not taint <= bucket:
            bucket |= taint
            self._changed = True

    @staticmethod
    def _class_qualname(info: FunctionInfo) -> str:
        return "%s.%s" % (info.module.name, info.class_name or "<module>")

    # -- call-site freezing --------------------------------------------------

    def _build_call_sites(self,
                          summary: FunctionSummary) -> List[CallSite]:
        info = summary.info
        state = _FnState()
        for param in info.params:
            state.env[param] = set(summary.param_taint.get(param, ()))
        state.streams |= summary.stream_params
        state.setlike |= summary.setlike_params
        for _pass in range(8):
            before = dict((k, frozenset(v)) for k, v in state.env.items())
            self._walk_body(summary, state)
            if dict((k, frozenset(v))
                    for k, v in state.env.items()) == before:
                break
        bare = {id(node.value) for node in own_nodes(info.node)
                if isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)}
        sites: List[CallSite] = []
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            func_attr = func.attr if isinstance(func, ast.Attribute) \
                else None
            receiver_taint: Set[str] = set()
            receiver_stream = False
            if isinstance(func, ast.Attribute):
                receiver_taint = self._taint_of(func.value, summary, state)
                receiver_stream = self._is_stream(func.value, summary,
                                                  state)
            args: List[ArgInfo] = []
            for index, arg in enumerate(node.args):
                args.append(self._arg_info(str(index + 1), arg, summary,
                                           state))
            for keyword in node.keywords:
                if keyword.arg is not None:
                    args.append(self._arg_info(keyword.arg, keyword.value,
                                               summary, state))
            sites.append(CallSite(node, info,
                                  self._resolve(info, node), func_attr,
                                  receiver_taint, receiver_stream, args,
                                  id(node) in bare))
        sites.sort(key=lambda s: (s.node.lineno, s.node.col_offset))
        return sites

    def _arg_info(self, label: str, arg: ast.AST,
                  summary: FunctionSummary, state: _FnState) -> ArgInfo:
        draws = any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and self._is_stream(sub.func.value, summary, state)
            for sub in ast.walk(arg))
        return ArgInfo(label, arg, self._taint_of(arg, summary, state),
                       self._is_stream(arg, summary, state), draws)


# -- small AST helpers -------------------------------------------------------

def _target_names(target: ast.AST) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _is_self_attr(node: ast.AST, info: FunctionInfo) -> bool:
    return info.is_method and is_self_attr(node)


def _unwrap_order_preserving(expr: ast.AST) -> ast.AST:
    while (isinstance(expr, ast.Call)
           and isinstance(expr.func, ast.Name)
           and expr.func.id in ("list", "tuple", "iter", "enumerate",
                                "reversed")
           and expr.args):
        expr = expr.args[0]
    return expr


def _drawn_names(expr: ast.AST) -> Iterator[str]:
    """Names whose methods are called inside ``expr`` (draw detection)."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Call) and \
                isinstance(sub.func, ast.Attribute) and \
                isinstance(sub.func.value, ast.Name):
            yield sub.func.value.id
