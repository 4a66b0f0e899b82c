"""R2: simulated time must never come from the wall clock.

A discrete-event model has exactly one clock: ``sim.now``.  Reading
``time.time()`` (or any monotonic/CPU clock, or ``datetime.now()``)
inside model code couples results to the speed of the machine running
the simulation — the cardinal reproducibility sin.  Wall-clock reads
belong only in harness code that reports real elapsed time, and such
code must say so with a suppression comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    Rule,
    RuleContext,
    dotted_name,
    register,
)

__all__ = ["WallClockRule"]

#: Fully-dotted callables that read the host clock.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock",
})

#: (penultimate, final) attribute pairs that read the host clock no
#: matter how the datetime module was imported or aliased.
_CLOCK_SUFFIXES = frozenset({
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
})


@register
class WallClockRule(Rule):
    """R2: simulated time must never come from the wall clock.

    Why it matters: A discrete-event model has exactly one clock,
    sim.now.  time.time()/datetime.now() in model code couples results
    to host speed — the cardinal reproducibility sin.

    Fix pattern: Use sim.now inside the model; wall-clock reads belong
    only in harness code reporting real elapsed time.

    Example: t0 = time.time()  # simlint: disable=R2 harness wall-time
    report only
    """

    code = "R2"
    name = "wall-clock"
    interests = (ast.Call,)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = tuple(dotted.split("."))
        hit = dotted in _CLOCK_CALLS or (len(parts) >= 2
                                         and parts[-2:] in _CLOCK_SUFFIXES)
        if hit:
            yield self.finding(
                ctx.path, node,
                "%s() reads the host clock; simulation code must use "
                "sim.now" % dotted)
