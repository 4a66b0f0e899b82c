"""R5: simulation processes must not block the host.

A simulation process is a generator resumed by the event loop; the only
way it may "wait" is to yield an event.  ``time.sleep()`` inside one
stalls the entire simulation for real wall-clock time without advancing
``sim.now`` at all, and blocking I/O (sockets, subprocesses, ``input``)
couples the run to the outside world — both wreck reproducibility and
throughput.  The rule confines itself to generator functions, which is
what the kernel executes as processes.
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

__all__ = ["BlockingCallRule"]

#: Dotted callables that block on the host (wall-clock or real I/O).
_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "os.wait", "os.waitpid",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "socket.create_connection",
    "urllib.request.urlopen", "requests.get", "requests.post",
})

#: Bare names that block when called (after ``from time import sleep``).
_BLOCKING_NAMES = frozenset({"sleep", "input"})


@register
class BlockingCallRule(Rule):
    """R5: simulation processes must not block the host.

    Why it matters: A process is a generator resumed by the event loop;
    time.sleep() stalls the whole simulation without advancing sim.now,
    and blocking I/O couples the run to the outside world.

    Fix pattern: Replace sleeps with `yield sim.timeout(...)`; move I/O
    out of process bodies into harness code.

    Example: time.sleep(0.1)  # simlint: disable=R5 demo pacing in
    example script, not a model
    """

    code = "R5"
    name = "blocking-call"
    interests = (ast.Call,)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted in _BLOCKING_CALLS:
            blocked = dotted
        elif (isinstance(node.func, ast.Name)
                and node.func.id in _BLOCKING_NAMES):
            blocked = node.func.id
        else:
            return
        if ctx.in_simulation_process(node):
            yield self.finding(
                ctx.path, node,
                "%s() blocks the host inside a simulation process; "
                "yield sim.timeout(...) instead" % blocked)
