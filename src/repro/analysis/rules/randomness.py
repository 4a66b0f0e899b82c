"""R1: every random draw must come from a RandomStreams stream.

The global ``random`` module shares one hidden generator across the whole
process: any new caller perturbs every existing consumer's draws, and two
runs are only identical if every import and call happens in exactly the
same order.  A literal-seeded private ``random.Random(0)`` is just as
bad in a different way — every component seeded with the same literal
produces *correlated* draws, and the seed cannot be varied per run.
:class:`repro.simulation.randomness.RandomStreams` exists to solve both;
model code must take an injected stream.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, RuleContext, register

__all__ = ["GlobalRandomRule"]

#: Module-level functions of ``random`` that draw from (or reseed) the
#: hidden shared generator.
_GLOBAL_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})


@register
class GlobalRandomRule(Rule):
    """R1: every random draw must come from a RandomStreams stream.

    Why it matters: The global `random` module shares one hidden
    generator across the process: any new caller perturbs every existing
    consumer's draws, and a literal-seeded private Random(0) gives every
    component correlated draws that cannot be varied per run.

    Fix pattern: Take an injected
    repro.simulation.randomness.RandomStreams stream
    (`streams.stream("component")`) and draw from it.

    Example: rng = random.Random(0)  # simlint: disable=R1 test fixture,
    never reaches sim state
    """

    code = "R1"
    name = "global-random"
    interests = (ast.Call, ast.ImportFrom)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.finding(
                            ctx.path, node,
                            "'from random import %s' binds the shared "
                            "global generator; inject a RandomStreams "
                            "stream instead" % alias.name)
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"):
            return
        if func.attr in _GLOBAL_FNS:
            yield self.finding(
                ctx.path, node,
                "random.%s() draws from the process-global generator; "
                "use a RandomStreams stream" % func.attr)
        elif func.attr == "Random":
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx.path, node,
                    "random.Random() is seeded from the OS — every run "
                    "differs; use a RandomStreams stream")
            elif node.args and isinstance(node.args[0], ast.Constant):
                yield self.finding(
                    ctx.path, node,
                    "random.Random(%r) hard-codes a seed, bypassing the "
                    "RandomStreams registry; inject a named stream"
                    % node.args[0].value)
