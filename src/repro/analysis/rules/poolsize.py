"""R10: worker count and worker identity must never influence results.

The replication runner (:mod:`repro.experiments.runner`) fans
independent simulated worlds across a process pool.  That is only safe
while the *model* stays a pure function of the root seed: the moment a
seed, a sample count or a loop bound derives from ``os.cpu_count()``,
``multiprocessing.cpu_count()``, ``os.getpid()`` or a pool-size
variable, ``workers=1`` and ``workers=N`` diverge and every
determinism guarantee in the repo is void.

Two patterns are flagged:

* any call that reads host parallelism or worker identity
  (``os.cpu_count``, ``multiprocessing.cpu_count``,
  ``os.process_cpu_count``, ``os.sched_getaffinity``, ``os.getpid``,
  ``threading.get_ident``) — harness code sizing a *pool* from the
  host may suppress the finding with an explanatory comment, model
  and experiment code may not;
* a seeding call (``random.Random``, ``numpy.random.default_rng``,
  ``RandomStreams``, ``.seed(...)``, ``.spawn_key(...)``) whose
  arguments mention a worker/pool-sized name — seeds must be derived
  from the root seed and the replication index alone.
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

__all__ = ["PoolSizeRule"]

#: Fully-dotted callables that read host parallelism or worker identity.
_IDENTITY_CALLS = frozenset({
    "os.cpu_count", "multiprocessing.cpu_count", "mp.cpu_count",
    "os.process_cpu_count", "os.sched_getaffinity", "os.getpid",
    "threading.get_ident", "threading.get_native_id",
})

#: Callables whose final attribute alone is damning however the module
#: was imported or aliased.
_IDENTITY_SUFFIXES = frozenset({"cpu_count", "getpid", "sched_getaffinity"})

#: Callables that turn an integer into a stream of randomness.
_SEEDING_CALLS = frozenset({
    "random.Random", "Random", "RandomStreams",
    "default_rng", "seed", "spawn_key",
})

#: Variable names that smell like a worker count or worker identity.
#: Matched as whole identifiers inside seeding-call arguments.
_POOL_NAMES = frozenset({
    "workers", "n_workers", "num_workers", "nworkers", "worker",
    "worker_id", "worker_index", "pool_size", "poolsize", "nproc",
    "nprocs", "n_procs", "num_procs", "rank", "pid",
})


def _mentions_pool_identity(node: ast.AST) -> bool:
    """Does the expression reference a pool/worker-shaped quantity?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _POOL_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _POOL_NAMES:
            return True
        if isinstance(sub, ast.Call):
            dotted = dotted_name(sub.func)
            if dotted is not None and (
                    dotted in _IDENTITY_CALLS
                    or dotted.rsplit(".", 1)[-1] in _IDENTITY_SUFFIXES):
                return True
    return False


@register
class PoolSizeRule(Rule):
    """R10: worker count and worker identity must never influence results.

    Why it matters: The replication runner fans worlds across a process
    pool; the moment a seed or loop bound derives from
    cpu_count()/getpid(), workers=1 and workers=N diverge and every
    determinism guarantee is void.

    Fix pattern: Derive everything from the root seed; size pools only
    in harness code with a suppression.

    Example: n = os.cpu_count()  # simlint: disable=R10 harness pool
    sizing only, never reaches seeds
    """

    code = "R10"
    name = "pool-size"
    interests = (ast.Call,)

    def check(self, node: ast.AST, ctx: RuleContext) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is not None:
            if (dotted in _IDENTITY_CALLS
                    or dotted.rsplit(".", 1)[-1] in _IDENTITY_SUFFIXES):
                yield self.finding(
                    ctx.path, node,
                    "%s() reads host parallelism/worker identity; results "
                    "must be a pure function of the root seed (pass an "
                    "explicit workers= count through the harness)" % dotted)
                return
            final = dotted.rsplit(".", 1)[-1]
            if dotted in _SEEDING_CALLS or final in _SEEDING_CALLS:
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    if _mentions_pool_identity(arg):
                        yield self.finding(
                            ctx.path, node,
                            "%s() seeded from a worker/pool-sized "
                            "quantity; derive child seeds from the root "
                            "seed and the replication index only "
                            "(RandomStreams.spawn_key)" % dotted)
                        return
