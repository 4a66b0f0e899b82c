"""The built-in per-file simlint rules.

A rule registers itself with the
:func:`~repro.analysis.core.register` decorator::

    from repro.analysis.core import Rule, register

    @register
    class MyRule(Rule):
        '''R27: the one-line summary --list-rules prints.

        Why it matters: ...

        Fix pattern: ...

        Example: ...
        '''

        code = "R27"
        name = "my-rule"
        ...

Importing this package imports every built-in rule module, which fills
the registry as a side effect; third-party extensions import and call
:func:`~repro.analysis.core.register` themselves before constructing an
:class:`~repro.analysis.core.Analyzer`.
"""

from __future__ import annotations

# Importing the built-in rule modules populates the registry.
from repro.analysis.rules import (  # noqa: F401  (import for effect)
    blocking,
    collectors,
    events,
    floateq,
    heapkeys,
    mutables,
    ordering,
    poolsize,
    printing,
    randomness,
    shardchannel,
    wallclock,
)
