"""simlint: determinism & sim-correctness static analysis for the DES stack.

The repo's scientific claim — that it reproduces the paper's figures —
only holds if every simulation run is bit-for-bit reproducible and the
event kernel is used correctly.  ``repro.analysis`` is an AST-based
static-analysis framework ("simlint") that enforces exactly that:

* every random draw must come from a named
  :class:`~repro.simulation.randomness.RandomStreams` stream,
* simulated time must never leak to (or from) the wall clock,
* event scheduling must not depend on hash ordering,
* events must not be silently lost.

Run it as ``python -m repro.analysis src/repro`` or through the main
CLI as ``python -m repro analyze``.  Rules are plugins in one registry
(:mod:`repro.analysis.core`); importing this package registers every
built-in family — the per-file rules (:mod:`repro.analysis.rules`) and
the project rules of ``--deep`` (:mod:`repro.analysis.dataflow`),
``--shard`` (:mod:`repro.analysis.shard`) and ``--scale``
(:mod:`repro.analysis.scale`).  ``docs/static_analysis.md`` shows how
to write new ones.
"""

from __future__ import annotations

from repro.analysis.core import (
    Analyzer,
    Finding,
    ProjectRule,
    Rule,
    RuleContext,
    analyze_paths,
    analyze_source,
    default_rules,
    register,
)
# Importing the rule families fills the registry.
from repro.analysis import dataflow, rules, scale, shard  # noqa: F401

__all__ = [
    "Analyzer",
    "Finding",
    "ProjectRule",
    "Rule",
    "RuleContext",
    "analyze_paths",
    "analyze_source",
    "default_rules",
    "register",
]
