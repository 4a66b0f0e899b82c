"""Whole-program dataflow analysis for simlint (the ``--deep`` pass).

Layers, bottom up:

* :mod:`~repro.analysis.dataflow.symbols` — the project symbol table
  (modules, functions, classes, import aliases);
* :mod:`~repro.analysis.dataflow.callgraph` — syntactic call
  resolution across modules, classes and ``self.*`` methods;
* :mod:`~repro.analysis.dataflow.taint` — a four-kind taint lattice
  (wall-clock, entropy, worker identity, unordered iteration)
  iterated to an interprocedural fixpoint;
* :mod:`~repro.analysis.dataflow.rules` — the deep rules R11–R14.

:class:`~repro.analysis.core.Analyzer` runs the deep rules like any
other: it parses the tree once, builds the :class:`TaintEngine` from
that parse, and applies the standard simlint suppression comments.
Like the per-file engine it never imports the code under analysis.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.dataflow import rules  # noqa: F401  (registers R11-R14)
from repro.analysis.dataflow.callgraph import CallGraph, resolve_call
from repro.analysis.dataflow.symbols import (
    ModuleInfo,
    ProjectModel,
    build_project,
)
from repro.analysis.dataflow.taint import TaintEngine

__all__ = ["build_project", "build_engine", "CallGraph", "ProjectModel",
           "ModuleInfo", "TaintEngine", "resolve_call"]


def build_engine(paths: Iterable[str]) -> TaintEngine:
    """Parse ``paths`` and run the taint fixpoint; returns the engine."""
    return TaintEngine(build_project(paths))
