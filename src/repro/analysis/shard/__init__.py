"""shardcheck — the shard-affinity pass (the ``--shard`` flag).

Classifies every mutable location in the analyzed tree on the
three-value affinity lattice (shard-local / shard-crossing /
process-global; see :mod:`repro.analysis.shard.model`); the ownership
rules R15–R19 (:mod:`repro.analysis.shard.rules`) read that
:class:`ShardModel` and run through the one simlint driver,
:class:`~repro.analysis.core.Analyzer`, never importing the code under
analysis.

:mod:`repro.analysis.shard.inventory` renders the whole model as
``docs/shard-safety.md``, the work-list the sharded-engine refactor
consumes.
"""

from __future__ import annotations

from repro.analysis.shard import rules  # noqa: F401  (registers R15-R19)
from repro.analysis.shard.model import (
    CROSSING,
    GLOBAL,
    LOCAL,
    ShardModel,
    build_shard_model,
    family_of_module,
)

__all__ = ["build_shard_model", "ShardModel", "family_of_module",
           "LOCAL", "CROSSING", "GLOBAL"]
