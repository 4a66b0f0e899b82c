"""The shard-affinity pass (the ``--shard`` flag).

The ownership rules R15–R19 (:mod:`repro.analysis.shard.rules`) read
the :class:`~repro.analysis.state.StateModel` — which module- and
class-level containers are written at runtime, which functions write
state of the other entity family, which caches outlive a simulation —
and :mod:`repro.analysis.shard.inventory` renders their findings as
``docs/shard-safety.md``.
"""

from __future__ import annotations

from repro.analysis.shard import rules  # noqa: F401  (registers R15-R19)
