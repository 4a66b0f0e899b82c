"""The growth-dimension pass (the ``--scale`` flag).

The complexity rules R22–R26 (:mod:`repro.analysis.scale.rules`) read
the :class:`~repro.analysis.state.StateModel` — each container's growth
dimension and the per-event hot set — for per-event linear scans,
unbounded accumulation, quadratic membership, kernel-loop allocation
and hot-path cache rebuilds; :mod:`repro.analysis.scale.inventory`
renders them as ``docs/scale-readiness.md``.
"""

from __future__ import annotations

from repro.analysis.scale import rules  # noqa: F401  (registers R22-R26)
