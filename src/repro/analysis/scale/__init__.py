"""scalecheck — the growth-dimension pass (the ``--scale`` flag).

Infers a growth dimension for every container the analyzed tree
constructs (bounded < per-host < per-site < per-session; see
:mod:`repro.analysis.scale.model`); the complexity rules R22–R26
(:mod:`repro.analysis.scale.rules`) read that :class:`ScaleModel` —
per-event linear scans, unbounded accumulation, quadratic membership,
kernel-loop allocation, and hot-path cache rebuilds — and run through
the one simlint driver, :class:`~repro.analysis.core.Analyzer`, never
importing the code under analysis.

:mod:`repro.analysis.scale.inventory` renders the whole model as
``docs/scale-readiness.md``, the work-list the brokered task-queue
layer (ROADMAP item 2) consumes.
"""

from __future__ import annotations

from repro.analysis.scale import rules  # noqa: F401  (registers R22-R26)
from repro.analysis.scale.model import (
    BOUNDED,
    PER_HOST,
    PER_SITE,
    POPULATION,
    ScaleModel,
    build_scale_model,
    dim_order,
)

__all__ = ["build_scale_model", "ScaleModel", "dim_order",
           "BOUNDED", "PER_HOST", "PER_SITE", "POPULATION"]
