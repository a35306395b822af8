"""repro.analysis — whole-design semantic static analysis.

Abstract interpretation over the coupling/timing graph in the proven
interval domain of :mod:`repro.verify.intervals` — no envelopes, no
grids, no alignment search:

* :mod:`~repro.analysis.dataflow` — the window-aware fixpoint worklist
  solver (:func:`semantic_bounds`): per-victim delay-noise intervals,
  per-direction activation, admissible contribution bounds.

The RPR7xx lint tier (:mod:`repro.lint.rules_semantic`) surfaces these
analyses through ``repro-lint --tier semantic``; see ``docs/lint.md``.
"""

from __future__ import annotations

from .dataflow import (
    DIES_EARLY,
    WIDEN_MODES,
    WINDOWS_DISJOINT,
    DataflowError,
    SemanticBounds,
    semantic_bounds,
)

__all__ = [
    "DIES_EARLY",
    "DataflowError",
    "SemanticBounds",
    "WIDEN_MODES",
    "WINDOWS_DISJOINT",
    "semantic_bounds",
]
