"""repro.runtime — the resilient execution runtime.

Production runs must end in bounded time with a well-formed (possibly
partial) answer, not in an open-ended exact solve or an opaque crash.
This package supplies the pieces the solver stack is wired through:

* :mod:`~repro.runtime.errors` — the structured :class:`ReproError`
  taxonomy every solver failure descends from;
* :mod:`~repro.runtime.budget` — :class:`RunBudget` caps and the
  :class:`RuntimeMonitor` consulted at cooperative cancellation
  checkpoints;
* :mod:`~repro.runtime.degrade` — the graceful-degradation ladder's
  per-victim provenance (:class:`DegradationReport`);
* :mod:`~repro.runtime.checkpoint` — JSON snapshot/resume of engine
  frontiers at cardinality boundaries;
* :mod:`~repro.runtime.jsonio` — bit-exact raw-float64 array records
  for JSON documents and the atomic file writer behind every persisted
  one;
* :mod:`~repro.runtime.supervisor` — the execution-incident provenance
  records (:class:`ExecIncident`) a result carries;
* :mod:`~repro.runtime.health` — the sanctioned monotonic clock the
  service's bookkeeping reads;
* :mod:`~repro.runtime.faultinject` — the seeded chaos harness driving
  ``tests/chaos/``.

See ``docs/robustness.md`` for semantics and usage.
"""

from .errors import (
    BudgetExceededError,
    CertificateError,
    CheckpointError,
    ReproError,
    WaveformFaultError,
)
from .budget import ON_BUDGET_MODES, RunBudget, RuntimeMonitor
from .degrade import DegradationReport, VictimDegradation
from .checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from .jsonio import array_from_json, array_to_json, atomic_write
from .faultinject import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    injected,
)
from .supervisor import AttemptRecord, ExecIncident

__all__ = [
    "AttemptRecord",
    "BudgetExceededError",
    "CHECKPOINT_VERSION",
    "CertificateError",
    "CheckpointError",
    "DegradationReport",
    "ExecIncident",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "ON_BUDGET_MODES",
    "ReproError",
    "RunBudget",
    "RuntimeMonitor",
    "VictimDegradation",
    "WaveformFaultError",
    "array_from_json",
    "array_to_json",
    "atomic_write",
    "injected",
]
