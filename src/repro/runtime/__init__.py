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
* :mod:`~repro.runtime.supervisor` — bounded-retry policies with seeded
  backoff and the execution-incident provenance records behind the
  supervised wave scheduler;
* :mod:`~repro.runtime.health` — parent-side worker heartbeat/health
  tracking and per-chunk wall-clock budgeting;
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
    POOL_FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    injected,
)
from .health import ChunkClock, HealthTracker, WorkerHealth
from .supervisor import (
    AttemptRecord,
    ExecIncident,
    RetryPolicy,
    Supervision,
)

__all__ = [
    "AttemptRecord",
    "BudgetExceededError",
    "CHECKPOINT_VERSION",
    "CertificateError",
    "CheckpointError",
    "ChunkClock",
    "DegradationReport",
    "ExecIncident",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "HealthTracker",
    "ON_BUDGET_MODES",
    "POOL_FAULT_KINDS",
    "ReproError",
    "RetryPolicy",
    "RunBudget",
    "RuntimeMonitor",
    "Supervision",
    "VictimDegradation",
    "WaveformFaultError",
    "WorkerHealth",
    "array_from_json",
    "array_to_json",
    "atomic_write",
    "injected",
]
