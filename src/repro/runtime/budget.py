"""Run budgets and the cooperative runtime monitor.

A :class:`RunBudget` bounds one solve: a wall-clock deadline, a cap on
enumerated candidates, and a cap on the live frontier memory (the
per-victim irredundant lists are the only state that grows with the
C(r, k) blow-up).  The solver consults a :class:`RuntimeMonitor` at its
cancellation checkpoints (:meth:`TopKEngine._sweep <repro.core.engine.
TopKEngine._sweep>`, ``_score``, the brute-force loop, the noise
fixpoint); the monitor reports which cap — if any — is exhausted, and
the engine applies its policy (raise a structured
:class:`~repro.runtime.errors.BudgetExceededError`, or walk the
degradation ladder, see :mod:`repro.runtime.degrade`).

Parallel solves (``TopKConfig.parallelism > 1``) keep all budget
enforcement in the parent process: the wave scheduler ticks the monitor
once per topological-level wave instead of once per victim, so caps are
honored at wave granularity — a cap hit mid-wave is observed when the
wave's results are merged.  Worker processes run with the budget
stripped and only report resource deltas back.

The monitor is also the seam for simulated deadline hits: when a fault
injector is active, an injected ``deadline`` fault makes
:meth:`RuntimeMonitor.deadline_exceeded` return True regardless of real
elapsed time, which is how the chaos suite exercises deadline paths
deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import faultinject
from .errors import BudgetExceededError

#: Accepted budget-exhaustion policies.
ON_BUDGET_MODES = ("raise", "degrade")


@dataclass(frozen=True)
class RunBudget:
    """Resource bounds and resilience knobs for one solve.

    Attributes
    ----------
    deadline_s:
        Wall-clock budget in seconds from solver construction (None =
        unbounded).  Hitting it is rung 2 of the ladder: stop sweeping
        and return the partial solution.
    max_candidates:
        Cap on the cumulative number of scored candidate sets.  Hitting
        it is rung 1: narrow the beam and keep going; exceeding it again
        by ``escalation``x halts like a deadline.
    max_frontier_mb:
        Cap on the live irredundant-list memory (MB of envelope samples
        across all victims and cardinalities).  Same ladder as
        ``max_candidates``.
    on_budget:
        ``"degrade"`` (default) — walk the degradation ladder and return
        a partial, flagged solution; ``"raise"`` — raise
        :class:`~repro.runtime.errors.BudgetExceededError` at the first
        exhausted cap.
    degraded_beam_width:
        Beam width the ladder narrows to at rung 1.
    escalation:
        Multiplier on the soft caps after rung 1; exceeding the scaled
        cap escalates to rung 2 (halt).
    checkpoint_path:
        When set, the engine writes a JSON snapshot here after every
        completed cardinality (subject to ``checkpoint_every_s``) and
        transparently resumes from it when the file already exists.
    checkpoint_every_s:
        Minimum seconds between snapshots (0 = snapshot every completed
        cardinality).
    convergence_retries:
        Retries with escalating damping granted to the noise fixpoint
        before a :class:`~repro.noise.analysis.ConvergenceError` is
        final (see :func:`repro.noise.analysis.analyze_noise_resilient`).
    cancel_check:
        Optional zero-argument callable polled at the solver's
        cancellation checkpoints (the analysis service wires this to a
        per-job cancel flag).  When it returns True the solve stops
        cooperatively at the next checkpoint — halting with reason
        ``"cancelled"`` in degrade mode, raising
        :class:`~repro.runtime.errors.BudgetExceededError` in raise
        mode.  Excluded from equality/repr (it is runtime wiring, not
        part of the budget's value) and never part of the checkpoint
        fingerprint.
    """

    deadline_s: Optional[float] = None
    max_candidates: Optional[int] = None
    max_frontier_mb: Optional[float] = None
    on_budget: str = "degrade"
    degraded_beam_width: int = 4
    escalation: float = 1.5
    checkpoint_path: Optional[str] = None
    checkpoint_every_s: float = 0.0
    convergence_retries: int = 0
    cancel_check: Optional[Callable[[], bool]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.on_budget not in ON_BUDGET_MODES:
            raise ValueError(
                f"on_budget must be one of {ON_BUDGET_MODES}, got {self.on_budget!r}"
            )
        # ``not x >= 0`` rather than ``x < 0``: NaN fails every
        # comparison and must not slip through as "no bound".
        if self.deadline_s is not None and not self.deadline_s >= 0:
            raise ValueError(f"deadline_s must be >= 0, got {self.deadline_s}")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )
        if self.max_frontier_mb is not None and not self.max_frontier_mb > 0:
            raise ValueError(
                f"max_frontier_mb must be > 0, got {self.max_frontier_mb}"
            )
        if self.degraded_beam_width < 1:
            raise ValueError(
                f"degraded_beam_width must be >= 1, got {self.degraded_beam_width}"
            )
        if not self.escalation >= 1.0:
            raise ValueError(f"escalation must be >= 1, got {self.escalation}")
        if not self.checkpoint_every_s >= 0:
            raise ValueError(
                f"checkpoint_every_s must be >= 0, got {self.checkpoint_every_s}"
            )
        if self.convergence_retries < 0:
            raise ValueError(
                f"convergence_retries must be >= 0, got {self.convergence_retries}"
            )

    @property
    def bounded(self) -> bool:
        """True when any resource cap is actually set."""
        return (
            self.deadline_s is not None
            or self.max_candidates is not None
            or self.max_frontier_mb is not None
        )


class RuntimeMonitor:
    """Tracks elapsed time and resource consumption against a budget.

    One monitor lives for the whole solve (engine construction through
    oracle evaluation), so the deadline is measured from when work
    actually started, not from each phase.
    """

    def __init__(self, budget: Optional[RunBudget] = None) -> None:
        self.budget = budget if budget is not None else RunBudget()
        self.t0 = time.perf_counter()
        self.frontier_bytes = 0
        self.last_checkpoint_t = self.t0

    # -- accounting ----------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since the monitor (i.e. the solve) started."""
        return time.perf_counter() - self.t0

    def note_frontier(self, nbytes: int) -> None:
        """Account ``nbytes`` of newly kept frontier envelopes."""
        self.frontier_bytes += nbytes

    @property
    def frontier_mb(self) -> float:
        return self.frontier_bytes / 1e6

    def remaining_s(self) -> Optional[float]:
        """Wall-clock seconds left under the deadline (None = unbounded).

        Never negative; used by the supervised scheduler to clamp retry
        backoff and chunk waits so recovery work cannot outlive the
        solve's own budget.
        """
        deadline = self.budget.deadline_s
        if deadline is None:
            return None
        return max(0.0, deadline - self.elapsed())

    # -- exhaustion tests ----------------------------------------------
    def cancel_requested(self) -> bool:
        """True when the budget's cooperative cancel flag is raised."""
        check = self.budget.cancel_check
        return check is not None and bool(check())

    def deadline_exceeded(self, site: str = "") -> bool:
        """True when the wall-clock deadline (real or injected) passed.

        A raised cancel flag also reports True here so that long inner
        loops (the noise fixpoint, chunk waits) stop promptly on
        cancellation; the engine's tick checks
        :meth:`cancel_requested` *first*, so the recorded halt reason
        stays ``"cancelled"`` rather than ``"deadline"``.
        """
        injector = faultinject.active()
        if injector is not None and injector.fires("deadline", site):
            return True
        if self.cancel_requested():
            return True
        deadline = self.budget.deadline_s
        return deadline is not None and self.elapsed() > deadline

    def soft_exceeded(self, candidates: int, rung: int = 0) -> Optional[str]:
        """Which soft cap is exhausted at ladder ``rung``, if any.

        Caps are scaled by ``escalation ** rung`` so a rung-1 (narrowed)
        run gets headroom before escalating to a halt.
        """
        scale = self.budget.escalation ** rung
        cap = self.budget.max_candidates
        if cap is not None and candidates > cap * scale:
            return "candidates"
        cap_mb = self.budget.max_frontier_mb
        if cap_mb is not None and self.frontier_mb > cap_mb * scale:
            return "memory"
        return None

    def exhausted_noise(self, site: str = "") -> bool:
        """Deadline test for the noise fixpoint loop.

        Returns True (stop iterating, keep the last iterate) in degrade
        mode; raises :class:`BudgetExceededError` in raise mode.
        """
        if not self.deadline_exceeded(site):
            return False
        if self.budget.on_budget == "raise":
            raise BudgetExceededError(
                "wall-clock deadline exceeded during noise analysis",
                reason="deadline",
                elapsed_s=round(self.elapsed(), 3),
                deadline_s=self.budget.deadline_s,
                phase="noise",
                net=site or None,
            )
        return True

    # -- checkpoint pacing ---------------------------------------------
    def should_checkpoint(self) -> bool:
        """True when a snapshot is due (path set and interval elapsed)."""
        if self.budget.checkpoint_path is None:
            return False
        now = time.perf_counter()
        if now - self.last_checkpoint_t >= self.budget.checkpoint_every_s:
            self.last_checkpoint_t = now
            return True
        return False
