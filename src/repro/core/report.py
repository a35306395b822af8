"""Result records for the top-k analyses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Tuple

from ..circuit.design import Design
from ..runtime.degrade import DegradationReport
from ..runtime.supervisor import ExecIncident
from .engine import SolveStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..lint.framework import LintReport
    from ..obs.trace import Trace
    from ..verify.certificate import Certificate


@dataclass(frozen=True)
class CouplingDetail:
    """Human-readable description of one coupling in a reported set."""

    index: int
    net_a: str
    net_b: str
    cap_ff: float

    def __str__(self) -> str:
        return f"c{self.index}: {self.net_a} <-> {self.net_b} ({self.cap_ff:.2f} fF)"


@dataclass(frozen=True)
class TopKResult:
    """Outcome of one top-k query.

    Attributes
    ----------
    mode:
        ``"addition"`` or ``"elimination"``.
    requested_k:
        The k the user asked for.
    couplings:
        The selected aggressor-victim coupling ids (may be smaller than k
        when the design has fewer relevant couplings).
    details:
        Per-coupling descriptions.
    delay:
        Circuit delay (ns) evaluated by the exact iterative noise analysis
        with the set applied — added on top of a noiseless design
        (addition) or removed from the fully noisy design (elimination).
        ``None`` when oracle evaluation was disabled.
    estimated_delay:
        The solver's own superposition-based estimate of the same
        quantity.
    nominal_delay:
        Noiseless circuit delay (ns).
    all_aggressor_delay:
        Fully noisy circuit delay (ns); always present in elimination
        mode, optional in addition mode.
    runtime_s:
        Wall-clock seconds spent in the solver (excluding the oracle).
    stats:
        Enumeration counters.
    lint_report:
        Findings of the lint preflight / dominance audit when the query
        ran with ``analyze(..., lint=...)``; ``None`` otherwise.
    degraded:
        True when the solve ran out of budget and the answer is partial
        and/or beam-narrowed (see ``docs/robustness.md``).
    degradation:
        The degradation ladder's record (reason, rung, completed
        cardinality, per-victim drop provenance) when ``degraded``.
    exec_incidents:
        Execution failures the answer survived.  The analysis service
        files a ``store_corrupt`` incident when a stored entry failed
        validation and the job solved cold instead (see
        ``docs/service.md``); the couplings and scores are those of a
        clean solve.  This field is provenance, not apology.
    certificate:
        The proof-carrying :class:`~repro.verify.Certificate` of the
        solve when the query ran with ``certify=True``; ``None``
        otherwise.  See ``docs/verification.md``.
    trace:
        The :class:`~repro.obs.Trace` of the solve (span tree, unified
        metrics, optional sampling profile) when the query ran with
        ``trace=True``; ``None`` otherwise.  See
        ``docs/observability.md``.
    """

    mode: str
    requested_k: int
    couplings: FrozenSet[int]
    details: Tuple[CouplingDetail, ...]
    delay: Optional[float]
    estimated_delay: Optional[float]
    nominal_delay: float
    all_aggressor_delay: Optional[float]
    runtime_s: float
    stats: SolveStats = field(default_factory=SolveStats)
    lint_report: Optional["LintReport"] = None
    degraded: bool = False
    degradation: Optional[DegradationReport] = None
    exec_incidents: Tuple[ExecIncident, ...] = ()
    certificate: Optional["Certificate"] = None
    trace: Optional["Trace"] = None

    @property
    def effective_k(self) -> int:
        """How many couplings the set actually contains."""
        return len(self.couplings)

    @property
    def delay_noise_impact(self) -> Optional[float]:
        """Delay added (addition) or saved (elimination) by the set, ns."""
        if self.delay is None:
            return None
        if self.mode == "addition":
            return self.delay - self.nominal_delay
        if self.all_aggressor_delay is None:
            return None
        return self.all_aggressor_delay - self.delay

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"top-{self.requested_k} {self.mode} set "
            f"({self.effective_k} couplings, {self.runtime_s:.2f} s)",
            f"  nominal delay        : {self.nominal_delay:.4f} ns",
        ]
        if self.degraded and self.degradation is not None:
            lines.append(
                f"  DEGRADED ({self.degradation.reason}, rung "
                f"{self.degradation.rung}): completed "
                f"k={self.degradation.completed_k} of "
                f"{self.degradation.requested_k}, gap <= "
                f"{self.degradation.optimality_gap():.4f} ns"
            )
        elif self.degraded:
            lines.append("  DEGRADED: partial result (budget exhausted)")
        if self.exec_incidents:
            recovered = sum(1 for inc in self.exec_incidents if inc.recovered)
            lines.append(
                f"  {len(self.exec_incidents)} execution incident(s), "
                f"{recovered} recovered (results exact; see exec_incidents)"
            )
        if self.all_aggressor_delay is not None:
            lines.append(
                f"  all-aggressor delay  : {self.all_aggressor_delay:.4f} ns"
            )
        if self.delay is not None:
            lines.append(f"  delay with set       : {self.delay:.4f} ns")
        if self.estimated_delay is not None:
            lines.append(
                f"  solver estimate      : {self.estimated_delay:.4f} ns"
            )
        impact = self.delay_noise_impact
        if impact is not None:
            verb = "added" if self.mode == "addition" else "saved"
            lines.append(f"  delay noise {verb:<9}: {impact:.4f} ns")
        for detail in self.details:
            lines.append(f"    {detail}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a delay-vs-k sweep (Figure 10 / Table 2 series)."""

    k: int
    delay: float
    runtime_s: float
    result: TopKResult


def coupling_details(
    design: Design, couplings: FrozenSet[int]
) -> Tuple[CouplingDetail, ...]:
    """Describe a set of coupling ids against a design."""
    out: List[CouplingDetail] = []
    for idx in sorted(couplings):
        cc = design.coupling.by_index(idx)
        out.append(
            CouplingDetail(
                index=cc.index, net_a=cc.net_a, net_b=cc.net_b, cap_ff=cc.cap
            )
        )
    return tuple(out)
