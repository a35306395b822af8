"""The graceful-degradation ladder's observable record.

When a budget cap is exhausted with ``on_budget="degrade"`` the engine
does not raise — it walks a two-rung ladder:

* **Rung 1** (soft caps: candidate count, frontier memory) — narrow the
  beam to ``RunBudget.degraded_beam_width``, truncating every existing
  irredundant list and recording, per victim, how many candidates were
  dropped and the best score among them (the optimality gap those drops
  can imply at that victim).  The sweep then continues under the
  narrowed beam.
* **Rung 2** (deadline, or a soft cap exceeded again by the escalation
  factor) — stop sweeping entirely and finalize the solution from the
  cardinalities that completed.

Either way the result is flagged ``degraded=True`` and carries a
:class:`DegradationReport` with per-victim provenance, so a caller can
see exactly what the partial answer cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .supervisor import ExecIncident


@dataclass(frozen=True)
class VictimDegradation:
    """Candidates dropped at one victim when the beam was narrowed.

    ``best_dropped_score`` is the score of the best candidate discarded
    (delay noise in ns): an upper bound on what any dropped candidate
    could still have contributed at this victim.
    """

    net: str
    cardinality: int
    dropped: int
    best_dropped_score: float


@dataclass
class DegradationReport:
    """Why and how a solve was degraded.

    Attributes
    ----------
    reason:
        ``"deadline"``, ``"candidates"``, ``"memory"`` or
        ``"cancelled"`` — the first exhausted cap (or the cooperative
        cancel flag, see :attr:`RunBudget.cancel_check
        <repro.runtime.budget.RunBudget.cancel_check>`).
    rung:
        1 — beam narrowed, sweep completed; 2 — sweep halted early.
    completed_k:
        Largest cardinality fully swept (the solution is exact-as-
        configured up to this k).
    requested_k:
        The k the caller asked for.
    beam_width:
        The narrowed beam width, when rung >= 1 narrowing happened.
    elapsed_s:
        Wall-clock seconds when the ladder was (last) climbed.
    victims:
        Per-victim drop provenance from beam narrowing.
    exec_incidents:
        Execution-layer failure provenance
        (:class:`~repro.runtime.supervisor.ExecIncident`).  The serial
        engine records none; the field stays because the JSON form of a
        stored result carries it.
    """

    reason: str
    rung: int
    completed_k: int
    requested_k: int
    beam_width: Optional[int] = None
    elapsed_s: float = 0.0
    victims: List[VictimDegradation] = field(default_factory=list)
    exec_incidents: List[ExecIncident] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        """True when not every requested cardinality was swept."""
        return self.completed_k < self.requested_k

    def optimality_gap(self) -> float:
        """Upper bound (ns) implied by the dropped candidates.

        The best score among every candidate the narrowing discarded —
        no dropped candidate (nor, by Theorem 1, any completion of one
        that its kept dominators wouldn't also cover) can beat the
        reported set by more than this at its victim.  Zero when nothing
        was dropped.
        """
        return max((v.best_dropped_score for v in self.victims), default=0.0)

    def summary(self) -> str:
        """One-paragraph human-readable account."""
        lines = [
            f"degraded run (reason: {self.reason}, rung {self.rung}): "
            f"completed k={self.completed_k} of {self.requested_k} "
            f"after {self.elapsed_s:.2f} s"
        ]
        if self.beam_width is not None:
            dropped = sum(v.dropped for v in self.victims)
            lines.append(
                f"  beam narrowed to {self.beam_width}; {dropped} candidate(s) "
                f"dropped across {len(self.victims)} victim list(s)"
            )
            lines.append(
                f"  implied optimality gap <= {self.optimality_gap():.6f} ns"
            )
        if self.exec_incidents:
            recovered = sum(1 for inc in self.exec_incidents if inc.recovered)
            lines.append(
                f"  {len(self.exec_incidents)} execution incident(s) "
                f"({recovered} recovered); see exec_incidents for provenance"
            )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "reason": self.reason,
            "rung": self.rung,
            "completed_k": self.completed_k,
            "requested_k": self.requested_k,
            "beam_width": self.beam_width,
            "elapsed_s": self.elapsed_s,
            "optimality_gap": self.optimality_gap(),
            "victims": [
                {
                    "net": v.net,
                    "cardinality": v.cardinality,
                    "dropped": v.dropped,
                    "best_dropped_score": v.best_dropped_score,
                }
                for v in self.victims
            ],
            "exec_incidents": [
                inc.to_json() for inc in self.exec_incidents
            ],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "DegradationReport":
        # "optimality_gap" in the JSON form is derived, not state; it is
        # recomputed from the victims on the way back in.
        return cls(
            reason=str(payload["reason"]),
            rung=int(payload["rung"]),
            completed_k=int(payload["completed_k"]),
            requested_k=int(payload["requested_k"]),
            beam_width=(
                None
                if payload.get("beam_width") is None
                else int(payload["beam_width"])
            ),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            victims=[
                VictimDegradation(
                    net=str(v["net"]),
                    cardinality=int(v["cardinality"]),
                    dropped=int(v["dropped"]),
                    best_dropped_score=float(v["best_dropped_score"]),
                )
                for v in payload.get("victims", [])
            ],
            exec_incidents=[
                ExecIncident.from_json(inc)
                for inc in payload.get("exec_incidents", [])
            ],
        )
