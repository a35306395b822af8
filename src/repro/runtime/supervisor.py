"""Execution-incident provenance records.

An :class:`ExecIncident` records an execution-layer failure that the
answer survived: today the analysis service files a ``store_corrupt``
incident when a persistent-store entry fails validation and the job
falls back to a cold solve.  Incidents flow into the final
:class:`~repro.core.report.TopKResult` (and into stored result entries),
so a recovered run is distinguishable from a clean one.

The remaining kinds were recorded by the process-pool scheduler that
earlier versions ran intra-solve; they stay readable because stored
result entries may still carry them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Incident kinds a stored result may carry ("store_corrupt": a
#: persistent-store entry failed validation and the job fell back to a
#: cold solve; the others are the old pool scheduler's).
INCIDENT_KINDS = (
    "chunk_failure",
    "chunk_timeout",
    "pool_break",
    "pool_respawn",
    "quarantine",
    "serial_fallback",
    "segment_leak",
    "store_corrupt",
)


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt at a unit of work.

    Attributes
    ----------
    attempt:
        1-based attempt number.
    error:
        Exception type name (``"TimeoutError"``, ``"BrokenProcessPool"``,
        ...) when the attempt failed; ``None`` for the succeeding one.
    detail:
        Stringified exception (or other context) for the failure.
    elapsed_s:
        Wall-clock spent inside the attempt.
    backoff_s:
        Backoff slept *after* this attempt before the next one.
    """

    attempt: int
    error: Optional[str] = None
    detail: str = ""
    elapsed_s: float = 0.0
    backoff_s: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "error": self.error,
            "detail": self.detail,
            "elapsed_s": round(self.elapsed_s, 6),
            "backoff_s": round(self.backoff_s, 6),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "AttemptRecord":
        return cls(
            attempt=int(payload["attempt"]),
            error=payload.get("error"),
            detail=str(payload.get("detail", "")),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            backoff_s=float(payload.get("backoff_s", 0.0)),
        )


@dataclass
class ExecIncident:
    """Provenance of one execution-layer failure and its resolution.

    ``resolution`` tells how the work eventually completed:
    ``"pool-retry"`` (a later pool attempt succeeded), ``"in-process"``
    (the parent ran it itself), ``"serial-fallback"`` (the pool was
    given up entirely), or ``"unresolved"`` while still open.
    Incidents never imply result degradation — recovered work is
    bit-identical to a clean run; they are honesty, not apology.
    """

    kind: str
    site: str
    reason: str = ""
    resolution: str = "unresolved"
    attempts: List[AttemptRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in INCIDENT_KINDS:
            raise ValueError(
                f"unknown incident kind {self.kind!r}; "
                f"expected one of {INCIDENT_KINDS}"
            )

    @property
    def recovered(self) -> bool:
        """True once the work completed despite the failure."""
        return self.resolution in ("pool-retry", "in-process")

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "site": self.site,
            "reason": self.reason,
            "resolution": self.resolution,
            "attempts": [a.to_json() for a in self.attempts],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "ExecIncident":
        return cls(
            kind=str(payload["kind"]),
            site=str(payload.get("site", "")),
            reason=str(payload.get("reason", "")),
            resolution=str(payload.get("resolution", "unresolved")),
            attempts=[
                AttemptRecord.from_json(a) for a in payload.get("attempts", [])
            ],
        )

    def __str__(self) -> str:
        tail = f" after {len(self.attempts)} attempt(s)" if self.attempts else ""
        return f"{self.kind}@{self.site}: {self.reason} -> {self.resolution}{tail}"

