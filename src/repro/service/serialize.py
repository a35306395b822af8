"""Value-exact JSON round trip of :class:`~repro.core.report.TopKResult`.

The persistent store replays results across jobs and processes, so the
round trip must be *bit-identical* on everything the solver proved:
couplings, scores, delays, enumeration counters, degradation
provenance, incident ledger, and the certificate.  Scalar floats
survive JSON via their shortest round-trip ``repr``, and the
certificate's envelope arrays travel as raw float64 records
(``{"$f8": "<base64>"}``, see :mod:`repro.runtime.jsonio`), so a
replayed result compares equal field-for-field with the solved one.
The envelope is plain JSON: it is also the HTTP result body.

Two result attachments are intentionally **not** persisted:

* ``lint_report`` — lint findings are a property of the submitting
  run's configuration, not of the answer;
* ``trace`` — the observability bundle of the *solving* job; a replayed
  job gets its own (store-hit) spans instead of a stale copy.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..circuit.design import Design
from ..core.engine import SolveStats
from ..core.report import CouplingDetail, TopKResult
from ..runtime.degrade import DegradationReport
from ..runtime.errors import CertificateError
from ..runtime.supervisor import ExecIncident
from .protocol import ServiceError

#: Result envelope format version (bump on layout change).
RESULT_FORMAT_VERSION = 1


def result_to_json(result: TopKResult) -> Dict[str, Any]:
    """Serialize ``result`` (minus lint report and trace) to JSON."""
    payload: Dict[str, Any] = {
        "version": RESULT_FORMAT_VERSION,
        "mode": result.mode,
        "requested_k": result.requested_k,
        "couplings": sorted(result.couplings),
        "details": [
            {
                "index": d.index,
                "net_a": d.net_a,
                "net_b": d.net_b,
                "cap_ff": d.cap_ff,
            }
            for d in result.details
        ],
        "delay": result.delay,
        "estimated_delay": result.estimated_delay,
        "nominal_delay": result.nominal_delay,
        "all_aggressor_delay": result.all_aggressor_delay,
        "runtime_s": result.runtime_s,
        "stats": result.stats.to_json(),
        "degraded": result.degraded,
        "degradation": (
            None if result.degradation is None else result.degradation.to_json()
        ),
        "exec_incidents": [inc.to_json() for inc in result.exec_incidents],
        "certificate": (
            None if result.certificate is None else result.certificate.to_json()
        ),
    }
    return payload


def result_from_json(payload: Dict[str, Any]) -> TopKResult:
    """Rebuild a :class:`TopKResult` from :func:`result_to_json` output."""
    if not isinstance(payload, dict):
        raise ServiceError("result envelope must be a JSON object")
    version = payload.get("version")
    if version != RESULT_FORMAT_VERSION:
        raise ServiceError(
            f"unsupported result envelope version {version!r} "
            f"(expected {RESULT_FORMAT_VERSION})"
        )
    try:
        certificate = None
        if payload.get("certificate") is not None:
            from ..verify.certificate import Certificate

            certificate = Certificate.from_json(payload["certificate"])
        degradation: Optional[DegradationReport] = None
        if payload.get("degradation") is not None:
            degradation = DegradationReport.from_json(payload["degradation"])
        return TopKResult(
            mode=str(payload["mode"]),
            requested_k=int(payload["requested_k"]),
            couplings=frozenset(int(i) for i in payload["couplings"]),
            details=tuple(
                CouplingDetail(
                    index=int(d["index"]),
                    net_a=str(d["net_a"]),
                    net_b=str(d["net_b"]),
                    cap_ff=float(d["cap_ff"]),
                )
                for d in payload.get("details", [])
            ),
            delay=(
                None if payload.get("delay") is None
                else float(payload["delay"])
            ),
            estimated_delay=(
                None if payload.get("estimated_delay") is None
                else float(payload["estimated_delay"])
            ),
            nominal_delay=float(payload["nominal_delay"]),
            all_aggressor_delay=(
                None if payload.get("all_aggressor_delay") is None
                else float(payload["all_aggressor_delay"])
            ),
            runtime_s=float(payload.get("runtime_s", 0.0)),
            stats=SolveStats.from_json(payload.get("stats", {})),
            degraded=bool(payload.get("degraded", False)),
            degradation=degradation,
            exec_incidents=tuple(
                ExecIncident.from_json(inc)
                for inc in payload.get("exec_incidents", [])
            ),
            certificate=certificate,
        )
    except (KeyError, TypeError, ValueError, CertificateError) as exc:
        raise ServiceError(f"malformed result envelope: {exc}") from exc


def results_equal(a: TopKResult, b: TopKResult) -> bool:
    """Bit-exact comparison on everything the solver proved.

    ``runtime_s``, lint report, and trace are excluded — they describe
    the run, not the answer.  Certificates are compared by their JSON
    forms (value identity).
    """
    cert_a = None if a.certificate is None else a.certificate.to_json()
    cert_b = None if b.certificate is None else b.certificate.to_json()
    deg_a = None if a.degradation is None else a.degradation.to_json()
    deg_b = None if b.degradation is None else b.degradation.to_json()
    return (
        a.mode == b.mode
        and a.requested_k == b.requested_k
        and a.couplings == b.couplings
        and a.details == b.details
        and a.delay == b.delay
        and a.estimated_delay == b.estimated_delay
        and a.nominal_delay == b.nominal_delay
        and a.all_aggressor_delay == b.all_aggressor_delay
        and deg_a == deg_b
        and cert_a == cert_b
    )


def _design_anchor(design: Design) -> Dict[str, Any]:
    """Tiny design identity stamped into store envelopes for debugging."""
    stats = design.stats()
    return {
        "name": stats.name,
        "gates": stats.gates,
        "nets": stats.nets,
        "couplings": stats.coupling_caps,
    }
