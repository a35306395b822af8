"""Unit tests for the execution-incident records.

:mod:`repro.runtime.supervisor` keeps the :class:`ExecIncident` record a
result carries (the service files ``store_corrupt`` incidents); every
kind a stored entry may hold must still construct and round-trip.
"""

from __future__ import annotations

import pytest

from repro.runtime.supervisor import AttemptRecord, ExecIncident, INCIDENT_KINDS


class TestExecIncident:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="unknown incident kind"):
            ExecIncident(kind="gremlin", site="x@k1")
        for kind in INCIDENT_KINDS:
            ExecIncident(kind=kind, site="x@k1")  # all accepted

    def test_recovered_property(self):
        inc = ExecIncident(kind="chunk_failure", site="n1@k2")
        assert not inc.recovered
        inc.resolution = "pool-retry"
        assert inc.recovered
        inc.resolution = "in-process"
        assert inc.recovered
        inc.resolution = "serial-fallback"
        assert not inc.recovered

    def test_json_round_trip_fields(self):
        inc = ExecIncident(
            kind="chunk_timeout",
            site="n1@k2",
            reason="TimeoutError()",
            resolution="in-process",
            attempts=[AttemptRecord(attempt=1, error="TimeoutError")],
        )
        data = inc.to_json()
        assert data["kind"] == "chunk_timeout"
        assert data["attempts"][0]["error"] == "TimeoutError"
        assert "chunk_timeout@n1@k2" in str(inc)
