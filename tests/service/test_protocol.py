"""Job specs are checked at the request boundary, before anything is queued."""

from __future__ import annotations

import json

import pytest

from repro.service import JobSpec, ServiceError

BAD_KNOBS = [
    pytest.param({"grid_points": 4}, id="grid_points"),
    pytest.param({"max_sets_per_cardinality": 0}, id="max_sets"),
    pytest.param({"deadline_s": -1.0}, id="negative_deadline"),
    pytest.param({"deadline_s": float("nan")}, id="nan_deadline"),
    pytest.param({"max_candidates": -5}, id="max_candidates"),
]


class TestJobSpecValidation:
    @pytest.mark.parametrize("knob", BAD_KNOBS)
    def test_out_of_range_knob_is_rejected(self, knob):
        with pytest.raises(ServiceError, match="invalid job spec"):
            JobSpec(benchmark="i1", k=2, **knob)

    def test_nan_deadline_from_json_is_rejected(self):
        # Python's json module accepts the NaN literal.
        payload = json.loads('{"benchmark": "i1", "k": 2, "deadline_s": NaN}')
        with pytest.raises(ServiceError, match="deadline_s"):
            JobSpec.from_json(payload)

    def test_in_range_knobs_are_accepted(self):
        spec = JobSpec(
            benchmark="i1",
            k=2,
            grid_points=8,
            max_sets_per_cardinality=1,
            deadline_s=0.0,
            max_candidates=1,
        )
        assert JobSpec.from_json(spec.to_json()) == spec
