"""Job specs are checked at the request boundary, before anything is queued."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.generator import PAPER_BENCHMARKS
from repro.runtime.budget import ON_BUDGET_MODES
from repro.service import JobSpec, ServiceError
from repro.service.protocol import MAX_GATES, MAX_GRID_POINTS, MAX_K

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


BOUNDS = [
    pytest.param("gates", MAX_GATES, {}, id="gates"),
    pytest.param("k", MAX_K, {"benchmark": "i1"}, id="k"),
    pytest.param("grid_points", MAX_GRID_POINTS, {"benchmark": "i1"}, id="grid_points"),
]


class TestJobSpecUpperBounds:
    @pytest.mark.parametrize("name, bound, source", BOUNDS)
    def test_over_the_bound_is_rejected_naming_field_and_bound(
        self, name, bound, source
    ):
        for value in (bound + 1, 10**30):
            with pytest.raises(ServiceError, match=f"{name} must be <= {bound}"):
                JobSpec.from_json({**source, name: value})

    @pytest.mark.parametrize("name, bound, source", BOUNDS)
    def test_the_bound_itself_is_accepted(self, name, bound, source):
        spec = JobSpec.from_json({**source, name: bound})
        assert getattr(spec, name) == bound

    def test_parallelism_is_an_unknown_field(self):
        # The engine is serial: the old knob is no field of a spec, so a
        # request that still sends it is rejected whatever its value.
        for value in (1, 2, 10**6):
            with pytest.raises(
                ServiceError, match="unknown job spec field.*parallelism"
            ):
                JobSpec.from_json({"benchmark": "i1", "parallelism": value})


WRONGLY_TYPED = [
    pytest.param({"certify": "false"}, id="certify_string"),
    pytest.param({"use_store": "false"}, id="use_store_string"),
    pytest.param({"certify": 0}, id="certify_integer"),
    pytest.param({"k": 3.7}, id="k_float"),
    pytest.param({"k": True}, id="k_boolean"),
    pytest.param({"k": "3"}, id="k_string"),
    pytest.param({"priority": 1e400}, id="priority_infinity"),
    pytest.param({"seed": None}, id="seed_null"),
    pytest.param({"mode": ["addition"]}, id="mode_list"),
    pytest.param({"deadline_s": True}, id="deadline_boolean"),
    pytest.param({"deadline_s": 10**400}, id="deadline_overflows"),
]


class TestJobSpecWireTypes:
    @pytest.mark.parametrize("field", WRONGLY_TYPED)
    def test_wrongly_typed_field_is_rejected(self, field):
        with pytest.raises(ServiceError, match="malformed job spec"):
            JobSpec.from_json({"benchmark": "i1", **field})

    def test_integral_deadline_is_a_number(self):
        spec = JobSpec.from_json({"benchmark": "i1", "deadline_s": 30})
        assert spec.deadline_s == 30.0 and isinstance(spec.deadline_s, float)

    def test_null_is_accepted_where_the_default_is_none(self):
        spec = JobSpec.from_json(
            {"benchmark": "i1", "gates": None, "grid_points": None}
        )
        assert spec == JobSpec(benchmark="i1")


# -- the request boundary under arbitrary JSON ------------------------

FIELDS = sorted(JobSpec.__dataclass_fields__)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**500)
    | st.integers(min_value=-(10**500), max_value=-(10**300))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | st.sampled_from(
        ["i1", "i10", "addition", "elimination", "degrade", "raise", "false"]
    )
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_payloads = st.builds(
    lambda source, rest: {**source, **rest},
    st.sampled_from([{}, {"benchmark": "i1"}, {"gates": 12}]),
    st.dictionaries(st.sampled_from(FIELDS + ["bogus"]), _json_values, max_size=6),
)

_sources = st.one_of(
    st.builds(dict, benchmark=st.sampled_from(sorted(PAPER_BENCHMARKS))),
    st.builds(dict, gates=st.integers(min_value=2, max_value=MAX_GATES)),
)
_valid_specs = st.builds(
    lambda source, **knobs: JobSpec(**source, **knobs),
    _sources,
    seed=st.integers(),
    k=st.integers(min_value=0, max_value=MAX_K),
    mode=st.sampled_from(["addition", "elimination"]),
    priority=st.integers(),
    certify=st.booleans(),
    deadline_s=st.none() | st.floats(min_value=0.0, allow_nan=False),
    max_candidates=st.none() | st.integers(min_value=1),
    on_budget=st.sampled_from(ON_BUDGET_MODES),
    grid_points=st.none() | st.integers(min_value=8, max_value=MAX_GRID_POINTS),
    max_sets_per_cardinality=st.none() | st.integers(min_value=1),
    use_store=st.booleans(),
)


class TestRequestBoundaryFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_payloads)
    def test_any_json_object_is_a_spec_or_a_service_error(self, payload):
        try:
            spec = JobSpec.from_json(payload)
        except ServiceError:
            return
        assert isinstance(spec, JobSpec)
        assert JobSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec

    @settings(max_examples=200, deadline=None)
    @given(_valid_specs)
    def test_every_valid_spec_round_trips(self, spec):
        wire = json.loads(json.dumps(spec.to_json()))
        assert JobSpec.from_json(wire) == spec
