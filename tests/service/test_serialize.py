"""Result envelope round-trips must be bit-exact on every proved field."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import analyze
from repro.core.report import TopKResult
from repro.runtime.faultinject import FaultSpec, injected
from repro.service.protocol import ServiceError
from repro.service.serialize import (
    RESULT_FORMAT_VERSION,
    result_from_json,
    result_to_json,
    results_equal,
)
from repro.verify import check_certificate


def _roundtrip(result):
    """Encode through actual JSON text, the way the store does."""
    payload = json.loads(json.dumps(result_to_json(result)))
    return result_from_json(payload)


class TestResultRoundTrip:
    def test_plain_result_bit_exact(self, tiny_design):
        result = analyze(tiny_design, 2)
        back = _roundtrip(result)
        assert results_equal(result, back)
        assert back.delay == result.delay
        assert back.requested_k == result.requested_k
        assert back.couplings == result.couplings
        assert back.details == result.details

    def test_certified_result_keeps_valid_certificate(self, tiny_design):
        result = analyze(tiny_design, 2, certify=True)
        assert result.certificate is not None
        back = _roundtrip(result)
        assert back.certificate is not None
        report = check_certificate(back.certificate, tiny_design)
        assert report.ok, report.summary()
        assert results_equal(result, back)

    def test_degraded_result_keeps_provenance(self, small_design):
        with injected(FaultSpec("deadline", target="@k2")):
            result = analyze(small_design, 3, deadline_s=60.0)
        assert result.degraded
        back = _roundtrip(result)
        assert back.degraded
        assert back.degradation is not None
        assert result.degradation is not None
        assert back.degradation.reason == result.degradation.reason
        assert back.degradation.to_json() == result.degradation.to_json()
        assert results_equal(result, back)

    def test_runtime_only_fields_do_not_break_equality(self, tiny_design):
        a = analyze(tiny_design, 1)
        payload = result_to_json(a)
        # runtime_s is wall clock and deliberately outside the
        # comparison; stamp something absurd to prove it.
        payload["runtime_s"] = 999.0
        assert results_equal(a, result_from_json(payload))

    def test_version_mismatch_rejected(self, tiny_design):
        payload = result_to_json(analyze(tiny_design, 1))
        payload["version"] = RESULT_FORMAT_VERSION + 1
        with pytest.raises(Exception):
            result_from_json(payload)

    def test_results_equal_detects_difference(self, tiny_design):
        a = analyze(tiny_design, 1)
        b = analyze(tiny_design, 2)
        assert not results_equal(a, b)


# -- the untrusted read boundary under arbitrary JSON ------------------


@pytest.fixture(scope="module")
def fresh_certified(tiny_design):
    """A fresh parse of one certified result envelope per call."""
    text = json.dumps(result_to_json(analyze(tiny_design, 2, certify=True)))
    return lambda: json.loads(text)


def _paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _replaced(doc, path, value):
    if not path:
        return value
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | st.sampled_from(["", "inf", "addition", "$f8", "AAAAAAAA8D8="])
)
_json_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(["$f8"]), inner, max_size=3),
    max_leaves=6,
)


class TestReadBoundaryFuzz:
    @settings(deadline=None)
    @given(data=st.data(), value=_json_values)
    def test_any_value_at_any_path_is_a_result_or_a_service_error(
        self, fresh_certified, data, value
    ):
        doc = fresh_certified()
        path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        try:
            result = result_from_json(_replaced(doc, path, value))
        except ServiceError:
            return
        assert isinstance(result, TopKResult)
