"""Tracer unit tests: nesting, attributes, merge, and the no-op path."""

from __future__ import annotations

import pickle
import time

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    activate,
    current_tracer,
    iter_tree,
    span,
)


def test_span_nesting_and_attrs():
    tracer = Tracer()
    with tracer.span("outer", k=3) as outer:
        with tracer.span("inner", net="n1") as inner:
            inner.set(kept=7)
        outer.set(done=True)
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    out, inn = tracer.spans
    assert inn.parent_id == out.span_id
    assert out.parent_id is None
    assert out.attrs == {"k": 3, "done": True}
    assert inn.attrs == {"net": "n1", "kept": 7}
    # Monotonic, nested intervals.
    assert out.t0 <= inn.t0 <= inn.t1 <= out.t1
    assert out.duration >= inn.duration >= 0.0


def test_sibling_spans_share_parent():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    root, a, b = tracer.spans
    assert a.parent_id == root.span_id
    assert b.parent_id == root.span_id
    assert [(d, s.name) for d, s in iter_tree(tracer)] == [
        (0, "root"),
        (1, "a"),
        (1, "b"),
    ]


def test_span_json_round_trip():
    tracer = Tracer()
    with tracer.span("work", net="n3", i=2):
        pass
    data = tracer.export()
    back = Span.from_json(data[0])
    orig = tracer.spans[0]
    assert back.name == orig.name
    assert back.attrs == orig.attrs
    assert back.t0 == orig.t0
    assert back.t1 == orig.t1
    assert back.worker == orig.worker


def test_activation_scopes_module_level_span():
    tracer = Tracer()
    assert current_tracer() is None
    with activate(tracer):
        assert current_tracer() is tracer
        with span("lib-work", x=1):
            pass
    assert current_tracer() is None
    assert [s.name for s in tracer.spans] == ["lib-work"]
    # Outside any activation the helper is a no-op.
    with span("dropped"):
        pass
    assert len(tracer.spans) == 1


def test_activating_disabled_tracer_deactivates():
    outer = Tracer()
    with activate(outer):
        with activate(NULL_TRACER):
            assert current_tracer() is None
            with span("invisible"):
                pass
        assert current_tracer() is outer
    assert outer.spans == []


def test_null_tracer_is_allocation_free_and_picklable():
    handle_a = NULL_TRACER.span("a", attr=1)
    handle_b = NULL_TRACER.span("b")
    # Shared singletons: no per-span allocation on the disabled path.
    assert handle_a is handle_b
    with handle_a as null_span:
        null_span.set(anything="goes")
    assert NULL_TRACER.spans == []
    assert NULL_TRACER.export() == []
    assert not NULL_TRACER.enabled
    # Engine snapshots pickle their tracer; the singleton must survive.
    clone = pickle.loads(pickle.dumps(NULL_TRACER))
    assert clone is NULL_TRACER
    assert isinstance(clone, NullTracer)


def test_disabled_span_overhead_is_negligible():
    """200k disabled spans must be effectively free (sub-µs each)."""
    t0 = time.perf_counter()
    for _ in range(200_000):
        with NULL_TRACER.span("hot", i=0):
            pass
    elapsed = time.perf_counter() - t0
    # ~0.05 s on a laptop; 2 s leaves two orders of magnitude of slack
    # for slow CI runners while still catching accidental allocation.
    assert elapsed < 2.0
