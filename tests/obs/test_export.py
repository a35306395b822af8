"""Exporter tests: Chrome trace_event schema and JSON-lines round trip."""

from __future__ import annotations

import json

from repro.obs.export import (
    chrome_document,
    chrome_events,
    combine_chrome,
    read_jsonl,
    write_chrome,
    write_jsonl,
)
from repro.obs.tracer import Tracer


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("solve", k=2):
        with tracer.span("sweep", net="n1", cat="phase"):
            pass
    # A second lane: a span recorded under another worker label.
    lane = Tracer(worker="worker-7")
    with lane.span("score"):
        pass
    tracer.spans.extend(lane.spans)
    return tracer


def test_chrome_events_schema():
    events = chrome_events(_sample_tracer())
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == 3
    for event in complete:
        # The keys the Chrome/Perfetto loader requires on a complete event.
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(
            event
        )
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
    # One thread_name metadata event per distinct worker lane.
    thread_names = {
        e["args"]["name"] for e in meta if e["name"] == "thread_name"
    }
    assert thread_names == {"main", "worker-7"}
    # The span "cat" attribute becomes the event category, not an arg.
    sweep = next(e for e in complete if e["name"] == "sweep")
    assert sweep["cat"] == "phase"
    assert "cat" not in sweep["args"]


def test_chrome_document_shape_and_metrics():
    doc = chrome_document(_sample_tracer(), metrics={"counters": {"x": 1.0}})
    assert doc["displayTimeUnit"] == "ms"
    assert isinstance(doc["traceEvents"], list)
    assert doc["otherData"]["metrics"] == {"counters": {"x": 1.0}}
    json.dumps(doc)  # must be JSON-serializable as-is


def test_write_chrome_is_loadable_json(tmp_path):
    path = str(tmp_path / "trace.json")
    write_chrome(_sample_tracer(), path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]


def test_combine_chrome_gives_one_pid_per_trace():
    a, b = Tracer(), Tracer()
    with a.span("solve-a"):
        pass
    with b.span("solve-b"):
        pass
    doc = combine_chrome({"i1/addition": a, "i1/elimination": b})
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert pids == {1, 2}
    names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {"i1/addition", "i1/elimination"}


def test_jsonl_round_trip(tmp_path):
    tracer = _sample_tracer()
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(tracer, path)
    spans = read_jsonl(path)
    assert [s.name for s in spans] == [
        s.name for s in sorted(tracer.spans, key=lambda s: s.t0)
    ]
    assert {s.worker for s in spans} == {"main", "worker-7"}
    # Times are re-based to the earliest span start.
    assert min(s.t0 for s in spans) == 0.0
