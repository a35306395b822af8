"""Traced solves: the observability layer through the real pipeline.

The load-bearing invariant: a parallel solve's *merged* trace carries
the same core enumeration counters as the serial solve's — worker spans
and metrics deltas fold back without perturbing the deterministic
accounting (see docs/performance.md and docs/observability.md).
"""

from __future__ import annotations

import pytest

from repro.api import analyze
from repro.circuit.generator import random_design
from repro.core.engine import TopKConfig, TopKEngine
from repro.runtime.budget import RunBudget


def _design():
    return random_design("traced", n_gates=30, target_caps=60, seed=5)


def test_analyze_trace_attaches_bundle():
    result = analyze(_design(), k=2, trace=True)
    trace = result.trace
    assert trace is not None
    names = {s.name for s in trace.spans}
    assert {"solve", "cardinality", "sweep", "generate", "score"} <= names
    # Phase totals come from the metrics registry and stay in sync with
    # the legacy SolveStats snapshot.
    assert trace.phase_summary() == result.stats.phase_s
    assert trace.duration() > 0.0


def test_analyze_without_trace_is_free():
    result = analyze(_design(), k=2)
    assert result.trace is None


def test_analyze_trace_path_writes_file(tmp_path):
    path = str(tmp_path / "out.jsonl")
    result = analyze(_design(), k=2, trace=path)
    assert result.trace is not None
    with open(path, encoding="utf-8") as fh:
        assert fh.read().count("\n") == len(result.trace.spans)


def test_noise_fixpoint_spans_recorded():
    result = analyze(_design(), k=2, mode="elimination", trace=True)
    fixpoints = result.trace.find("noise.fixpoint")
    assert fixpoints  # the elimination seed at minimum
    seed = fixpoints[0]
    assert seed.attrs.get("iterations", 0) >= 1
    assert "converged" in seed.attrs
    iters = result.trace.find("noise.iteration")
    assert len(iters) >= seed.attrs["iterations"]
    assert all("delta" in s.attrs for s in iters)


def test_certify_spans_recorded():
    result = analyze(_design(), k=2, trace=True, certify=True)
    (emit,) = result.trace.find("certificate.emit")
    assert emit.attrs["witnesses"] == len(result.certificate.witnesses)
    (check,) = result.trace.find("certificate.check")
    assert check.attrs["ok"] is True


def test_checkpoint_spans_and_counters(tmp_path):
    budget = RunBudget(checkpoint_path=str(tmp_path / "ckpt.json"))
    result = analyze(_design(), k=2, config=TopKConfig(budget=budget), trace=True)
    writes = result.trace.find("checkpoint.write")
    assert writes
    assert result.trace.metrics.counter("checkpoint.writes") == len(writes)


@pytest.mark.bench
@pytest.mark.timeout(300)
def test_disabled_tracer_not_slower_than_enabled():
    """The zero-cost claim, as a relative gate immune to host speed:
    a solve with tracing *disabled* must never come out slower than the
    same solve with tracing *enabled* (beyond measurement noise).  The
    absolute <2% overhead figure is checked against the bench baseline
    (BENCH_topk.json's serial times predate the tracer)."""
    import statistics
    import time

    design = _design()

    def run_once(trace: bool) -> float:
        t0 = time.perf_counter()
        with TopKEngine(design, "addition", TopKConfig(trace=trace)) as eng:
            eng.solve(3)
        return time.perf_counter() - t0

    run_once(False)  # warm caches
    samples = [(run_once(False), run_once(True)) for _ in range(5)]
    disabled = statistics.median(t for t, _ in samples)
    enabled = statistics.median(t for _, t in samples)
    assert disabled <= enabled * 1.10
