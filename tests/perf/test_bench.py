"""BENCH_topk.json schema round-trip and the regression-gate logic."""

from __future__ import annotations

import copy

import pytest

from repro.perf.bench import (
    BENCH_SCHEMA,
    BenchCircuit,
    BenchReport,
    compare,
    main,
    run_bench,
)


def _circuit(**overrides):
    base = dict(
        name="i1",
        mode="addition",
        k=5,
        serial_s=1.0,
        estimated_delay=2.5,
        couplings=[0, 3, 7],
        candidates=120,
        dominated=40,
        cache_rates={"ho": 0.5},
    )
    base.update(overrides)
    return BenchCircuit(**base)


def _report(circuits):
    return BenchReport(
        schema=BENCH_SCHEMA,
        quick=True,
        k=5,
        host={"cpus": 1},
        generated_at="2026-01-01T00:00:00Z",
        circuits=circuits,
    )


class TestSchema:
    def test_round_trip(self, tmp_path):
        report = _report([_circuit(), _circuit(mode="elimination")])
        path = str(tmp_path / "bench.json")
        report.save(path)
        loaded = BenchReport.load(path)
        assert loaded.to_json() == report.to_json()
        assert loaded.circuits[0] == report.circuits[0]

    def test_from_json_ignores_unknown_fields(self):
        data = _report([_circuit()]).to_json()
        data["future_field"] = "x"
        data["circuits"][0]["future_field"] = "y"
        loaded = BenchReport.from_json(data)
        assert loaded.circuits[0].name == "i1"

    def test_by_key(self):
        report = _report([_circuit(), _circuit(name="i2")])
        keys = set(report.by_key())
        assert keys == {("i1", "addition"), ("i2", "addition")}


class TestGate:
    def test_identical_reports_pass(self):
        base = _report([_circuit()])
        assert compare(base, copy.deepcopy(base), log=lambda *_: None) == []

    def test_missing_entry_fails(self):
        base = _report([_circuit(), _circuit(name="i2")])
        fresh = _report([_circuit()])
        failures = compare(base, fresh, log=lambda *_: None)
        assert any("missing" in f for f in failures)

    def test_changed_solution_fails(self):
        base = _report([_circuit()])
        fresh = _report([_circuit(couplings=[0, 3, 9])])
        failures = compare(base, fresh, log=lambda *_: None)
        assert any("solution changed" in f for f in failures)

    def test_changed_delay_fails(self):
        base = _report([_circuit()])
        fresh = _report([_circuit(estimated_delay=2.6)])
        failures = compare(base, fresh, log=lambda *_: None)
        assert any("delay changed" in f for f in failures)

    def test_changed_counters_fail(self):
        base = _report([_circuit()])
        fresh = _report([_circuit(dominated=41)])
        failures = compare(base, fresh, log=lambda *_: None)
        assert any("counters changed" in f for f in failures)

    def test_k_mismatch_fails(self):
        base = _report([_circuit()])
        fresh = _report([_circuit(k=3)])
        failures = compare(base, fresh, log=lambda *_: None)
        assert failures == [
            "i1/addition: k=3 run cannot be gated against the k=5 baseline"
        ]

    def test_time_regression_fails_and_gate_is_tunable(self):
        base = _report([_circuit(serial_s=1.0)])
        fresh = _report([_circuit(serial_s=1.2)])
        failures = compare(base, fresh, gate_pct=15.0, log=lambda *_: None)
        assert any("exceeds" in f for f in failures)
        assert compare(base, fresh, gate_pct=25.0, log=lambda *_: None) == []

    def test_gate_pct_env_override(self, monkeypatch):
        base = _report([_circuit(serial_s=1.0)])
        fresh = _report([_circuit(serial_s=1.2)])
        monkeypatch.setenv("REPRO_BENCH_GATE_PCT", "30")
        assert compare(base, fresh, log=lambda *_: None) == []
        monkeypatch.setenv("REPRO_BENCH_GATE_PCT", "10")
        assert compare(base, fresh, log=lambda *_: None) != []


@pytest.mark.bench
class TestRealRun:
    def test_quick_bench_self_gates(self, tmp_path):
        """A real quick run round-trips and passes its own gate."""
        report = run_bench(("i1",), k=3, log=lambda *_: None)
        assert len(report.circuits) == 2
        for entry in report.circuits:
            assert entry.serial_s > 0
            assert entry.candidates > 0
        path = str(tmp_path / "bench.json")
        report.save(path)
        assert compare(BenchReport.load(path), report, log=lambda *_: None) == []

    def test_cli_writes_report_and_checks(self, tmp_path):
        out = str(tmp_path / "fresh.json")
        rc = main(["--quick", "--k", "2", "--output", out])
        assert rc == 0
        loaded = BenchReport.load(out)
        assert loaded.schema == BENCH_SCHEMA
        rc = main(
            ["--quick", "--k", "2", "--output", out,
             "--check", out, "--gate-pct", "1000"]
        )
        assert rc == 0
