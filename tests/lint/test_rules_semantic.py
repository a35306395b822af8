"""The RPR7xx semantic tier: proofs surface, errors stay provable."""

import math

import pytest

from repro.analysis import semantic_bounds
from repro.circuit.generator import make_paper_benchmark
from repro.core.engine import TopKConfig
from repro.lint import LintContext, RULE_REGISTRY, Severity, run_lint
from repro.runtime.budget import RunBudget

from .conftest import clean_design, codes


def run_rule(code, ctx):
    """Invoke one registered rule directly, capturing its findings."""
    found = []

    def reporter(message, location="", severity=None):
        found.append((message, location, severity))

    RULE_REGISTRY[code].check(ctx, reporter)
    return found


@pytest.fixture(scope="module")
def i3():
    return make_paper_benchmark("i3")


@pytest.fixture(scope="module")
def i3_report(i3):
    return run_lint(i3, analysis_config=TopKConfig())


class TestTierWiring:
    def test_semantic_rules_registered(self):
        for code in ("RPR701", "RPR702", "RPR703", "RPR704", "RPR705"):
            assert code in RULE_REGISTRY
            assert RULE_REGISTRY[code].category == "semantic"
        assert "RPR706" not in RULE_REGISTRY

    def test_silent_on_bare_netlist(self, netlist):
        report = run_lint(netlist)
        assert not any(c.startswith("RPR7") for c in codes(report))

    def test_benchmark_stays_error_clean(self, i3_report):
        errors = [
            f for f in i3_report.findings if f.severity is Severity.ERROR
        ]
        assert not errors, [str(f) for f in errors]


class TestDeadAggressorRule:
    def test_reports_couplings_dead_in_both_directions(self, i3, i3_report):
        found = [f for f in i3_report.findings if f.code == "RPR701"]
        assert found, "i3 has couplings that are provably dead both ways"
        bounds = semantic_bounds(i3)
        for f in found:
            assert f.severity is Severity.INFO
            idx = int(f.location.split(":")[1])
            assert not bounds.active[(idx, i3.coupling.by_index(idx).net_a)]
            assert not bounds.active[(idx, i3.coupling.by_index(idx).net_b)]

    def test_single_dead_direction_not_reported(self, i3, i3_report):
        bounds = semantic_bounds(i3)
        reported = {
            int(f.location.split(":")[1])
            for f in i3_report.findings
            if f.code == "RPR701"
        }
        half_dead = {
            idx
            for (idx, _), alive in bounds.active.items()
            if not alive
        } - reported
        for idx in half_dead:
            cc = i3.coupling.by_index(idx)
            assert (
                bounds.active[(idx, cc.net_a)]
                or bounds.active[(idx, cc.net_b)]
            )


class TestBudgetOverrunRule:
    def test_fires_when_cap_provably_too_small(self, i3):
        cfg = TopKConfig(budget=RunBudget(max_candidates=1))
        report = run_lint(i3, analysis_config=cfg)
        found = [f for f in report.findings if f.code == "RPR703"]
        assert len(found) == 1
        assert "provably insufficient" in found[0].message

    def test_silent_without_a_budget(self, i3_report):
        assert "RPR703" not in codes(i3_report)

    def test_silent_when_cap_is_generous(self, i3):
        cfg = TopKConfig(budget=RunBudget(max_candidates=10_000))
        report = run_lint(i3, analysis_config=cfg)
        assert "RPR703" not in codes(report)


class TestNonfinitePulseRule:
    def test_nan_coupling_cap_is_an_error(self):
        design = clean_design()
        cc = next(iter(design.coupling))
        object.__setattr__(cc, "cap", float("nan"))
        report = run_lint(design)
        found = [f for f in report.findings if f.code == "RPR704"]
        assert found and all(f.severity is Severity.ERROR for f in found)
        assert "coupling_cap" in found[0].message

    def test_infinite_wire_cap_is_an_error(self):
        design = clean_design()
        design.netlist.net("y").wire_cap = math.inf
        report = run_lint(design)
        found = [f for f in report.findings if f.code == "RPR704"]
        assert found
        assert any("ground_cap" in f.message for f in found)

    def test_clean_design_is_silent(self, design):
        assert "RPR704" not in codes(run_lint(design))


class TestHorizonRule:
    def test_fires_on_forged_overflow(self, i3):
        ctx = LintContext(netlist=i3.netlist, design=i3)
        bounds = semantic_bounds(i3)
        victim = i3.netlist.primary_outputs[0]
        bounds.per_net[victim] = type(bounds.per_net[victim])(
            bounds.per_net[victim].lo, 1e9
        )
        ctx._semantic = bounds
        found = run_rule("RPR705", ctx)
        assert found and f"net {victim!r}" in found[0][0]
        assert "horizon" in found[0][0]

    def test_silent_on_benchmark(self, i3_report):
        assert "RPR705" not in codes(i3_report)


class TestRampTopRule:
    def test_fires_when_domain_tops_out(self, i3):
        ctx = LintContext(netlist=i3.netlist, design=i3)
        bounds = semantic_bounds(i3)
        net = next(iter(bounds.noise))
        bounds.noise[net] = type(bounds.noise[net])(0.0, math.inf)
        ctx._semantic = bounds
        found = run_rule("RPR702", ctx)
        assert found and "ramp" in found[0][0]

    def test_silent_on_benchmark(self, i3_report):
        assert "RPR702" not in codes(i3_report)

