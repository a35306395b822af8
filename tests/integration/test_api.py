"""Tests for the api facade."""

import threading

import pytest

from repro.api import AnalysisConfig, analyze, circuit_delay
from repro.core.engine import TopKConfig, TopKError


class TestAnalyze:
    def test_addition_mode(self, tiny_design):
        r = analyze(tiny_design, k=2, mode="addition")
        assert r.mode == "addition"

    def test_elimination_mode(self, tiny_design):
        r = analyze(tiny_design, k=2, mode="elimination")
        assert r.mode == "elimination"

    def test_bad_mode(self, tiny_design):
        with pytest.raises(TopKError):
            analyze(tiny_design, k=2, mode="bogus")

    def test_config_alias(self):
        assert AnalysisConfig is TopKConfig

    def test_custom_config_passes_through(self, tiny_design):
        cfg = AnalysisConfig(evaluate_with_oracle=False)
        r = analyze(tiny_design, k=2, config=cfg)
        assert r.delay is None


def _samplers():
    return {t for t in threading.enumerate() if t.name == "repro-obs-sampler"}


class TestLintModes:
    """Every lint mode solves through the same engine path as no lint."""

    @pytest.fixture(scope="class")
    def plain(self, i1_design):
        return {
            mode: analyze(i1_design, 3, mode=mode, certify=True)
            for mode in ("addition", "elimination")
        }

    @pytest.mark.parametrize("mode", ["addition", "elimination"])
    @pytest.mark.parametrize("lint", ["preflight", "semantic", "audit"])
    def test_same_answer_as_no_lint(self, i1_design, plain, lint, mode):
        r = analyze(i1_design, 3, mode=mode, lint=lint, certify=True)
        assert r.couplings == plain[mode].couplings
        assert r.estimated_delay == plain[mode].estimated_delay
        assert r.delay == plain[mode].delay
        assert r.lint_report is not None
        assert (r.stats.semantic_skips > 0) == (lint == "semantic")

    @pytest.mark.parametrize("lint", [None, "preflight", "semantic", "audit"])
    def test_engine_closed(self, tiny_design, lint):
        before = _samplers()
        analyze(tiny_design, 2, config=TopKConfig(profile=True), lint=lint)
        assert _samplers() - before == set()


class TestSemanticLintPass:
    def test_one_dataflow_pass(self, monkeypatch):
        # The preflight's semantic tier memoizes the dataflow pass on its
        # LintContext; the facts reuse it instead of running it again.
        from repro.analysis import dataflow, facts
        from repro.circuit.generator import make_paper_benchmark

        calls = []
        real = dataflow.semantic_bounds

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(dataflow, "semantic_bounds", counting)
        monkeypatch.setattr(facts, "semantic_bounds", counting)
        design = make_paper_benchmark("i3")
        result = analyze(design, 3, lint="semantic")
        assert len(calls) == 1
        assert result.stats.semantic_skips > 0
        plain = analyze(design, 3)
        assert result.couplings == plain.couplings
        assert result.estimated_delay == plain.estimated_delay


class TestCircuitDelay:
    def test_none_all_ordering(self, tiny_design):
        none = circuit_delay(tiny_design, "none")
        everything = circuit_delay(tiny_design, "all")
        assert none <= everything

    def test_subset(self, tiny_design):
        ids = frozenset(list(tiny_design.coupling.all_indices())[:3])
        mid = circuit_delay(tiny_design, ids)
        assert circuit_delay(tiny_design, "none") - 1e-9 <= mid
        assert mid <= circuit_delay(tiny_design, "all") + 1e-9

    def test_empty_subset_equals_none(self, tiny_design):
        assert circuit_delay(tiny_design, frozenset()) == pytest.approx(
            circuit_delay(tiny_design, "none")
        )

    def test_bad_keyword(self, tiny_design):
        with pytest.raises(ValueError):
            circuit_delay(tiny_design, "some")


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
