"""The rule framework itself: registry, severities, suppression, reports."""

import re

import pytest

from repro.lint import (
    CATEGORIES,
    LintConfig,
    LintError,
    LintReport,
    RULE_REGISTRY,
    RuleDefinitionError,
    Severity,
    all_rules,
    assert_clean,
    rule,
    run_lint,
)
from repro.lint.framework import Finding

from .conftest import clean_design, clean_netlist, codes


class TestRegistry:
    def test_codes_unique_and_wellformed(self):
        # The registry maps code -> rule, so uniqueness is structural; what
        # can drift is a rule registered under a code that disagrees with
        # its own `code` attribute, or a malformed code slipping past.
        assert RULE_REGISTRY  # the built-in catalog is loaded
        for code, rule_ in RULE_REGISTRY.items():
            assert re.fullmatch(r"RPR\d{3}", code)
            assert rule_.code == code
            assert rule_.category in CATEGORIES

    def test_every_rule_has_docstring(self):
        for rule_ in all_rules():
            assert rule_.doc.strip(), f"rule {rule_.code} has no catalog entry"

    def test_all_rules_in_code_order(self):
        listed = [r.code for r in all_rules()]
        assert listed == sorted(listed)

    def test_every_category_populated(self):
        present = {r.category for r in all_rules()}
        assert present == set(CATEGORIES)


class TestDecorator:
    def test_rejects_bad_code(self):
        with pytest.raises(RuleDefinitionError, match="RPR"):

            @rule("XYZ1", Severity.ERROR, "netlist")
            def bad(ctx, report):
                """Doc."""

    def test_rejects_duplicate_code(self):
        with pytest.raises(RuleDefinitionError, match="duplicate"):

            @rule("RPR101", Severity.ERROR, "netlist")
            def dup(ctx, report):
                """Doc."""

    def test_rejects_duplicate_rule_name(self):
        # RPR101's derived name is "undriven-net"; a second rule whose
        # function name collides must be refused even under a fresh code.
        with pytest.raises(RuleDefinitionError, match="duplicate rule name"):

            @rule("RPR995", Severity.ERROR, "netlist")
            def undriven_net(ctx, report):
                """Doc."""

    def test_rejects_unknown_category(self):
        with pytest.raises(RuleDefinitionError, match="category"):

            @rule("RPR998", Severity.ERROR, "cosmic")
            def bad_cat(ctx, report):
                """Doc."""

    def test_rejects_missing_docstring(self):
        with pytest.raises(RuleDefinitionError, match="docstring"):

            @rule("RPR997", Severity.ERROR, "netlist")
            def undocumented(ctx, report):
                pass

    def test_crashing_rule_becomes_error_finding(self, netlist):
        @rule("RPR999", Severity.WARNING, "netlist")
        def explosive(ctx, report):
            """Always crashes (test rule)."""
            raise RuntimeError("boom")

        try:
            report = run_lint(netlist)
            crash = [f for f in report.findings if f.code == "RPR999"]
            assert len(crash) == 1
            assert crash[0].severity is Severity.ERROR
            assert "crashed" in crash[0].message and "boom" in crash[0].message
        finally:
            del RULE_REGISTRY["RPR999"]


class TestSeverity:
    def test_ladder(self):
        assert Severity.INFO.rank < Severity.WARNING.rank < Severity.ERROR.rank
        assert Severity.ERROR.at_least(Severity.WARNING)
        assert not Severity.INFO.at_least(Severity.WARNING)


class TestSuppression:
    def _dirty(self):
        nl = clean_netlist()
        nl.add_net("floating")
        return nl

    def test_exact_code(self):
        report = run_lint(self._dirty(), config=LintConfig(disabled=frozenset({"RPR101"})))
        assert "RPR101" not in codes(report)
        assert report.suppressed >= 1

    def test_glob(self):
        report = run_lint(self._dirty(), config=LintConfig(disabled=frozenset({"RPR1*"})))
        assert not any(c.startswith("RPR1") for c in codes(report))

    def test_category(self):
        report = run_lint(self._dirty(), config=LintConfig(disabled=frozenset({"netlist"})))
        assert not any(f.category == "netlist" for f in report.findings)


class TestReport:
    def test_merge_and_summary(self):
        f = Finding("RPR101", Severity.ERROR, "netlist", "msg", design="d")
        a = LintReport(findings=[f], design_name="d")
        b = LintReport(findings=[], design_name="d", suppressed=2)
        merged = a.merged_with(b)
        assert len(merged.findings) == 1
        assert merged.suppressed == 2
        assert "1 error(s)" in merged.summary()
        assert "(2 suppressed)" in merged.summary()

    def test_has_failures_thresholds(self):
        warn = Finding("RPR102", Severity.WARNING, "netlist", "msg")
        report = LintReport(findings=[warn])
        assert not report.has_failures(Severity.ERROR)
        assert report.has_failures(Severity.WARNING)
        assert not report.has_failures(None)

    def test_assert_clean(self):
        err = Finding("RPR101", Severity.ERROR, "netlist", "msg", design="d")
        with pytest.raises(LintError, match="RPR101"):
            assert_clean(LintReport(findings=[err], design_name="d"))
        assert_clean(LintReport(findings=[]))  # does not raise

    def test_fingerprint_excludes_message(self):
        a = Finding("RPR101", Severity.ERROR, "netlist", "one", location="net:x", design="d")
        b = Finding("RPR101", Severity.ERROR, "netlist", "two", location="net:x", design="d")
        assert a.fingerprint() == b.fingerprint()


class TestRunLint:
    def test_bare_netlist_runs_structure_only(self, netlist):
        report = run_lint(netlist)
        assert all(f.category == "netlist" for f in report.findings)

    def test_design_enables_coupling_rules(self):
        report = run_lint(clean_design())
        # Clean structurally, but the hand-built design has no wire RC:
        assert "RPR206" in codes(report)

    def test_categories_filter(self):
        report = run_lint(clean_design(), categories=("netlist",))
        assert "RPR206" not in codes(report)


class TestSemanticContext:
    """The LintContext's cached graph/semantic/wave-audit views."""

    def test_graph_and_topo_order_cached(self):
        from repro.lint.framework import LintContext

        design = clean_design()
        ctx = LintContext(netlist=design.netlist, design=design)
        assert ctx.graph is ctx.graph
        assert ctx.topo_order == ctx.graph.topo_order

    def test_semantic_memoized(self):
        from repro.lint.framework import LintContext

        design = clean_design()
        ctx = LintContext(netlist=design.netlist, design=design)
        assert ctx.semantic is ctx.semantic

    def test_broken_structure_yields_none_not_a_crash(self, netlist):
        from repro.lint.framework import LintContext

        netlist.add_net("floating")  # undriven: no topological order
        ctx = LintContext(netlist=netlist)
        assert ctx.graph is None
        assert ctx.topo_order is None
        assert ctx.sta is None
        assert ctx.semantic is None

    def test_crashing_semantic_rule_is_contained(self):
        design = clean_design()

        @rule("RPR798", Severity.WARNING, "semantic")
        def semantic_explosive(ctx, report):
            """Always crashes (test rule)."""
            raise RuntimeError("semantic boom")

        try:
            report = run_lint(design)
            crash = [f for f in report.findings if f.code == "RPR798"]
            assert len(crash) == 1
            assert crash[0].severity is Severity.ERROR
            assert "semantic boom" in crash[0].message
            # The crash must not poison the other semantic rules.
            assert "RPR701" not in {f.code for f in report.findings if f.severity is Severity.ERROR}
        finally:
            del RULE_REGISTRY["RPR798"]

    def test_semantic_category_needs_a_design(self):
        from repro.lint.framework import LintContext, RULE_REGISTRY

        netlist_only = LintContext(netlist=clean_design().netlist)
        with_design = LintContext(
            netlist=clean_design().netlist, design=clean_design()
        )
        semantic = [r for r in RULE_REGISTRY.values() if r.category == "semantic"]
        assert semantic
        for r in semantic:
            assert not r.applicable(netlist_only)
            assert r.applicable(with_design)
