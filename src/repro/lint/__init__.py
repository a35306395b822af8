"""repro.lint — extensible static analysis for designs and analyses.

The paper's speedup rests on static preconditions (clean combinational
topology, positive coupling caps, Theorem 1's dominance-interval
assumptions); this subpackage turns violations into actionable findings
instead of deep stack traces or silently wrong top-k sets.

* :mod:`~repro.lint.framework` — the ``@rule`` registry, severities,
  contexts, :func:`run_lint`.
* :mod:`~repro.lint.rules_netlist` / :mod:`~repro.lint.rules_coupling` /
  :mod:`~repro.lint.rules_timing` / :mod:`~repro.lint.rules_config` —
  the static rule catalog (RPR1xx-RPR4xx).
* :mod:`~repro.lint.audit` — the Theorem-1 dominance-soundness audit
  (RPR5xx), a run-time sanitizer for the pruning engine.
* :mod:`~repro.lint.rules_certificate` — certificate re-validation
  (RPR6xx), surfacing :func:`repro.verify.check_certificate` through
  the lint reporters (see ``docs/verification.md``).
* :mod:`~repro.lint.rules_semantic` — the semantic tier (RPR7xx):
  whole-design dataflow proofs from :mod:`repro.analysis` —
  dead-aggressor certificates and bound-violation lints.
* :mod:`~repro.lint.code` — the self-hosted code tier (RPR8xx): AST +
  call-graph analysis of ``src/repro`` itself, statically guarding the
  bit-exactness contract (see ``docs/determinism.md``).
* :mod:`~repro.lint.reporters` — text / JSON / SARIF output.
* :mod:`~repro.lint.baseline` — snapshot known findings; CI fails only
  on regressions.
* :mod:`~repro.lint.cli` — the ``repro-lint`` console entry point.

Quickstart::

    from repro import make_paper_benchmark
    from repro.lint import run_lint

    report = run_lint(make_paper_benchmark("i1"))
    print(report.summary())

See ``docs/lint.md`` for the full rule catalog and workflows.
"""

from __future__ import annotations

from .framework import (
    CATEGORIES,
    Finding,
    LintConfig,
    LintContext,
    LintError,
    LintReport,
    RULE_REGISTRY,
    Rule,
    RuleDefinitionError,
    Severity,
    all_rules,
    assert_clean,
    rule,
    run_code_lint,
    run_lint,
    run_rules,
)

# Import for side effects: register the built-in rule catalog (the
# ``code`` subpackage registers the RPR8xx self-analysis tier).
from . import (  # noqa: F401,E402
    audit,
    code,
    rules_certificate,
    rules_config,
    rules_coupling,
    rules_netlist,
    rules_semantic,
    rules_timing,
)
from .baseline import Baseline, BaselineError
from .reporters import (
    render,
    render_json,
    render_sarif,
    render_text,
    rule_catalog_markdown,
)

__all__ = [
    "Baseline",
    "BaselineError",
    "CATEGORIES",
    "Finding",
    "LintConfig",
    "LintContext",
    "LintError",
    "LintReport",
    "RULE_REGISTRY",
    "Rule",
    "RuleDefinitionError",
    "Severity",
    "all_rules",
    "assert_clean",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
    "rule_catalog_markdown",
    "run_code_lint",
    "run_lint",
    "run_rules",
]
