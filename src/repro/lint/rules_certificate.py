"""Certificate re-validation rules (RPR6xx).

These rules surface the independent certificate checker
(:func:`repro.verify.check_certificate`) through the lint framework, so
``repro-certify`` gets text/JSON/SARIF output, suppression, and baseline
handling for free.  Each rule owns one family of checker findings; the
checker runs once per lint invocation (memoized on the context), and
every finding keeps the checker's pinpointed location (net/prune record,
fixpoint label, delay name).

The split mirrors the certificate's proof obligations:

* RPR601 — the payload itself is well-formed (format version, internal
  structure);
* RPR602 — every recorded prune witness satisfies Theorem 1 (pointwise
  encapsulation, score order, independent score recomputation);
* RPR603 — frontier invariants hold at each cardinality boundary;
* RPR604 — the noise fixpoint's trace is self-consistent and stays
  inside the interval domain's lattice;
* RPR605 — every reported delay falls inside the static [min, max]
  bound (and, when the design is at hand, the bound itself recomputes);
* RPR606 — (warning) the proof has known blind spots: sampled
  witnesses, a resumed run, or a degraded solve;
* RPR607 — (info) the certificate was emitted by a different library
  version than the one validating it.
"""

from __future__ import annotations

from .framework import LintContext, Reporter, Severity, rule

#: checker-finding kind -> owning rule code.
_KIND_TO_RULE = {
    "format-version": "RPR601",
    "structure": "RPR601",
    "prune-encapsulation": "RPR602",
    "prune-score-order": "RPR602",
    "prune-score-recompute": "RPR602",
    "frontier-order": "RPR603",
    "frontier-witness": "RPR603",
    "frontier-best": "RPR603",
    "prune-count": "RPR603",
    "fixpoint-delta": "RPR604",
    "fixpoint-convergence": "RPR604",
    "fixpoint-bound": "RPR604",
    "interval-containment": "RPR605",
    "interval-recompute": "RPR605",
    "design-mismatch": "RPR605",
    "coverage": "RPR606",
}


def _relay(ctx: LintContext, report: Reporter, code: str) -> None:
    """Re-emit the checker findings owned by ``code`` through ``report``."""
    check = ctx.check_report
    if check is None:  # pragma: no cover - guarded by applicability
        return
    for finding in check.findings:
        if _KIND_TO_RULE.get(finding.kind) != code:
            continue
        severity = (
            Severity.WARNING if finding.severity == "warning" else None
        )
        report(
            f"{finding.kind}: {finding.message}",
            location=finding.location,
            severity=severity,
        )


@rule("RPR601", Severity.ERROR, "certificate")
def certificate_malformed(ctx: LintContext, report: Reporter) -> None:
    """The certificate payload must be the format version this library
    validates and internally consistent (witnesses reference recorded
    victim contexts, coverage counters match the payload).  A finding
    here means nothing else in the certificate can be trusted."""
    _relay(ctx, report, "RPR601")


@rule("RPR602", Severity.ERROR, "certificate")
def certificate_witness_invalid(ctx: LintContext, report: Reporter) -> None:
    """Every recorded prune witness must satisfy Theorem 1 when re-checked
    from scratch: the dominator pointwise encapsulates the pruned
    envelope over the dominance interval, scores are ordered the right
    way, and both recorded scores agree with an independent
    recomputation from the envelopes.  A finding pinpoints the exact
    net/prune record whose pruning is unproven."""
    _relay(ctx, report, "RPR602")


@rule("RPR603", Severity.ERROR, "certificate")
def certificate_frontier_invalid(ctx: LintContext, report: Reporter) -> None:
    """Frontier invariants must hold at each cardinality boundary: lists
    sorted best-first, each witness's dominator surviving into its
    frontier, the reported per-cardinality best matching the sink
    frontier, and per-victim prune counts summing to the engine's
    dominated counter."""
    _relay(ctx, report, "RPR603")


@rule("RPR604", Severity.ERROR, "certificate")
def certificate_fixpoint_invalid(ctx: LintContext, report: Reporter) -> None:
    """The noise fixpoint's recorded trace must be self-consistent: every
    ``delta_history`` entry recomputes from consecutive iterates, a
    convergence claim implies the final delta is within tolerance, and
    every iterate stays below the interval domain's per-net noise bound
    (lattice containment)."""
    _relay(ctx, report, "RPR604")


@rule("RPR605", Severity.ERROR, "certificate")
def certificate_bounds_violated(ctx: LintContext, report: Reporter) -> None:
    """Every delay the solve reported (nominal, estimated, oracle,
    all-aggressor, per-fixpoint) must fall inside the interval abstract
    domain's static circuit bound; with the design at hand the recorded
    bound must also match a fresh recomputation."""
    _relay(ctx, report, "RPR605")


@rule("RPR606", Severity.WARNING, "certificate")
def certificate_coverage_gap(ctx: LintContext, report: Reporter) -> None:
    """The proof has a known blind spot: envelope witnesses were sampled
    down (``certify_witnesses``), the solve resumed from a checkpoint
    (pre-resume prunes have no witnesses), or it degraded under budget
    pressure (frontier checks were softened)."""
    _relay(ctx, report, "RPR606")


@rule("RPR607", Severity.INFO, "certificate")
def certificate_stale_tool(ctx: LintContext, report: Reporter) -> None:
    """The certificate was emitted by a different library version than
    the one validating it; the format version still gates compatibility,
    but cross-version validation is worth knowing about."""
    from .. import __version__

    cert = ctx.certificate
    if cert.tool_version and cert.tool_version != __version__:
        report(
            f"certificate was emitted by version {cert.tool_version} "
            f"but is being validated by {__version__}"
        )
