"""The dominance-soundness audit (RPR5xx).

Theorem 1 of the paper licenses the engine to discard a candidate set S
whenever an already-kept set D's envelope pointwise encapsulates S's over
the victim's *dominance interval* ``[t50, t50 + upper_bound]`` — any
completion of S is then dominated by the same completion of D.  The whole
top-k speedup rests on this pruning being sound, so these rules act as a
run-time sanitizer for the pruning engine: with
``TopKConfig(audit_dominance=True)`` the engine records every pruning
decision in its prune log (read as
:class:`~repro.core.engine.PruneRecord` entries, each pruned envelope
rebuilt bit-identically from its provenance), and the audit re-checks
the preconditions on the sets that were *actually* discarded:

* RPR501 — the dominator really encapsulates the pruned set inside the
  dominance interval;
* RPR502 — the dominator's score is at least as good (a pruned set that
  scored strictly better would be a direct counterexample);
* RPR503 — no candidate's noisy crossing escapes the interval's upper
  bound (the interval must contain every instant delay noise can
  materialize, or encapsulation inside it proves nothing);
* RPR504 — the audit was actually armed (an engine solved without
  instrumentation has an empty log that proves nothing).

Run via ``analyze(design, k, lint="audit")`` or directly::

    engine = TopKEngine(design, ADDITION, replace(cfg, audit_dominance=True))
    engine.solve(k)
    report = run_lint(design, engine=engine, categories=("audit",))
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..noise.envelope import ENCAPSULATION_TOL
from .framework import LintContext, Reporter, Severity, rule

#: Absolute slack (ns) granted on top of one grid step in RPR503.
_CROSSING_TOL_NS = 1e-9


@rule("RPR501", Severity.ERROR, "audit", legacy="dominance-encapsulation")
def dominance_encapsulation(ctx: LintContext, report: Reporter) -> None:
    """Every pruned candidate must be pointwise encapsulated by its
    dominator within the victim's dominance interval — the literal
    precondition of Theorem 1.  A finding here means the engine discarded
    a set it had no right to discard."""
    engine = ctx.engine
    log = engine.prune_log
    index = 0
    for batch, pruned in log.batches():
        first, index = index, index + len(batch)
        vctx = engine.contexts[batch[0].net]
        mask = vctx.interval.mask(vctx.grid)
        if not mask.any():
            continue  # degenerate interval: reduction fell back to scores
        dominators = np.array([rec.dominator.env for rec in batch])
        worst = (dominators[:, mask] - pruned[:, mask]).min(axis=1, initial=0.0)
        for j in np.flatnonzero(worst < -ENCAPSULATION_TOL).tolist():
            rec = log[first + j]
            report(
                f"victim {rec.net!r} cardinality {rec.cardinality}: set "
                f"{sorted(rec.dominated.couplings)} was pruned by "
                f"{sorted(rec.dominator.couplings)} but is not encapsulated "
                f"(worst envelope gap {float(worst[j]):.3e})",
                location=f"victim:{rec.net}",
            )


@rule("RPR502", Severity.ERROR, "audit", legacy="dominance-score-inversion")
def dominance_score_inversion(ctx: LintContext, report: Reporter) -> None:
    """A dominator's delay-noise score must be at least as good as the
    pruned set's (larger in addition mode, smaller in elimination mode);
    a strict inversion is a direct counterexample to the pruning."""
    engine = ctx.engine
    maximize = engine.mode == "addition"
    for index, rec in enumerate(engine.prune_log.summaries()):
        vctx = engine.contexts[rec.net]
        tol = vctx.grid.dt + _CROSSING_TOL_NS
        gap = (
            rec.score - rec.dominator.score
            if maximize
            else rec.dominator.score - rec.score
        )
        if gap > tol:
            pruned = engine.prune_log[index].dominated
            report(
                f"victim {rec.net!r} cardinality {rec.cardinality}: pruned "
                f"set {sorted(pruned.couplings)} scored "
                f"{rec.score:.6f} vs dominator "
                f"{rec.dominator.score:.6f} (inversion {gap:.3e} ns)",
                location=f"victim:{rec.net}",
            )


@rule("RPR503", Severity.ERROR, "audit", legacy="dominance-interval-overrun")
def dominance_interval_overrun(ctx: LintContext, report: Reporter) -> None:
    """The dominance interval's upper bound must contain every noisy
    crossing the enumeration produced: a kept or pruned candidate whose
    delay noise pushes the victim's t50 past ``interval.hi`` falsifies the
    "no alignment can push past the bound" assumption, and every pruning
    at that victim becomes suspect."""
    engine = ctx.engine
    pruned: Dict[str, List[float]] = {}
    for rec in engine.prune_log.summaries():
        pruned.setdefault(rec.net, []).append(rec.score)
    for net, vctx in engine.contexts.items():
        limit = vctx.interval.hi - vctx.t50
        tol = vctx.grid.dt + _CROSSING_TOL_NS
        scores = [cand.score for ilist in vctx.ilists.values() for cand in ilist]
        scores += pruned.get(net, [])
        worst = None
        for score in scores:
            noise = score if engine.mode == "addition" else vctx.shift_tot
            if noise > limit + tol and (worst is None or noise > worst):
                worst = noise
        if worst is not None:
            report(
                f"victim {net!r}: observed delay noise {worst:.6f} ns "
                f"exceeds the dominance-interval upper bound "
                f"{limit:.6f} ns",
                location=f"victim:{net}",
            )


@rule("RPR504", Severity.ERROR, "audit", legacy="audit-not-armed")
def audit_not_armed(ctx: LintContext, report: Reporter) -> None:
    """The audit only means something when the engine recorded its pruning
    decisions: auditing an engine solved without
    ``TopKConfig(audit_dominance=True)`` silently checks an empty log."""
    engine = ctx.engine
    if not (engine.config.audit_dominance or engine.config.certify):
        report(
            "engine was solved without audit_dominance=True (or "
            "certify=True); the prune log is empty and the dominance "
            "audit is vacuous"
        )
    elif engine.stats.dominated != len(engine.prune_log):
        report(
            f"prune log holds {len(engine.prune_log)} record(s) but the "
            f"engine counted {engine.stats.dominated} pruned candidate(s); "
            "instrumentation is out of sync"
        )
