"""One-call facade over the library.

Most users need three verbs: build a design, ask for a top-k set, and
evaluate a what-if circuit delay.  Everything here is a thin composition
of the subpackages; power users can reach down to
:class:`~repro.core.engine.TopKEngine` directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, FrozenSet, Optional, Union

from .circuit.design import Design
from .core.engine import ADDITION, ELIMINATION, TopKConfig, TopKEngine, TopKError
from .core.report import TopKResult
from .core.topk_addition import top_k_addition_set
from .core.topk_elimination import top_k_elimination_set
from .noise.analysis import NoiseConfig, analyze_noise
from .perf.memo import EnvelopeMemo
from .runtime.budget import ON_BUDGET_MODES, RunBudget
from .timing.sta import run_sta

#: Public alias — the facade's configuration is the solver configuration.
AnalysisConfig = TopKConfig

#: Accepted values of ``analyze``'s ``lint`` parameter.
_LINT_MODES = (None, False, True, "preflight", "semantic", "audit")


def analyze(
    design: Design,
    k: int,
    mode: str = ADDITION,
    config: Optional[AnalysisConfig] = None,
    lint: Union[None, bool, str] = None,
    certify: bool = False,
    deadline_s: Optional[float] = None,
    on_budget: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    max_candidates: Optional[int] = None,
    convergence_retries: Optional[int] = None,
    trace: Union[None, bool, str] = None,
    memo: Optional[EnvelopeMemo] = None,
    cancel_check: Optional[Callable[[], bool]] = None,
) -> TopKResult:
    """Compute the top-k aggressor set of either flavor.

    Parameters
    ----------
    design, k, mode, config:
        As before — the design, the set-size budget, ``"addition"`` or
        ``"elimination"``, and the solver knobs.
    deadline_s, on_budget, checkpoint_path, max_candidates, convergence_retries:
        Resilience shortcuts (see ``docs/robustness.md``): each non-None
        value is folded into the config's
        :class:`~repro.runtime.budget.RunBudget`.  ``deadline_s`` bounds
        the wall clock; ``on_budget`` picks ``"raise"`` or ``"degrade"``
        (the default) when a cap is hit; ``checkpoint_path`` enables
        snapshot/resume (an existing compatible snapshot is resumed
        transparently); ``max_candidates`` caps the enumeration;
        ``convergence_retries`` arms retry-with-escalating-damping for
        the noise fixpoint.
    lint:
        Optional correctness tooling (see :mod:`repro.lint`):

        * ``None`` / ``False`` — off (the default);
        * ``"preflight"`` / ``True`` — run the static lint rules against
          the design and this configuration first; ERROR findings raise
          :class:`~repro.lint.framework.LintError` instead of surfacing
          later as deep solver stack traces;
        * ``"semantic"`` — preflight (which now includes the RPR7xx
          semantic tier) **plus** fact-driven pruning: the whole-design
          dataflow pass (:mod:`repro.analysis`) computes dead-aggressor
          proofs and the engine pre-prunes its primary sweep with them —
          bit-identical results, one certificate witness per skip
          (``result.stats.semantic_skips``);
        * ``"audit"`` — preflight **plus** the Theorem-1 dominance audit:
          the engine records every pruning decision and the audit
          re-checks the dominance preconditions on the sets it actually
          discarded, raising on any violation.

        With lint enabled the findings are attached to the result as
        ``result.lint_report``.
    certify:
        Emit a proof-carrying certificate for the solve and validate it
        with the independent checker before returning (see
        ``docs/verification.md``).  The certificate is attached as
        ``result.certificate``; a rejected certificate raises
        :class:`~repro.runtime.errors.CertificateError` with the
        checker's pinpointed findings.
    trace:
        Record a span trace of the solve (see ``docs/observability.md``):

        * ``None`` / ``False`` — off (the default, zero-cost);
        * ``True`` — record, attaching the
          :class:`~repro.obs.Trace` as ``result.trace``;
        * a path string — record *and* save to that file on the way out
          (``.jsonl`` → JSON-lines, anything else → Chrome trace_event,
          loadable at ``ui.perfetto.dev``).
    memo:
        A warm :class:`~repro.perf.memo.EnvelopeMemo` to seed the
        engine with (the analysis service thaws one from its
        persistent store).  Memo entries are pure functions of their
        keys, so a warm start is bit-identical to a cold one — only
        faster.
    cancel_check:
        Cooperative cancel flag, folded into the budget (see
        :class:`~repro.runtime.budget.RunBudget`): polled at the
        solver's cancellation checkpoints; when it returns True the
        solve halts with reason ``"cancelled"`` (degrade mode) or
        raises (raise mode).  Combine with ``checkpoint_path`` to make
        a cancelled job resumable from its last cardinality boundary.

    >>> from repro import make_paper_benchmark, analyze
    >>> result = analyze(make_paper_benchmark("i1"), k=3)
    >>> result.effective_k <= 3
    True
    """
    if mode not in (ADDITION, ELIMINATION):
        raise TopKError(
            f"mode must be {ADDITION!r} or {ELIMINATION!r}, got {mode!r}"
        )
    if lint not in _LINT_MODES:
        raise TopKError(
            f"lint must be one of {_LINT_MODES}, got {lint!r}"
        )
    if on_budget is not None and on_budget not in ON_BUDGET_MODES:
        raise TopKError(
            f"on_budget must be one of {ON_BUDGET_MODES}, got {on_budget!r}"
        )
    overrides = {
        key: value
        for key, value in (
            ("deadline_s", deadline_s),
            ("on_budget", on_budget),
            ("checkpoint_path", checkpoint_path),
            ("max_candidates", max_candidates),
            ("convergence_retries", convergence_retries),
            ("cancel_check", cancel_check),
        )
        if value is not None
    }
    if overrides:
        base_cfg = config if config is not None else AnalysisConfig()
        base_budget = base_cfg.budget if base_cfg.budget is not None else RunBudget()
        config = replace(base_cfg, budget=replace(base_budget, **overrides))
    if certify:
        base_cfg = config if config is not None else AnalysisConfig()
        if not base_cfg.certify:
            config = replace(base_cfg, certify=True)
    if trace:
        base_cfg = config if config is not None else AnalysisConfig()
        if not base_cfg.trace:
            config = replace(base_cfg, trace=True)
    solver = top_k_addition_set if mode == ADDITION else top_k_elimination_set
    if lint in (None, False):
        if memo is not None:
            cfg = config if config is not None else AnalysisConfig()
            engine = TopKEngine(design, mode, cfg, memo=memo)
            try:
                return _checked(
                    solver(design, k, cfg, engine=engine), design, certify, trace
                )
            finally:
                engine.close()
        return _checked(solver(design, k, config), design, certify, trace)

    from .lint import LintConfig, assert_clean, run_lint

    cfg = config if config is not None else AnalysisConfig()
    report = run_lint(
        design,
        analysis_config=cfg,
        k=k,
        config=LintConfig(),
    )
    assert_clean(report)
    if lint == "semantic":
        from .analysis import compute_semantic_facts

        facts = compute_semantic_facts(design, mode=mode, config=cfg)
        engine = TopKEngine(design, mode, cfg, memo=memo, facts=facts)
        result = _checked(
            solver(design, k, cfg, engine=engine), design, certify, trace
        )
        return replace(result, lint_report=report)

    if lint != "audit":
        if memo is not None:
            engine = TopKEngine(design, mode, cfg, memo=memo)
            try:
                result = _checked(
                    solver(design, k, cfg, engine=engine), design, certify, trace
                )
            finally:
                engine.close()
        else:
            result = _checked(solver(design, k, cfg), design, certify, trace)
        return replace(result, lint_report=report)

    audit_cfg = replace(cfg, audit_dominance=True)
    engine = TopKEngine(design, mode, audit_cfg, memo=memo)
    result = _checked(
        solver(design, k, audit_cfg, engine=engine), design, certify, trace
    )
    audit_report = run_lint(design, engine=engine, categories=("audit",))
    report = report.merged_with(audit_report)
    assert_clean(audit_report)
    return replace(result, lint_report=report)


def _checked(
    result: TopKResult,
    design: Design,
    certify: bool,
    trace: Union[None, bool, str] = None,
) -> TopKResult:
    """Validate the attached certificate with the independent checker,
    then write the trace out if ``trace`` named a file."""
    if certify and result.certificate is not None:
        from .obs.tracer import activate as _obs_activate
        from .runtime.errors import CertificateError
        from .verify import check_certificate

        tracer = result.trace.tracer if result.trace is not None else None
        with _obs_activate(tracer):
            report = check_certificate(result.certificate, design=design)
        if not report.ok:
            raise CertificateError(
                f"the solve's certificate was rejected: {report.summary()}",
                findings=[str(f) for f in report.errors],
                phase="certify",
            )
    if isinstance(trace, str) and result.trace is not None:
        result.trace.save(trace)
    return result


def circuit_delay(
    design: Design,
    aggressors: Union[str, FrozenSet[int]] = "all",
    noise_config: Optional[NoiseConfig] = None,
) -> float:
    """Circuit delay (ns) under a chosen aggressor population.

    Parameters
    ----------
    design:
        The design to time.
    aggressors:
        ``"all"`` — full iterative noise analysis;
        ``"none"`` — noiseless STA;
        a frozenset of coupling ids — noise analysis restricted to those
        couplings (the addition-set what-if).
    noise_config:
        Iteration knobs for the noisy cases.
    """
    if isinstance(aggressors, str):
        if aggressors == "none":
            return run_sta(design.netlist).circuit_delay()
        if aggressors == "all":
            cfg = noise_config if noise_config is not None else NoiseConfig()
            return analyze_noise(design, config=cfg).circuit_delay()
        raise ValueError(
            f"aggressors must be 'all', 'none' or a set of ids, "
            f"got {aggressors!r}"
        )
    cfg = noise_config if noise_config is not None else NoiseConfig()
    view = design.coupling.restricted(frozenset(aggressors))
    return analyze_noise(design, coupling=view, config=cfg).circuit_delay()
