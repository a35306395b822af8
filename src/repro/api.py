"""One-call facade over the library.

Most users need three verbs: build a design, ask for a top-k set, and
evaluate a what-if circuit delay.  Everything here is a thin composition
of the subpackages; power users can reach down to
:class:`~repro.core.engine.TopKEngine` directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import FrozenSet, Optional, Union

from .circuit.design import Design
from .core.engine import ADDITION, ELIMINATION, TopKConfig, TopKEngine, TopKError
from .core.report import TopKResult
from .core.topk import top_k_set
from .noise.analysis import NoiseConfig, analyze_noise
from .perf.memo import EnvelopeMemo
from .timing.sta import run_sta

#: Public alias — the facade's configuration is the solver configuration.
AnalysisConfig = TopKConfig

#: Accepted values of ``analyze``'s ``lint`` parameter.
_LINT_MODES = (None, False, True, "preflight", "audit")


def analyze(
    design: Design,
    k: int,
    mode: str = ADDITION,
    config: Optional[AnalysisConfig] = None,
    lint: Union[None, bool, str] = None,
    certify: bool = False,
    trace: Union[None, bool, str] = None,
    memo: Optional[EnvelopeMemo] = None,
) -> TopKResult:
    """Compute the top-k aggressor set of either flavor.

    Parameters
    ----------
    design, k, mode, config:
        The design, the set-size budget, ``"addition"`` or
        ``"elimination"``, and the solver knobs.  The config is the one
        place knobs live: a deadline, a candidate cap, checkpointing,
        convergence retries or a cancel flag ride in
        ``config=AnalysisConfig(budget=RunBudget(...))`` (see
        ``docs/robustness.md``).
    lint:
        Optional correctness tooling (see :mod:`repro.lint`):

        * ``None`` / ``False`` — off (the default);
        * ``"preflight"`` / ``True`` — run the static lint rules (the
          RPR7xx semantic tier included) against the design and this
          configuration first; ERROR findings raise
          :class:`~repro.lint.framework.LintError` instead of surfacing
          later as deep solver stack traces;
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
    cfg = config if config is not None else AnalysisConfig()
    if certify and not cfg.certify:
        cfg = replace(cfg, certify=True)
    if trace and not cfg.trace:
        cfg = replace(cfg, trace=True)
    report = audit = None
    if lint not in (None, False):
        from .lint import assert_clean, run_lint

        report = run_lint(design, analysis_config=cfg, k=k)
        assert_clean(report)
        if lint == "audit":
            cfg = replace(cfg, audit_dominance=True)
    with TopKEngine(design, mode, cfg, memo=memo) as engine:
        result = top_k_set(design, k, mode, engine=engine)
        if lint == "audit":
            audit = run_lint(design, engine=engine, categories=("audit",))
    del engine  # the solve's memory is not needed by the certificate check
    result = _checked(result, design, certify, trace)
    if report is None:
        return result
    if audit is not None:
        report = report.merged_with(audit)
        assert_clean(audit)
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
