"""Analysis-configuration rules (RPR4xx).

Active only when the caller hands :func:`~repro.lint.framework.run_lint`
the :class:`~repro.core.engine.TopKConfig` (and optionally ``k``) about to
drive a solve — the preflight behind ``analyze(..., lint="preflight")``.
They cross-check the solver knobs against the *actual* design: grid
resolution against the narrowest noise pulse, ``k`` against the coupling
population, convergence tolerance against the circuit delay.
"""

from __future__ import annotations

from .framework import LintContext, Reporter, Severity, rule

#: Minimum grid samples the narrowest pulse should span.
MIN_PULSE_SAMPLES = 2.0

#: Convergence tolerance above this fraction of the circuit delay is coarse.
COARSE_TOLERANCE_RATIO = 0.05


@rule("RPR401", Severity.WARNING, "config")
def grid_undersampling(ctx: LintContext, report: Reporter) -> None:
    """The envelope grid must resolve the narrowest noise pulse: a pulse
    spanning fewer than ~2 grid steps aliases, and scores (hence dominance
    decisions) become grid noise.  Raise ``grid_points`` or question the
    pulse widths."""
    from ..noise.pulse import pulse_for_coupling

    sta = ctx.sta
    cfg = ctx.analysis_config
    if sta is None or len(ctx.design.coupling) == 0:
        return
    horizon = sta.horizon(cfg.horizon_margin)
    dt_estimate = horizon / cfg.grid_points
    min_width = None
    min_cc = None
    for cc in ctx.design.coupling:
        for victim in (cc.net_a, cc.net_b):
            aggressor = cc.other(victim)
            try:
                pulse = pulse_for_coupling(
                    ctx.netlist, cc, victim, sta.slew_late(aggressor)
                )
            except Exception:  # noqa: BLE001 - other rules flag bad caps
                continue
            if min_width is None or pulse.width < min_width:
                min_width = pulse.width
                min_cc = cc.index
    if min_width is None:
        return
    if dt_estimate > min_width / MIN_PULSE_SAMPLES:
        report(
            f"grid step ~{dt_estimate:.4f} ns (horizon {horizon:.3f} ns / "
            f"{cfg.grid_points} points) undersamples the narrowest noise "
            f"pulse ({min_width:.4f} ns at coupling {min_cc}); raise "
            "grid_points",
            location=f"coupling:{min_cc}",
        )


@rule("RPR402", Severity.WARNING, "config")
def k_exceeds_couplings(ctx: LintContext, report: Reporter) -> None:
    """Asking for a top-k set larger than the design's coupling population
    can only return the all-aggressors set — usually a sign the request
    and the design got swapped."""
    if ctx.k is None:
        return
    n = len(ctx.design.coupling)
    if ctx.k > n:
        report(f"requested k={ctx.k} but the design has only {n} coupling(s)")


@rule("RPR403", Severity.WARNING, "config")
def beam_below_k(ctx: LintContext, report: Reporter) -> None:
    """A beam cap (``max_sets_per_cardinality``) smaller than ``k`` prunes
    harder than Theorem 1 justifies: the cardinality-k list is built from
    fewer than k survivors per rank, so the reported set may be
    noticeably sub-optimal."""
    cfg = ctx.analysis_config
    cap = cfg.max_sets_per_cardinality
    if ctx.k is None or cap is None:
        return
    if cap < ctx.k:
        report(
            f"beam cap max_sets_per_cardinality={cap} is below k={ctx.k}; "
            "consider raising it (or None for the exact algorithm)"
        )


@rule("RPR404", Severity.WARNING, "config")
def coarse_convergence_tolerance(ctx: LintContext, report: Reporter) -> None:
    """The iterative analysis' convergence tolerance should be well below
    the circuit delay; a coarse tolerance freezes the window fixpoint
    early and silently under-reports delay noise."""
    sta = ctx.sta
    cfg = ctx.analysis_config
    if sta is None or not ctx.netlist.primary_outputs:
        return
    delay = sta.circuit_delay()
    if delay <= 0:
        return
    tol = cfg.noise.tolerance_ns
    if tol > COARSE_TOLERANCE_RATIO * delay:
        report(
            f"noise convergence tolerance {tol} ns exceeds "
            f"{COARSE_TOLERANCE_RATIO:.0%} of the circuit delay "
            f"({delay:.4f} ns)"
        )


@rule("RPR405", Severity.INFO, "config")
def oracle_disabled(ctx: LintContext, report: Reporter) -> None:
    """With ``evaluate_with_oracle=False`` the reported delays are the
    solver's superposition estimates, not the exact iterative re-analysis;
    fine for sweeps, but do not sign off on them."""
    if not ctx.analysis_config.evaluate_with_oracle:
        report(
            "oracle evaluation disabled: reported delays are superposition "
            "estimates"
        )
