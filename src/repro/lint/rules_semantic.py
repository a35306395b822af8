"""Semantic analysis rules (RPR7xx).

Unlike the RPR1xx-4xx tiers, which pattern-match structure, these rules
*prove* properties of the design's behavior: they share one whole-design
abstract interpretation over the coupling/timing graph (the interval
dataflow pass of :mod:`repro.analysis.dataflow`, memoized on
:attr:`LintContext.semantic`).  Everything reported here is a sound
consequence of the interval domain — no envelope is ever constructed,
and no finding depends on grids or alignment search.

Soundness contract: a ``dies-early`` / ``windows-disjoint`` proof
(RPR701) means the direction cannot inject delay noise in *any*
evaluation the solver or the exact oracle can run (any coupling subset,
any fixpoint iterate with an optimistic seed); an RPR703/705 bound
violation is guaranteed to occur, not merely possible.  When the ramp
argument fails (RPR702) the domain answers *top* and the affected
bounds are reported as unavailable rather than silently unsound.

When the structure is too broken to time, these rules stay silent —
the RPR1xx tier already covers that ground.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .framework import LintContext, Reporter, Severity, rule


@rule("RPR701", Severity.INFO, "semantic")
def dead_aggressor_proved(ctx: LintContext, report: Reporter) -> None:
    """A coupling proven dead in **both** directions can never change any
    subset's circuit delay: the interval dataflow pass shows each side's
    envelope either provably ends before its victim's t50 or provably
    cannot overlap the victim's timing window.  The solver consumes
    these proofs (as :class:`repro.analysis.SemanticFacts`) to pre-prune
    its primary sweep bit-identically; the enumeration can drop the
    coupling from candidate generation entirely."""
    bounds = ctx.semantic
    if bounds is None or ctx.design is None:
        return
    dead_by_index: Dict[int, List[str]] = {}
    for (idx, victim), alive in bounds.active.items():
        if not alive:
            dead_by_index.setdefault(idx, []).append(victim)
    for idx in sorted(dead_by_index):
        victims = dead_by_index[idx]
        if len(victims) < 2:
            continue  # one live direction keeps the coupling relevant
        reasons = ", ".join(
            f"{v}: {bounds.dead_reason[(idx, v)]}" for v in sorted(victims)
        )
        report(
            f"coupling c{idx} is proven dead in both directions "
            f"({reasons}) — it cannot appear in any optimal top-k set",
            location=f"coupling:{idx}",
        )


@rule("RPR702", Severity.WARNING, "semantic")
def interval_domain_top(ctx: LintContext, report: Reporter) -> None:
    """The ramp argument behind the interval domain needs the victim's
    active pulse-peak sum to stay below 0.5; past that the static noise
    bound is *top* (infinite) and neither dead-aggressor proofs nor
    admissible per-aggressor bounds exist downstream of the net.  On the
    paper's benchmarks the sum stays below 0.27 — a finding here means
    unusually strong coupling that deserves a look."""
    bounds = ctx.semantic
    if bounds is None:
        return
    for net in bounds.top_nets():
        report(
            f"net {net!r}: active coupling peak sum exceeds the ramp "
            "bound limit (0.5); the interval domain reports no finite "
            "noise bound for this victim",
            location=f"net:{net}",
        )


@rule("RPR703", Severity.WARNING, "semantic")
def budget_overrun_proved(ctx: LintContext, report: Reporter) -> None:
    """The candidate budget is provably insufficient: a lower bound on
    live primary aggressors — directions that pass the engine's window
    and dies-before-t50 filters under *noiseless* windows, which every
    widening only relaxes — already exceeds ``budget.max_candidates``,
    so the solve is statically guaranteed to trip the cap at cardinality
    1 and degrade (or halt under ``on_budget="raise"``)."""
    cfg = ctx.analysis_config
    if (
        cfg is None
        or cfg.budget is None
        or cfg.budget.max_candidates is None
        or ctx.design is None
    ):
        return
    sta = ctx.sta
    if sta is None:
        return
    from ..noise.pulse import pulse_for_coupling
    from ..verify.intervals import slew_intervals

    slew_lo, _slew_hi = slew_intervals(ctx.design, ctx.graph)
    live = 0
    for victim in ctx.netlist.nets:
        for cc in ctx.design.coupling.aggressors_of(victim):
            aggressor = cc.other(victim)
            tr_lo = slew_lo.get(aggressor)
            if tr_lo is None:
                continue
            try:
                pulse = pulse_for_coupling(ctx.netlist, cc, victim, tr_lo)
            except Exception:  # noqa: BLE001 - RPR704's territory
                continue
            # Under-approximate the envelope end (smallest slew, nominal
            # LAT): if it still outlives the victim's t50 the direction
            # survives the engine's unconditional filter.
            t_end_lo = sta.lat(aggressor) + tr_lo / 2.0 + pulse.decay
            if t_end_lo <= sta.lat(victim):
                continue
            if cfg.window_filter and not sta.window(victim).overlaps(
                sta.window(aggressor), slack=tr_lo
            ):
                continue
            live += 1
    cap = cfg.budget.max_candidates
    if live > cap:
        report(
            f"budget.max_candidates={cap} is provably insufficient: at "
            f"least {live} primary aggressor direction(s) survive the "
            "static filters, so the candidate cap trips during the "
            "first cardinality pass",
        )


@rule("RPR704", Severity.ERROR, "semantic")
def nonfinite_pulse_parameters(ctx: LintContext, report: Reporter) -> None:
    """Every value feeding the closed-form pulse — victim holding
    resistance, ground capacitance, coupling cap — must be finite, or
    the solver dies mid-solve with a waveform fault.  The static pass
    proves it at preflight instead.  (Negative parasitics are RPR107's;
    nonpositive coupling caps RPR202's.)"""
    design = ctx.design
    if design is None:
        return
    netlist = ctx.netlist
    for victim in sorted(netlist.nets):
        for cc in design.coupling.aggressors_of(victim):
            values = {
                "holding_res": netlist.holding_resistance(victim),
                "ground_cap": netlist.load_cap(victim),
                "coupling_cap": cc.cap,
            }
            for name, value in values.items():
                if not math.isfinite(value):
                    report(
                        f"coupling c{cc.index} -> net {victim!r}: pulse "
                        f"parameter {name}={value} is not finite; the "
                        "solver would raise a waveform fault mid-solve",
                        location=f"coupling:{cc.index}",
                    )


@rule("RPR705", Severity.WARNING, "semantic")
def horizon_overflow_proved(ctx: LintContext, report: Reporter) -> None:
    """The solver's "infinite window" is really a horizon — a multiple
    (``horizon_margin``) of the noiseless circuit delay.  When the
    static arrival bound of a net provably exceeds that horizon, events
    the enumeration reasons about fall off the grids: the horizon is
    unsatisfiable as a timing window and the margin must grow."""
    bounds = ctx.semantic
    sta = ctx.sta
    if bounds is None or sta is None or not ctx.netlist.primary_outputs:
        return
    margin = (
        ctx.analysis_config.horizon_margin
        if ctx.analysis_config is not None
        else 2.0
    )
    horizon = sta.horizon(margin)
    for net in sorted(bounds.per_net):
        hi = bounds.per_net[net].hi
        if math.isfinite(hi) and hi > horizon:
            report(
                f"net {net!r}: statically reachable arrival {hi:.4f} ns "
                f"exceeds the horizon {horizon:.4f} ns "
                f"(horizon_margin={margin:g}); widen the margin or the "
                "enumeration's windows clip real events",
                location=f"net:{net}",
            )

