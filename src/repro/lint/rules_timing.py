"""Timing sanity rules (RPR3xx).

These run a noiseless STA over the design (lazily, shared across rules via
:attr:`LintContext.sta`) and check the assumptions the envelope algebra
makes about windows and slews.  When the structure is too broken for STA
(undriven nets, cycles) they stay silent — the RPR1xx rules already cover
that ground.
"""

from __future__ import annotations

import math

from .framework import LintContext, Reporter, Severity, rule

#: A late slew longer than this multiple of the circuit delay is suspect.
EXCESSIVE_SLEW_RATIO = 2.0


@rule("RPR301", Severity.ERROR, "timing")
def nonpositive_slew(ctx: LintContext, report: Reporter) -> None:
    """Every timed net needs a positive, finite late slew — the victim
    ramp, the noise pulse width and the dominance grid all divide by it."""
    sta = ctx.sta
    if sta is None:
        return
    for name in ctx.netlist.nets:
        slew = sta.slew_late(name)
        if not math.isfinite(slew) or slew <= 0:
            report(
                f"net {name!r} has degenerate late slew {slew} ns",
                location=f"net:{name}",
            )


@rule("RPR302", Severity.WARNING, "timing")
def zero_circuit_delay(ctx: LintContext, report: Reporter) -> None:
    """A zero (or negative) noiseless circuit delay means no primary
    output sits behind any logic — delay-noise analysis is vacuous."""
    sta = ctx.sta
    if sta is None or not ctx.netlist.primary_outputs:
        return
    delay = sta.circuit_delay()
    if delay <= 0:
        report(f"noiseless circuit delay is {delay} ns")


@rule("RPR303", Severity.WARNING, "timing")
def unconstrained_endpoint(ctx: LintContext, report: Reporter) -> None:
    """A primary output driven directly by a primary input carries a
    degenerate [0, 0] window: it cannot accumulate delay noise and only
    dilutes the virtual-sink merge."""
    netlist = ctx.netlist
    for po in netlist.primary_outputs:
        if po not in netlist.nets:
            continue
        net = netlist.nets[po]
        if net.driver is None:
            continue
        if netlist.gates[net.driver].is_primary_input:
            report(
                f"primary output {po!r} is driven directly by a primary "
                "input (no logic on the path)",
                location=f"net:{po}",
            )


@rule("RPR304", Severity.WARNING, "timing")
def excessive_slew(ctx: LintContext, report: Reporter) -> None:
    """A late slew much longer than the whole circuit delay signals an
    overloaded driver; the saturated-ramp aggressor model degrades there."""
    sta = ctx.sta
    if sta is None or not ctx.netlist.primary_outputs:
        return
    delay = sta.circuit_delay()
    if delay <= 0:
        return  # RPR302 covers the degenerate case.
    limit = EXCESSIVE_SLEW_RATIO * delay
    for name in ctx.netlist.nets:
        slew = sta.slew_late(name)
        if math.isfinite(slew) and slew > limit:
            report(
                f"net {name!r} late slew {slew:.4f} ns exceeds "
                f"{EXCESSIVE_SLEW_RATIO:g}x the circuit delay "
                f"({delay:.4f} ns)",
                location=f"net:{name}",
            )


@rule("RPR305", Severity.WARNING, "timing")
def window_inverted(ctx: LintContext, report: Reporter) -> None:
    """Every window must satisfy EAT <= LAT; an inversion would mean the
    earliest transition arrives after the latest one.  A sanitizer for the
    STA engine itself — the window type enforces this, so a finding here
    is a timing-model bug."""
    sta = ctx.sta
    if sta is None:
        return
    for name in ctx.netlist.nets:
        window = sta.window(name)
        if window.lat < window.eat:  # pragma: no cover - defensive
            report(
                f"net {name!r} window {window} is inverted",
                location=f"net:{name}",
            )
