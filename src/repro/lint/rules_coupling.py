"""Coupling / parasitics sanity rules (RPR2xx).

The linear noise framework (paper Section 2) assumes every coupling cap is
a positive capacitance between two distinct, driven nets, and that the
grounded load of a victim is not dwarfed by its coupling — these rules
check exactly those preconditions.
"""

from __future__ import annotations

from .framework import LintContext, Reporter, Severity, rule

#: Coupling-to-ground ratio beyond which the linear pulse model is dubious.
COUPLING_DOMINANCE_RATIO = 50.0


@rule("RPR201", Severity.ERROR, "coupling")
def coupling_unknown_net(ctx: LintContext, report: Reporter) -> None:
    """Both terminals of a coupling cap must be nets of the design; a
    dangling terminal means the extraction and the netlist disagree."""
    nets = ctx.netlist.nets
    for cc in ctx.design.coupling:
        for terminal in (cc.net_a, cc.net_b):
            if terminal not in nets:
                report(
                    f"coupling {cc.index} touches unknown net {terminal!r}",
                    location=f"coupling:{cc.index}",
                )


@rule("RPR202", Severity.ERROR, "coupling")
def coupling_nonpositive(ctx: LintContext, report: Reporter) -> None:
    """Coupling capacitance must be strictly positive — a zero or negative
    Cc has no physical meaning and breaks the pulse closed form."""
    for cc in ctx.design.coupling:
        if cc.cap <= 0:
            report(
                f"coupling {cc.index} has non-positive cap {cc.cap} fF",
                location=f"coupling:{cc.index}",
            )


@rule("RPR203", Severity.WARNING, "coupling")
def coupling_dominates_load(ctx: LintContext, report: Reporter) -> None:
    """A coupling cap that dwarfs the grounded load of its terminals puts
    the charge-sharing peak formula far outside its calibrated regime."""
    netlist = ctx.netlist
    for cc in ctx.design.coupling:
        if cc.net_a not in netlist.nets or cc.net_b not in netlist.nets:
            continue  # RPR201 already fired.
        total = netlist.load_cap(cc.net_a) + netlist.load_cap(cc.net_b)
        if total > 0 and cc.cap > COUPLING_DOMINANCE_RATIO * total:
            report(
                f"coupling {cc.index} ({cc.cap:.1f} fF) dwarfs the grounded "
                f"load of its terminals ({total:.1f} fF)",
                location=f"coupling:{cc.index}",
            )


@rule("RPR204", Severity.ERROR, "coupling")
def self_coupling(ctx: LintContext, report: Reporter) -> None:
    """A net cannot aggress itself; a self-coupling is an extraction
    artifact that would double-count the net's own switching."""
    for cc in ctx.design.coupling:
        if cc.net_a == cc.net_b:
            report(
                f"coupling {cc.index} couples net {cc.net_a!r} to itself",
                location=f"coupling:{cc.index}",
            )


@rule("RPR205", Severity.WARNING, "coupling")
def coupling_unloaded_terminal(ctx: LintContext, report: Reporter) -> None:
    """A coupling whose terminals both have zero grounded capacitance has
    an unbounded coupling ratio — the noise peak saturates at the charge
    sharing limit and the result carries no information."""
    netlist = ctx.netlist
    for cc in ctx.design.coupling:
        if cc.net_a not in netlist.nets or cc.net_b not in netlist.nets:
            continue
        total = netlist.load_cap(cc.net_a) + netlist.load_cap(cc.net_b)
        if total <= 0:
            report(
                f"coupling {cc.index}: both terminals have zero grounded "
                f"load",
                location=f"coupling:{cc.index}",
            )


@rule("RPR206", Severity.WARNING, "coupling")
def missing_parasitics(ctx: LintContext, report: Reporter) -> None:
    """Couplings exist but no net carries wire RC: the netlist was probably
    never annotated (run ``annotate_parasitics`` or load SPEF), so noise
    pulses will use bare pin loads."""
    if len(ctx.design.coupling) == 0:
        return
    if all(
        net.wire_cap == 0 and net.wire_res == 0
        for net in ctx.netlist.nets.values()
    ):
        report(
            f"{len(ctx.design.coupling)} coupling cap(s) but every net has "
            "zero wire RC — parasitics were never annotated"
        )
