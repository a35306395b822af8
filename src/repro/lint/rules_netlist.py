"""Netlist-structure rules (RPR1xx).

These run on a bare :class:`~repro.circuit.netlist.Netlist` — no STA, no
coupling — and catch the structural dirt that otherwise surfaces as deep
stack traces inside the timing or noise engines.
"""

from __future__ import annotations

from ..circuit.netlist import NetlistError
from .framework import LintContext, Reporter, Severity, rule

#: Fanout above this draws a warning (RPR103: the slew model degrades).
FANOUT_WARNING_THRESHOLD = 16


@rule("RPR101", Severity.ERROR, "netlist")
def undriven_net(ctx: LintContext, report: Reporter) -> None:
    """Every net must have exactly one driver; an undriven net cannot be
    timed and poisons every analysis downstream of it."""
    for name, net in ctx.netlist.nets.items():
        if net.driver is None:
            report(f"net {name!r} has no driver", location=f"net:{name}")


@rule("RPR102", Severity.WARNING, "netlist")
def dangling_net(ctx: LintContext, report: Reporter) -> None:
    """A net with no loads that is not a primary output is unobservable —
    usually a sign of a truncated netlist."""
    for name, net in ctx.netlist.nets.items():
        if net.fanout == 0 and name not in ctx.netlist.primary_outputs:
            report(
                f"net {name!r} has no loads and is not a primary output",
                location=f"net:{name}",
            )


@rule("RPR103", Severity.WARNING, "netlist")
def high_fanout(ctx: LintContext, report: Reporter) -> None:
    """Fanout beyond the slew model's comfort zone: arrival times stay
    conservative but per-pin slews degrade."""
    for name, net in ctx.netlist.nets.items():
        if net.fanout > FANOUT_WARNING_THRESHOLD:
            report(
                f"net {name!r} fans out to {net.fanout} loads "
                f"(threshold {FANOUT_WARNING_THRESHOLD})",
                location=f"net:{name}",
            )


@rule("RPR104", Severity.ERROR, "netlist")
def no_primary_inputs(ctx: LintContext, report: Reporter) -> None:
    """A design without primary inputs has no arrival sources; every
    window would be vacuous."""
    if not ctx.netlist.primary_inputs:
        report("design has no primary inputs")


@rule("RPR105", Severity.ERROR, "netlist")
def no_primary_outputs(ctx: LintContext, report: Reporter) -> None:
    """A design without primary outputs has no circuit delay to report —
    the top-k objective is undefined."""
    if not ctx.netlist.primary_outputs:
        report("design has no primary outputs")


@rule("RPR106", Severity.ERROR, "netlist")
def combinational_cycle(ctx: LintContext, report: Reporter) -> None:
    """The whole framework assumes a combinational DAG (paper Section 2);
    a cycle makes topological sweeps, STA, and the bottom-up enumeration
    all undefined."""
    netlist = ctx.netlist
    if any(net.driver is None for net in netlist.nets.values()):
        return  # RPR101 already fired; topo order is meaningless here.
    try:
        list(netlist.topological_nets())
    except NetlistError as exc:
        report(str(exc))


@rule("RPR107", Severity.ERROR, "netlist")
def negative_parasitic(ctx: LintContext, report: Reporter) -> None:
    """Wire RC must be non-negative; negative parasitics make delays and
    noise pulses unphysical."""
    for name, net in ctx.netlist.nets.items():
        if net.wire_cap < 0 or net.wire_res < 0:
            report(
                f"net {name!r} has negative wire RC "
                f"(cap={net.wire_cap} fF, res={net.wire_res} kOhm)",
                location=f"net:{name}",
            )
