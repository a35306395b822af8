"""The scalar interval pass the array one is checked against.

:func:`reference_propagate_delay_bounds` is
:func:`repro.verify.propagate_delay_bounds` as it was written before it
became array steps: per-gate slew intervals from two :func:`driver_arc`
calls per fanin, one scalar pulse per coupling direction with each
victim's peaks summed by ``+=``, and the arrival bound walked gate by
gate.
"""

from __future__ import annotations

import math

from repro.noise.pulse import pulse_for_coupling
from repro.timing.delay_models import PRIMARY_INPUT_SLEW, driver_arc
from repro.timing.graph import TimingGraph
from repro.timing.sta import run_sta
from repro.verify.intervals import RAMP_BOUND_LIMIT, DelayBounds, Interval


def reference_slew_intervals(design, graph):
    netlist = design.netlist
    slew_lo, slew_hi = {}, {}
    for net in graph.topo_order:
        gate = netlist.driver_gate(net)
        if gate.is_primary_input:
            slew_lo[net] = slew_hi[net] = PRIMARY_INPUT_SLEW
        else:
            slew_lo[net] = min(
                driver_arc(netlist, net, slew_lo[u]).slew for u in gate.inputs
            )
            slew_hi[net] = max(
                driver_arc(netlist, net, slew_hi[u]).slew for u in gate.inputs
            )
    return slew_lo, slew_hi


def reference_local_noise_bound(design, victim, slew_lo, slew_hi) -> float:
    peak_sum = 0.0
    for cc in design.coupling.aggressors_of(victim):
        tr = slew_lo.get(cc.other(victim), PRIMARY_INPUT_SLEW)
        peak_sum += pulse_for_coupling(design.netlist, cc, victim, tr).peak
    if peak_sum <= 0.0:
        return 0.0
    if peak_sum > RAMP_BOUND_LIMIT:
        return math.inf
    return peak_sum * slew_hi.get(victim, PRIMARY_INPUT_SLEW)


def reference_propagate_delay_bounds(design, horizon_margin: float = 2.0) -> DelayBounds:
    netlist = design.netlist
    graph = TimingGraph.from_netlist(netlist)
    nominal = run_sta(netlist, graph)
    slew_lo, slew_hi = reference_slew_intervals(design, graph)
    bounds = DelayBounds(horizon=nominal.horizon(horizon_margin), margin=horizon_margin)
    hi = {}
    for net in graph.topo_order:
        gate = netlist.driver_gate(net)
        if gate.is_primary_input:
            arrive = 0.0
        else:
            arrive = max(
                hi[u] + driver_arc(netlist, net, slew_hi[u]).delay for u in gate.inputs
            )
        dn_ub = reference_local_noise_bound(design, net, slew_lo, slew_hi)
        hi[net] = arrive + dn_ub
        bounds.noise_ub[net] = dn_ub
        bounds.slews[net] = Interval(slew_lo[net], slew_hi[net])
        lo = nominal.lat(net)
        bounds.per_net[net] = Interval(lo, max(lo, hi[net]))
    pos = netlist.primary_outputs
    bounds.circuit = Interval(
        nominal.circuit_delay(),
        max(bounds.per_net[po].hi for po in pos) if pos else 0.0,
    )
    return bounds
