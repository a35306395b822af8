"""Scalar references the array timing and pulse passes are checked against.

:func:`reference_run_sta` is :func:`repro.timing.sta.run_sta` as it was
written before it became one array step per level: every gate in
topological order, two :func:`driver_arc` calls per gate input, the
first fanin with the smallest EAT (largest LAT) kept.
:func:`reference_pulses` is the per-direction scalar pulse the fixpoint
and the engine used before the array pulse pass: one
:func:`coupling_pulse` per coupling direction.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.noise.pulse import coupling_pulse
from repro.timing.delay_models import PRIMARY_INPUT_SLEW, driver_arc
from repro.timing.sta import NetTiming
from repro.timing.windows import TimingWindow


def reference_run_sta(
    netlist,
    graph,
    extra_delay: Optional[Mapping[str, float]] = None,
    input_arrivals: Optional[Mapping[str, TimingWindow]] = None,
    input_slew: float = PRIMARY_INPUT_SLEW,
) -> Tuple[Dict[str, NetTiming], Dict[str, Optional[str]]]:
    """``(nets, worst_fanin)`` of the per-gate STA loop."""
    extra = dict(extra_delay or {})
    nets: Dict[str, NetTiming] = {}
    worst: Dict[str, Optional[str]] = {}
    for net_name in graph.topo_order:
        gate = netlist.driver_gate(net_name)
        bump = max(0.0, extra.get(net_name, 0.0))
        if gate.is_primary_input:
            win = (
                input_arrivals[net_name]
                if input_arrivals and net_name in input_arrivals
                else TimingWindow(0.0, 0.0)
            )
            nets[net_name] = NetTiming(
                TimingWindow(win.eat, win.lat + bump), input_slew, input_slew
            )
            worst[net_name] = None
            continue
        best_eat = best_lat = None
        for in_net in gate.inputs:
            in_t = nets[in_net]
            arc_early = driver_arc(netlist, net_name, in_t.slew_early)
            arc_late = driver_arc(netlist, net_name, in_t.slew_late)
            eat = in_t.window.eat + arc_early.delay
            lat = in_t.window.lat + arc_late.delay
            if best_eat is None or eat < best_eat[0]:
                best_eat = (eat, arc_early.slew)
            if best_lat is None or lat > best_lat[0]:
                best_lat = (lat, arc_late.slew, in_net)
        nets[net_name] = NetTiming(
            TimingWindow(best_eat[0], best_lat[0] + bump), best_eat[1], best_lat[1]
        )
        worst[net_name] = best_lat[2]
    return nets, worst


def reference_pulses(
    couplings: Sequence,
    victims: Sequence[str],
    res: Sequence[float],
    cap: Sequence[float],
    slews: Sequence[float],
) -> list:
    """``(lead, rise, decay, peak)`` of each direction, one scalar pulse
    at a time."""
    rows = []
    for cc, victim, r, c, s in zip(couplings, victims, res, cap, slews):
        pulse = coupling_pulse(cc, victim, r, c, s)
        rows.append((pulse.lead, pulse.rise, pulse.decay, pulse.peak))
    return rows
