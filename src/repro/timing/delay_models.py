"""Gate delay and slew models.

The linear Thevenin framework (paper Section 2): a gate's pin-to-pin delay
is intrinsic delay plus drive resistance times load, and the output slew is
proportional to the same quantity with a mild dependence on input slew.
These are the models behind both the STA engine and the victim-transition
ramps the noise superposition operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..circuit.cells import RC_TO_NS, Cell
from ..circuit.netlist import Netlist

#: Fraction of the input slew that bleeds into the output slew.  Real
#: libraries show 10-30% input-slew sensitivity for reasonably sized gates.
INPUT_SLEW_FEEDTHROUGH = 0.2

#: Default input slew at primary inputs (ns).
PRIMARY_INPUT_SLEW = 0.05


@dataclass(frozen=True)
class ArcDelay:
    """One timing arc evaluation: delay and output slew, in ns."""

    delay: float
    slew: float


def wire_load(netlist: Netlist, net_name: str) -> float:
    """Effective load (fF) a driver sees on a net: pins + wire cap.

    Coupling caps are *not* included here; the linear noise framework
    accounts for them via noise envelopes, not via Miller load factors
    (consistent with the paper which separates nominal STA from noise).
    """
    return netlist.load_cap(net_name)


def gate_arc(
    cell: Cell, load_cap: float, input_slew: float, wire_res: float = 0.0
) -> ArcDelay:
    """Evaluate one input->output arc of ``cell``.

    Parameters
    ----------
    cell:
        The driving cell.
    load_cap:
        Total capacitive load on the output net, fF.
    input_slew:
        0-100% transition time of the input, ns.
    wire_res:
        Lumped wire resistance of the output net, kOhm; adds a first-order
        Elmore term to both delay and slew.
    """
    if input_slew < 0:
        raise ValueError(f"negative input slew {input_slew}")
    delay, slew_base = arc_base(cell, load_cap, wire_res)
    return ArcDelay(delay=delay, slew=slew_base + INPUT_SLEW_FEEDTHROUGH * input_slew)


def arc_base(cell: Cell, load_cap: float, wire_res: float = 0.0) -> Tuple[float, float]:
    """``(delay, slew base)`` of an arc of ``cell``: the parts that do not
    depend on the input slew.

    An arc's output slew is ``slew_base + INPUT_SLEW_FEEDTHROUGH *
    input_slew``, with the same roundings as :func:`gate_arc`, and its
    delay does not depend on the input slew at all.  That is what lets
    :func:`repro.timing.sta.run_sta` read every arc from one table.
    """
    wire_term = wire_res * load_cap * 0.5 * RC_TO_NS
    delay = cell.delay(load_cap) + wire_term
    return delay, cell.output_slew(load_cap) + 2.0 * wire_term


def driver_arc(netlist: Netlist, net_name: str, input_slew: float) -> ArcDelay:
    """Evaluate the arc of the gate driving ``net_name``."""
    gate = netlist.driver_gate(net_name)
    net = netlist.net(net_name)
    return gate_arc(
        gate.cell,
        load_cap=wire_load(netlist, net_name),
        input_slew=input_slew,
        wire_res=net.wire_res,
    )
