"""Static timing analysis: arrival windows, slews, critical paths.

Implements the block-based STA the paper builds on: for every net we
propagate the earliest arrival time (EAT — fastest t50) and latest arrival
time (LAT — slowest t50) from primary inputs to outputs, along with the
slews of the corresponding fastest/slowest transitions.  ``[EAT, LAT]`` is
the net's :class:`~repro.timing.windows.TimingWindow`.

Delay noise enters through ``extra_delay``: a map net -> additional delay
injected at that net's driver output.  The iterative noise analysis
(:mod:`repro.noise.analysis`) re-runs this engine with updated
``extra_delay`` until the windows reach a fixpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional

import numpy as np

from ..circuit.netlist import Netlist
from .delay_models import INPUT_SLEW_FEEDTHROUGH, PRIMARY_INPUT_SLEW
from .graph import TimingGraph
from .windows import TimingWindow


class TimingError(RuntimeError):
    """Raised for inconsistent timing queries."""


@dataclass(frozen=True)
class NetTiming:
    """Per-net STA solution.

    Attributes
    ----------
    window:
        ``[EAT, LAT]`` of the net's t50.
    slew_early / slew_late:
        0-100% transition times (ns) of the fastest / slowest transitions.
    """

    window: TimingWindow
    slew_early: float
    slew_late: float


class StaArrays(NamedTuple):
    """An STA solution as read-only arrays in ``graph.topo_order`` order."""

    eat: np.ndarray
    lat: np.ndarray
    slew_early: np.ndarray
    slew_late: np.ndarray


@dataclass
class TimingResult:
    """Full-design STA solution plus path-tracing support.

    ``nets`` and ``worst_fanin`` answer by net name; ``arrays`` holds the
    same numbers by topological position, for array passes over a whole
    design.
    """

    netlist: Netlist
    graph: TimingGraph
    nets: Dict[str, NetTiming] = field(default_factory=dict)
    worst_fanin: Dict[str, Optional[str]] = field(default_factory=dict)
    arrays: Optional[StaArrays] = field(default=None, repr=False, compare=False)

    def window(self, net: str) -> TimingWindow:
        return self._get(net).window

    def eat(self, net: str) -> float:
        return self._get(net).window.eat

    def lat(self, net: str) -> float:
        return self._get(net).window.lat

    def slew_late(self, net: str) -> float:
        return self._get(net).slew_late

    def slew_early(self, net: str) -> float:
        return self._get(net).slew_early

    def _get(self, net: str) -> NetTiming:
        try:
            return self.nets[net]
        except KeyError:
            raise TimingError(f"no timing for net {net!r}") from None

    def circuit_delay(self) -> float:
        """Latest arrival over all primary outputs (the paper's
        "circuit delay")."""
        pos = self.netlist.primary_outputs
        if not pos:
            raise TimingError("design has no primary outputs")
        return max(self.lat(po) for po in pos)

    def worst_output(self) -> str:
        """The primary output with the latest arrival."""
        pos = self.netlist.primary_outputs
        if not pos:
            raise TimingError("design has no primary outputs")
        return max(pos, key=lambda po: (self.lat(po), po))

    def critical_path(self, to_net: Optional[str] = None) -> List[str]:
        """Nets on the slowest path into ``to_net`` (default: worst PO)."""
        net = to_net if to_net is not None else self.worst_output()
        path = [net]
        while True:
            prev = self.worst_fanin.get(net)
            if prev is None:
                break
            path.append(prev)
            net = prev
        path.reverse()
        return path

    def horizon(self, margin: float = 1.5) -> float:
        """An upper bound on any event time, for grids and "infinite"
        windows: margin * circuit delay (with a floor for tiny designs)."""
        return max(self.circuit_delay() * margin, 0.1)


def run_sta(
    netlist: Netlist,
    graph: Optional[TimingGraph] = None,
    extra_delay: Optional[Mapping[str, float]] = None,
    input_arrivals: Optional[Mapping[str, TimingWindow]] = None,
    input_slew: float = PRIMARY_INPUT_SLEW,
) -> TimingResult:
    """Run block-based STA over a netlist.

    Parameters
    ----------
    netlist:
        The design (with parasitics annotated if available).
    graph:
        Pre-built :class:`TimingGraph` to reuse across repeated runs; its
        arc table (:meth:`TimingGraph.arcs`) is built on its first run.
    extra_delay:
        Additional delay (>= 0, ns) added at each named net's driver
        output — the hook through which delay noise perturbs timing.
        Applied to the LAT only (noise only ever slows the late transition;
        the EAT is by definition the fastest, noiseless corner).
    input_arrivals:
        Optional windows at primary inputs (default: ``[0, 0]``).
    input_slew:
        Slew at primary inputs, ns.

    Returns
    -------
    TimingResult

    Each level is one array step over the fanin edges of its gates: one
    add per edge for the EAT and one for the LAT, the first fanin with the
    smallest EAT (largest LAT) wins a tie, and only the winning edge's
    output slew is computed, so the result equals visiting the gates one
    at a time and evaluating every arc.
    """
    if graph is None:
        graph = TimingGraph.from_netlist(netlist)
    extra = dict(extra_delay or {})
    for net_name, amount in extra.items():
        if amount < -1e-12:
            raise TimingError(
                f"extra_delay for {net_name!r} must be >= 0, got {amount}"
            )
    arcs = graph.arcs()
    order = graph.topo_order
    n = len(order)
    bump = np.zeros(n)
    for net_name, amount in extra.items():
        p = arcs.position.get(net_name)
        if p is not None:
            bump[p] = max(0.0, amount)
    # One slot past the nets: the padding of every level's fanin matrix.
    eat = np.empty(n + 1)
    lat = np.empty(n + 1)
    slew_early = np.empty(n + 1)
    slew_late = np.empty(n + 1)
    eat[n], lat[n] = math.inf, -math.inf
    slew_early[n] = slew_late[n] = 0.0
    worst = np.full(n, -1, dtype=np.intp)

    pis = arcs.inputs
    pi_eat = np.zeros(len(pis))
    pi_lat = np.zeros(len(pis))
    if input_arrivals:
        for r, p in enumerate(pis.tolist()):
            win = input_arrivals.get(order[p])
            if win is not None:
                pi_eat[r], pi_lat[r] = win.eat, win.lat
    eat[pis] = pi_eat
    lat[pis] = pi_lat + bump[pis]
    slew_early[pis] = slew_late[pis] = input_slew

    for level in arcs.levels:
        nets, fanin = level.nets, level.fanin
        rows = np.arange(len(nets))
        delay = arcs.delay[nets][:, None]
        early = eat[fanin] + delay
        late = lat[fanin] + delay
        col_e = early.argmin(axis=1)
        col_l = late.argmax(axis=1)
        pick_e = fanin[rows, col_e]
        pick_l = fanin[rows, col_l]
        base = arcs.slew_base[nets]
        eat[nets] = early[rows, col_e]
        lat[nets] = late[rows, col_l] + bump[nets]
        slew_early[nets] = base + INPUT_SLEW_FEEDTHROUGH * slew_early[pick_e]
        slew_late[nets] = base + INPUT_SLEW_FEEDTHROUGH * slew_late[pick_l]
        worst[nets] = pick_l

    feeding = arcs.feeding
    if len(feeding):
        low = np.minimum(slew_early[feeding], slew_late[feeding])
        if low.min() < 0:
            raise ValueError(f"negative input slew {float(low[np.argmin(low)])}")

    result = TimingResult(
        netlist=netlist,
        graph=graph,
        arrays=StaArrays(
            eat=_frozen(eat[:n]),
            lat=_frozen(lat[:n]),
            slew_early=_frozen(slew_early[:n]),
            slew_late=_frozen(slew_late[:n]),
        ),
    )
    nets_out = result.nets
    for net_name, e, l, se, sl in zip(
        order, eat.tolist(), lat.tolist(), slew_early.tolist(), slew_late.tolist()
    ):
        nets_out[net_name] = NetTiming(TimingWindow(e, l), se, sl)
    result.worst_fanin = {
        net_name: (order[w] if w >= 0 else None)
        for net_name, w in zip(order, worst.tolist())
    }
    return result


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
