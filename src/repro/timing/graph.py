"""Timing graph construction and levelization.

The timing graph's nodes are *nets* (every net has exactly one driver, so a
net stands for its driver's output pin); an edge u -> v exists when net u is
an input of the gate driving net v.  Levelization assigns each net the
length of its longest gate path from any primary input — the order in which
both STA and the top-k propagation visit nets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.netlist import Netlist
from .delay_models import arc_base


@dataclass(frozen=True)
class ArcLevel:
    """The gates of one topological level, as positions in ``topo_order``.

    ``fanin[r]`` lists the inputs of the gate driving ``nets[r]`` in pin
    order, padded on the right with ``len(topo_order)`` (a sentinel slot
    the array passes fill with a value that never wins).
    """

    nets: np.ndarray
    fanin: np.ndarray


@dataclass(frozen=True)
class ArcTable:
    """Every arc of a netlist, indexed by position in ``topo_order``.

    Arc delay and slew base do not depend on the input slew
    (:func:`~repro.timing.delay_models.arc_base`), so each gate has one
    ``delay`` and one ``slew_base`` (``0.0`` at primary inputs); an arc
    driven at input slew ``s`` has output slew ``slew_base +
    INPUT_SLEW_FEEDTHROUGH * s``.  ``levels`` holds the gates of levels
    1, 2, ... in order, so one array step per level visits every fanin
    edge after its source.
    """

    position: Dict[str, int]
    inputs: np.ndarray  # positions of the primary inputs
    delay: np.ndarray
    slew_base: np.ndarray
    levels: Tuple[ArcLevel, ...]
    #: Positions of the nets that feed at least one gate.
    feeding: np.ndarray


@dataclass
class TimingGraph:
    """Dependency structure of a netlist, cached for repeated traversals."""

    netlist: Netlist
    topo_order: List[str] = field(default_factory=list)
    level: Dict[str, int] = field(default_factory=dict)
    fanin: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    fanout: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    _arcs: Optional[ArcTable] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "TimingGraph":
        graph = cls(netlist=netlist)
        graph.topo_order = list(netlist.topological_nets())
        fanout_acc: Dict[str, List[str]] = {n: [] for n in graph.topo_order}
        for net_name in graph.topo_order:
            ins = tuple(netlist.driver_gate(net_name).inputs)
            graph.fanin[net_name] = ins
            for i in ins:
                fanout_acc[i].append(net_name)
            graph.level[net_name] = (
                0 if not ins else 1 + max(graph.level[i] for i in ins)
            )
        graph.fanout = {n: tuple(v) for n, v in fanout_acc.items()}
        return graph

    def arcs(self) -> ArcTable:
        """The :class:`ArcTable` of the graph's netlist, built on first use
        and kept: parasitics must not change under a graph that has been
        timed.  A bad parasitic raises here, from the first gate in
        topological order whose arc it breaks."""
        if self._arcs is None:
            self._arcs = _arc_table(self.netlist, self)
        return self._arcs

    @property
    def depth(self) -> int:
        """Longest path length in gate levels."""
        return max(self.level.values(), default=0)

    def nets_at_level(self, lvl: int) -> List[str]:
        return [n for n in self.topo_order if self.level[n] == lvl]

    def is_ancestor(self, ancestor: str, net: str) -> bool:
        """True when ``ancestor`` is in the transitive fanin of ``net``."""
        if self.level.get(ancestor, 0) >= self.level.get(net, 0):
            return False
        stack = list(self.fanin[net])
        seen = set()
        while stack:
            cur = stack.pop()
            if cur == ancestor:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            # Prune: ancestors must sit at strictly lower levels.
            stack.extend(
                i for i in self.fanin[cur] if self.level[i] >= self.level.get(ancestor, 0)
            )
        return False


def _arc_table(netlist: Netlist, graph: TimingGraph) -> ArcTable:
    order = graph.topo_order
    n = len(order)
    position = {net: p for p, net in enumerate(order)}
    delay = np.zeros(n)
    slew_base = np.zeros(n)
    inputs: List[int] = []
    by_level: Dict[int, List[int]] = {}
    feeds = np.zeros(n, dtype=bool)
    for p, net in enumerate(order):
        gate = netlist.driver_gate(net)
        if gate.is_primary_input:
            inputs.append(p)
            continue
        delay[p], slew_base[p] = arc_base(
            gate.cell, netlist.load_cap(net), netlist.net(net).wire_res
        )
        by_level.setdefault(graph.level[net], []).append(p)
    levels: List[ArcLevel] = []
    for lvl in sorted(by_level):
        nets = by_level[lvl]
        width = max(len(graph.fanin[order[p]]) for p in nets)
        fanin = np.full((len(nets), width), n, dtype=np.intp)
        for r, p in enumerate(nets):
            ins = [position[u] for u in graph.fanin[order[p]]]
            fanin[r, : len(ins)] = ins
            feeds[ins] = True
        levels.append(ArcLevel(np.array(nets, dtype=np.intp), fanin))
    return ArcTable(
        position=position,
        inputs=np.array(inputs, dtype=np.intp),
        delay=delay,
        slew_base=slew_base,
        levels=tuple(levels),
        feeding=np.flatnonzero(feeds),
    )
