"""The arc-table STA against the per-gate reference.

:func:`run_sta` reads every arc from the graph's
:class:`~repro.timing.graph.ArcTable` and runs one array step per
level; every net's :class:`NetTiming` and worst fanin must equal the
per-gate loop in :mod:`tests.timing.reference` bit for bit, with and
without ``extra_delay`` and ``input_arrivals``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.circuit.cells import CellError
from repro.circuit.generator import make_paper_benchmark, random_design
from repro.timing.graph import TimingGraph
from repro.timing.sta import run_sta
from repro.timing.windows import TimingWindow

from .reference import reference_run_sta


def _bits(nets):
    return {
        name: np.array(
            [t.window.eat, t.window.lat, t.slew_early, t.slew_late]
        ).tobytes()
        for name, t in nets.items()
    }


def _check(design, seed: int) -> None:
    rng = random.Random(seed)
    netlist = design.netlist
    graph = TimingGraph.from_netlist(netlist)
    order = graph.topo_order
    for trial in range(4):
        extra = None
        if trial:
            picked = rng.sample(order, max(1, len(order) // 3))
            extra = {net: rng.choice([0.0, -1e-13, rng.random() * 0.2]) for net in picked}
        arrivals = None
        if trial >= 2:
            arrivals = {
                pi: TimingWindow(lo, lo + rng.random() * 0.1)
                for pi in netlist.primary_inputs
                for lo in [rng.random() * 0.1]
                if rng.random() < 0.6
            }
        got = run_sta(netlist, graph, extra_delay=extra, input_arrivals=arrivals)
        nets, worst = reference_run_sta(netlist, graph, extra, arrivals)
        assert list(got.nets) == list(nets)
        assert _bits(got.nets) == _bits(nets)
        assert got.nets == nets
        assert got.worst_fanin == worst
        arrays = got.arrays
        assert np.array_equal(arrays.lat, [nets[n].window.lat for n in order])
        assert np.array_equal(arrays.slew_late, [nets[n].slew_late for n in order])


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_random_designs_match_the_per_gate_loop(seed):
    _check(random_design(f"sta{seed}", n_gates=40, target_caps=60, seed=seed), seed)


@pytest.mark.parametrize("name", ["i1", "i3"])
def test_paper_circuits_match_the_per_gate_loop(name):
    _check(make_paper_benchmark(name, seed=1), 7)


@pytest.mark.bench
@pytest.mark.parametrize("name", [f"i{n}" for n in range(1, 11)])
def test_all_paper_circuits_match_the_per_gate_loop(name):
    _check(make_paper_benchmark(name, seed=1), 11)


def test_arc_table_is_built_once_per_graph():
    design = make_paper_benchmark("i1", seed=1)
    graph = TimingGraph.from_netlist(design.netlist)
    run_sta(design.netlist, graph)
    table = graph.arcs()
    run_sta(design.netlist, graph, extra_delay={graph.topo_order[-1]: 0.1})
    assert graph.arcs() is table


def test_a_bad_parasitic_fails_inside_run_sta():
    design = make_paper_benchmark("i1", seed=1)
    netlist = design.netlist
    graph = TimingGraph.from_netlist(netlist)
    victim = next(
        n for n in graph.topo_order if not netlist.driver_gate(n).is_primary_input
    )
    netlist.net(victim).wire_cap = -1e6
    with pytest.raises(CellError):
        run_sta(netlist, graph)
    with pytest.raises(CellError):
        run_sta(netlist, graph)  # no half-built table was kept
