"""The window-aware interval dataflow pass: soundness and refinement."""

import math

import pytest

from repro.analysis import (
    DIES_EARLY,
    WIDEN_MODES,
    WINDOWS_DISJOINT,
    DataflowError,
    semantic_bounds,
)
from repro.circuit.cells import default_library
from repro.circuit.coupling import CouplingGraph
from repro.circuit.design import Design
from repro.circuit.generator import make_paper_benchmark, random_design
from repro.circuit.netlist import Netlist
from repro.core.bruteforce import brute_force_top_k
from repro.core.engine import TopKConfig, TopKEngine
from repro.noise.analysis import NoiseConfig, analyze_noise
from repro.verify import propagate_delay_bounds

BENCHES = ["i1", "i2", "i3"]


@pytest.fixture(scope="module", params=BENCHES)
def bench(request):
    return make_paper_benchmark(request.param)


def long_chain_design(couple_dead=True):
    """A deep inverter chain: coupling 2, (pi, last net), is provably
    dead in both directions (the input's pulse dies long before the last
    net's t50; the windows of the two ends cannot overlap)."""
    nl = Netlist("chain8", default_library())
    nl.add_primary_input("a")
    prev = "a"
    for i in range(8):
        nl.add_gate(f"g{i}", "INV_X1", [prev], f"n{i}")
        prev = f"n{i}"
    nl.add_primary_output(prev)
    nl.check()
    cg = CouplingGraph(nl)
    cg.add("n0", "n1", 1.2)  # live: adjacent levels
    cg.add("n2", "n3", 1.0)  # live
    if couple_dead:
        cg.add("a", "n7", 1.0)  # dead both ways: ends of the chain
    return Design(netlist=nl, coupling=cg)


class TestContainment:
    """Static per-victim intervals must contain the exact solve."""

    def test_exact_full_design_fixpoint(self, bench):
        bounds = semantic_bounds(bench)
        exact = analyze_noise(bench)
        for net in bench.netlist.nets:
            lat = exact.timing.lat(net)
            iv = bounds.per_net[net]
            assert iv.lo - 1e-9 <= lat <= iv.hi + 1e-9, net
            assert exact.delay_noise.get(net, 0.0) <= bounds.noise[net].hi + 1e-9
        assert bounds.circuit.lo - 1e-9 <= exact.circuit_delay() <= bounds.circuit.hi + 1e-9

    def test_exact_on_coupling_subsets(self, bench):
        """The abstraction covers *any* coupling subset, not just the
        full design — the property the dead-aggressor proofs rest on."""
        bounds = semantic_bounds(bench)
        indices = sorted(bench.coupling.all_indices())
        for frac in (0, 1, 2, 3):
            subset = frozenset(indices[frac::4])
            exact = analyze_noise(bench, coupling=bench.coupling.restricted(subset))
            for net in bench.netlist.nets:
                assert exact.timing.lat(net) <= bounds.per_net[net].hi + 1e-9

    def test_pessimistic_seed_under_infinite_widening(self, bench):
        bounds = semantic_bounds(bench, widen="infinite")
        exact = analyze_noise(bench, config=NoiseConfig(start="pessimistic"))
        for net in bench.netlist.nets:
            assert exact.timing.lat(net) <= bounds.per_net[net].hi + 1e-9

    @pytest.mark.parametrize("seed", [1, 7])
    def test_random_designs(self, seed):
        design = random_design(f"rnd{seed}", n_gates=30, seed=seed)
        bounds = semantic_bounds(design)
        exact = analyze_noise(design)
        for net in design.netlist.nets:
            assert exact.timing.lat(net) <= bounds.per_net[net].hi + 1e-9


class TestRefinement:
    """Window awareness must only ever tighten the infinite-window pass."""

    def test_nested_inside_infinite_window_bounds(self, bench):
        refined = semantic_bounds(bench)
        base = propagate_delay_bounds(bench)
        for net in bench.netlist.nets:
            assert refined.per_net[net].lo == pytest.approx(base.per_net[net].lo)
            assert refined.per_net[net].hi <= base.per_net[net].hi + 1e-9

    def test_fixpoint_widening_refines_infinite(self, bench):
        fix = semantic_bounds(bench, widen="fixpoint")
        inf = semantic_bounds(bench, widen="infinite")
        for net in bench.netlist.nets:
            assert fix.per_net[net].hi <= inf.per_net[net].hi + 1e-9
        # ...and proves at least as many directions dead.
        assert set(inf.dead_directions()) <= set(fix.dead_directions())

    def test_finds_dead_directions_on_benchmarks(self, bench):
        bounds = semantic_bounds(bench)
        dead = bounds.dead_directions()
        assert dead, "benchmarks are expected to have provably dead directions"
        for key in dead:
            assert bounds.dead_reason[key] in (DIES_EARLY, WINDOWS_DISJOINT)
            assert bounds.dead_margin[key] > 0.0 or (
                bounds.dead_reason[key] == DIES_EARLY
                and bounds.dead_margin[key] >= 0.0
            )

    def test_window_filter_off_keeps_only_unconditional_proofs(self, bench):
        filtered = semantic_bounds(bench, window_filter=True)
        plain = semantic_bounds(bench, window_filter=False)
        for key in plain.dead_directions():
            assert plain.dead_reason[key] == DIES_EARLY
        assert set(plain.dead_directions()) <= set(filtered.dead_directions())


class TestStructure:
    def test_rejects_unknown_widen(self, bench):
        with pytest.raises(DataflowError, match="widen"):
            semantic_bounds(bench, widen="magic")
        assert "fixpoint" in WIDEN_MODES and "infinite" in WIDEN_MODES

    def test_every_direction_classified(self, bench):
        bounds = semantic_bounds(bench)
        expected = {
            (cc.index, victim)
            for victim in bench.netlist.nets
            for cc in bench.coupling.aggressors_of(victim)
        }
        assert set(bounds.active) == expected
        assert set(bounds.contribution_ub) == expected
        for key, alive in bounds.active.items():
            if alive:
                assert key not in bounds.dead_reason
            else:
                assert bounds.contribution_ub[key] == 0.0

    def test_contribution_bounds_admissible(self, bench):
        """A single direction alone cannot add more circuit delay than
        its exported contribution bound."""
        bounds = semantic_bounds(bench)
        nominal = analyze_noise(
            bench, coupling=bench.coupling.restricted(frozenset())
        ).circuit_delay()
        indices = sorted(bench.coupling.all_indices())[:8]
        for idx in indices:
            exact = analyze_noise(
                bench, coupling=bench.coupling.restricted(frozenset([idx]))
            )
            added = exact.circuit_delay() - nominal
            assert added <= bounds.coupling_contribution_ub(idx) + 1e-9

    def test_intervals_are_ordered_and_finite_on_benchmarks(self, bench):
        bounds = semantic_bounds(bench)
        assert not bounds.top_nets()
        for iv in bounds.per_net.values():
            assert iv.lo <= iv.hi and math.isfinite(iv.hi)
        assert bounds.iterations >= len(bench.netlist.nets)
        assert bounds.flips >= 0


class TestDeadProofSoundness:
    """A dead direction never matters to the solver or the optimum."""

    def test_dead_coupling_never_changes_the_optimum(self):
        design = long_chain_design(couple_dead=True)
        control = long_chain_design(couple_dead=False)
        victims = {}
        for idx, victim in semantic_bounds(design).dead_directions():
            victims.setdefault(idx, set()).add(victim)
        both = {idx for idx, dead in victims.items() if len(dead) == 2}
        assert both == {2}, "the end-to-end coupling must be proven dead"
        for k in (1, 2):
            with_dead = brute_force_top_k(design, k)
            without = brute_force_top_k(control, k)
            assert with_dead.delay == pytest.approx(without.delay, abs=1e-12)

    @pytest.mark.parametrize("window_filter", [True, False])
    @pytest.mark.parametrize("mode", ["addition", "elimination"])
    def test_no_dead_primaries(self, mode, window_filter):
        design = make_paper_benchmark("i3")
        bounds = semantic_bounds(
            design, window_filter=window_filter, widen="fixpoint"
        )
        dead = set(bounds.dead_directions())
        assert dead, "i3 is expected to have provably dead directions"
        if not window_filter:
            assert {bounds.dead_reason[key] for key in dead} == {DIES_EARLY}
        engine = TopKEngine(
            design, mode, TopKConfig(window_filter=window_filter)
        )
        primaries = {
            (info.coupling.index, net)
            for net, ctx in engine.contexts.items()
            for info in ctx.primary_info
        }
        assert primaries
        assert dead.isdisjoint(primaries)
