"""Unit tests for the synthetic benchmark generator."""

import pytest

from repro.circuit.generator import (
    PAPER_BENCHMARKS,
    GeneratorError,
    make_paper_benchmark,
    random_design,
    random_netlist,
)
from repro.lint import run_lint


class TestRandomNetlist:
    def test_gate_count_exact(self):
        nl = random_netlist("t", 40, seed=1)
        assert nl.gate_count() == 40

    def test_structurally_valid(self):
        nl = random_netlist("t", 40, seed=1)
        nl.check()  # raises on problems

    def test_deterministic(self):
        a = random_netlist("t", 25, seed=9)
        b = random_netlist("t", 25, seed=9)
        assert list(a.topological_nets()) == list(b.topological_nets())
        assert {g.name: g.cell.name for g in a.gates.values()} == {
            g.name: g.cell.name for g in b.gates.values()
        }

    def test_seeds_differ(self):
        a = random_netlist("t", 25, seed=1)
        b = random_netlist("t", 25, seed=2)
        cells_a = [g.cell.name for g in a.gates.values()]
        cells_b = [g.cell.name for g in b.gates.values()]
        assert cells_a != cells_b

    def test_every_net_observable(self):
        nl = random_netlist("t", 30, seed=4)
        pos = set(nl.primary_outputs)
        for name, net in nl.nets.items():
            assert net.fanout > 0 or name in pos

    def test_io_overrides(self):
        nl = random_netlist("t", 30, seed=4, n_inputs=7, n_outputs=2)
        assert len(nl.primary_inputs) == 7
        assert len(nl.primary_outputs) >= 2

    def test_invalid_gate_count_rejected(self):
        with pytest.raises(GeneratorError):
            random_netlist("t", 0)

    def test_max_fanout_respected(self):
        nl = random_netlist("t", 120, seed=2, max_fanout=4)
        for name, net in nl.nets.items():
            # POs add one pseudo load beyond the cap.
            assert net.fanout <= 4 + 1


class TestRandomDesign:
    def test_full_flow(self):
        d = random_design("t", n_gates=25, target_caps=40, seed=2)
        assert d.netlist.gate_count() == 25
        assert len(d.coupling) == 40
        assert d.placement is not None

    def test_parasitics_annotated(self):
        d = random_design("t", n_gates=25, seed=2)
        assert any(n.wire_cap > 0 for n in d.netlist.nets.values())

    def test_validates_clean(self):
        d = random_design("t", n_gates=25, target_caps=40, seed=2)
        assert run_lint(d, categories=("netlist", "coupling")).errors == []


class TestPaperBenchmarks:
    def test_table_matches_paper(self):
        # Spot-check the published statistics (paper Table 2).
        assert PAPER_BENCHMARKS["i1"].gates == 59
        assert PAPER_BENCHMARKS["i1"].coupling_caps == 232
        assert PAPER_BENCHMARKS["i10"].gates == 3379
        assert PAPER_BENCHMARKS["i10"].coupling_caps == 18318
        assert len(PAPER_BENCHMARKS) == 10

    def test_stand_in_matches_spec(self):
        d = make_paper_benchmark("i1")
        spec = PAPER_BENCHMARKS["i1"]
        assert d.netlist.gate_count() == spec.gates
        assert len(d.coupling) == spec.coupling_caps

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(GeneratorError, match="unknown benchmark"):
            make_paper_benchmark("i99")

    def test_deterministic_build(self):
        a = make_paper_benchmark("i2")
        b = make_paper_benchmark("i2")
        caps_a = [(c.net_a, c.net_b, c.cap) for c in a.coupling]
        caps_b = [(c.net_a, c.net_b, c.cap) for c in b.coupling]
        assert caps_a == caps_b

    def test_description_mentions_paper_stats(self):
        d = make_paper_benchmark("i3")
        assert "551" in d.description
