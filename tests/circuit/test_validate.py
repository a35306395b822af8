"""Structural lint of netlists and designs through :mod:`repro.lint`."""

import pytest

from repro.circuit.cells import default_library
from repro.circuit.coupling import CouplingGraph
from repro.circuit.design import Design
from repro.circuit.netlist import Netlist
from repro.lint import LintError, Severity, assert_clean, run_lint


def clean_netlist():
    nl = Netlist("v", default_library())
    nl.add_primary_input("a")
    nl.add_gate("g1", "INV_X1", ["a"], "y")
    nl.add_primary_output("y")
    return nl


def lint_netlist(nl):
    return run_lint(nl, categories=("netlist",))


def lint_design(design):
    return run_lint(design, categories=("netlist", "coupling"))


def codes(report):
    return {f.code for f in report.findings}


class TestNetlistLint:
    def test_clean_passes(self):
        assert lint_netlist(clean_netlist()).errors == []

    def test_undriven_net(self):
        nl = clean_netlist()
        nl.add_net("floating")
        assert "RPR101" in codes(lint_netlist(nl))

    def test_dangling_net_warning(self):
        nl = clean_netlist()
        nl.add_gate("g2", "INV_X1", ["a"], "unused")
        dangling = [f for f in lint_netlist(nl).findings if f.code == "RPR102"]
        assert dangling and dangling[0].severity is Severity.WARNING

    def test_high_fanout_warning(self):
        nl = Netlist("v", default_library())
        nl.add_primary_input("a")
        for i in range(20):
            nl.add_gate(f"g{i}", "INV_X1", ["a"], f"n{i}")
        for i in range(20):
            nl.add_primary_output(f"n{i}")
        assert "RPR103" in codes(lint_netlist(nl))

    def test_no_io_errors(self):
        found = codes(lint_netlist(Netlist("v", default_library())))
        assert "RPR104" in found
        assert "RPR105" in found

    def test_negative_parasitic(self):
        nl = clean_netlist()
        nl.net("y").wire_cap = -1.0
        assert "RPR107" in codes(lint_netlist(nl))

    def test_cycle_reported(self):
        nl = Netlist("v", default_library())
        nl.add_primary_input("a")
        nl.add_gate("g1", "NAND2_X1", ["a", "q"], "p")
        nl.add_gate("g2", "INV_X1", ["p"], "q")
        nl.add_primary_output("q")
        assert "RPR106" in codes(lint_netlist(nl))


class TestDesignLint:
    def test_clean_design(self):
        nl = clean_netlist()
        cg = CouplingGraph(nl)
        cg.add("a", "y", 0.5)
        design = Design(netlist=nl, coupling=cg)
        assert_clean(lint_design(design))  # does not raise

    def test_dominating_coupling_warning(self):
        nl = clean_netlist()
        cg = CouplingGraph(nl)
        cg.add("a", "y", 1e4)
        design = Design(netlist=nl, coupling=cg)
        assert "RPR203" in codes(lint_design(design))

    def test_assert_valid_raises_on_error(self):
        nl = clean_netlist()
        nl.add_net("floating")
        cg = CouplingGraph(nl)
        design = Design(netlist=nl, coupling=cg)
        with pytest.raises(LintError, match="RPR101"):
            assert_clean(lint_design(design))

    def test_mismatched_coupling_graph_rejected(self):
        nl1 = clean_netlist()
        nl2 = clean_netlist()
        cg = CouplingGraph(nl2)
        with pytest.raises(ValueError, match="different netlist"):
            Design(netlist=nl1, coupling=cg)

    def test_diagnostic_str(self):
        nl = clean_netlist()
        nl.add_net("floating")
        text = str(lint_netlist(nl).findings[0])
        assert "RPR101" in text and "[error]" in text
