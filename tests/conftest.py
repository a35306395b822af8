"""Shared fixtures: small deterministic designs reused across test modules.

Also registers the ``nightly`` hypothesis profile: 20x hypothesis's
default example budget and no deadline, for the deep fuzz run
(``--hypothesis-profile=nightly``).  Property tests that set no
``max_examples`` of their own take their budget from the profile.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.circuit.cells import default_library
from repro.circuit.coupling import CouplingGraph
from repro.circuit.design import Design
from repro.circuit.generator import make_paper_benchmark, random_design
from repro.circuit.netlist import Netlist

settings.register_profile("nightly", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def library():
    return default_library()


@pytest.fixture()
def chain_netlist(library):
    """pi0 -> INV -> INV -> INV -> po, plus a side input chain.

    A tiny hand-built netlist with known structure for STA tests.
    """
    nl = Netlist("chain", library)
    nl.add_primary_input("a")
    nl.add_primary_input("b")
    nl.add_gate("g1", "INV_X1", ["a"], "n1")
    nl.add_gate("g2", "NAND2_X1", ["n1", "b"], "n2")
    nl.add_gate("g3", "INV_X1", ["n2"], "n3")
    nl.add_primary_output("n3")
    nl.check()
    return nl


@pytest.fixture()
def chain_design(chain_netlist):
    """The chain netlist with a couple of hand-placed couplings."""
    cg = CouplingGraph(chain_netlist)
    cg.add("n1", "n2", 1.5)
    cg.add("n2", "b", 0.8)
    cg.add("n1", "n3", 0.5)
    return Design(netlist=chain_netlist, coupling=cg)


@pytest.fixture(scope="session")
def tiny_design():
    """A 12-gate generated design, small enough for brute force."""
    return random_design("tiny", n_gates=12, target_caps=14, seed=3)


@pytest.fixture(scope="session")
def small_design():
    """A 30-gate generated design for integration-level checks."""
    return random_design("small", n_gates=30, target_caps=60, seed=5)


@pytest.fixture(scope="session")
def i1_design():
    """The i1 paper-benchmark stand-in (59 gates, 232 couplings)."""
    return make_paper_benchmark("i1")
