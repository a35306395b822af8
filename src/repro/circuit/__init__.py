"""Design database: cells, netlists, coupling, placement, generation.

This subpackage is the substrate the paper's flow assumed from commercial
tools (synthesis, APR, extraction); see DESIGN.md section 2 for the
substitution rationale.
"""

from .bench import BenchFormatError, load_bench, parse_bench, write_bench
from .cells import VDD, Cell, CellError, CellLibrary, default_library
from .coupling import CouplingCap, CouplingError, CouplingGraph, CouplingView
from .design import Design, DesignStats
from .edit import (
    EditError,
    remove_couplings,
    shield_couplings,
    upsize_driver,
)
from .spef import SpefFormatError, load_spef_into, read_spef, write_spef
from .verilog import (
    VerilogFormatError,
    load_verilog,
    parse_verilog,
    write_verilog,
)
from .graphs import (
    coupling_communities,
    coupling_graph,
    timing_dag,
)
from .generator import (
    PAPER_BENCHMARKS,
    BenchmarkSpec,
    GeneratorError,
    all_paper_benchmarks,
    make_paper_benchmark,
    random_design,
    random_netlist,
)
from .netlist import Gate, Net, Netlist, NetlistError
from .parasitics import ParasiticConstants, annotate_parasitics, elmore_delay_ns
from .placement import NetBBox, Placement, Point, extract_coupling

__all__ = [
    "BenchFormatError",
    "BenchmarkSpec",
    "Cell",
    "CellError",
    "CellLibrary",
    "CouplingCap",
    "CouplingError",
    "CouplingGraph",
    "CouplingView",
    "Design",
    "DesignStats",
    "EditError",
    "SpefFormatError",
    "Gate",
    "GeneratorError",
    "Net",
    "NetBBox",
    "Netlist",
    "NetlistError",
    "PAPER_BENCHMARKS",
    "ParasiticConstants",
    "Placement",
    "Point",
    "VDD",
    "VerilogFormatError",
    "all_paper_benchmarks",
    "annotate_parasitics",
    "coupling_communities",
    "coupling_graph",
    "default_library",
    "elmore_delay_ns",
    "extract_coupling",
    "load_bench",
    "load_spef_into",
    "load_verilog",
    "parse_verilog",
    "write_verilog",
    "make_paper_benchmark",
    "parse_bench",
    "random_design",
    "random_netlist",
    "read_spef",
    "remove_couplings",
    "shield_couplings",
    "timing_dag",
    "upsize_driver",
    "write_bench",
    "write_spef",
]
