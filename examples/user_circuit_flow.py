"""Full flow on a user circuit: ISCAS-89 .bench in, top-k report out.

Demonstrates the path a downstream user takes with their own netlist:

1. parse an ISCAS-89 ``.bench`` file (a small carry-ripple adder slice is
   written to a temp file here, or pass ``--bench-file`` for your own);
2. synthesize a placement, annotate wire RC, extract coupling caps;
3. lint the design;
4. run the iterative noise analysis and both top-k flavors.

Run::

    python examples/user_circuit_flow.py [--bench-file my.bench] [--k 4]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro import load_bench, top_k_addition_set, top_k_elimination_set
from repro.circuit.design import Design
from repro.circuit.parasitics import annotate_parasitics
from repro.circuit.placement import Placement, extract_coupling
from repro.core import TopKConfig
from repro.lint import run_lint
from repro.noise.analysis import analyze_noise

#: Two cascaded full adders (sum/carry logic only, combinational).
ADDER_BENCH = """
# 2-bit ripple-carry adder
INPUT(a0)
INPUT(b0)
INPUT(a1)
INPUT(b1)
INPUT(cin)
OUTPUT(s0)
OUTPUT(s1)
OUTPUT(cout)
ax0 = XOR(a0, b0)
s0 = XOR(ax0, cin)
c0a = AND(a0, b0)
c0b = AND(ax0, cin)
c0 = OR(c0a, c0b)
ax1 = XOR(a1, b1)
s1 = XOR(ax1, c0)
c1a = AND(a1, b1)
c1b = AND(ax1, c0)
cout = OR(c1a, c1b)
"""


def build_design(bench_path: Path, seed: int) -> Design:
    netlist = load_bench(bench_path)
    placement = Placement(netlist, seed=seed)
    annotate_parasitics(netlist, placement)
    coupling = extract_coupling(placement, seed=seed)
    return Design(
        netlist=netlist,
        coupling=coupling,
        placement=placement,
        description=f"user circuit from {bench_path.name}",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-file", default=None)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.bench_file:
        bench_path = Path(args.bench_file)
    else:
        tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".bench", prefix="adder_", delete=False
        )
        tmp.write(ADDER_BENCH)
        tmp.close()
        bench_path = Path(tmp.name)
        print(f"(no --bench-file given; wrote demo adder to {bench_path})")

    design = build_design(bench_path, args.seed)
    stats = design.stats()
    print(
        f"\nloaded {stats.name}: {stats.gates} gates, {stats.nets} nets, "
        f"{stats.coupling_caps} extracted coupling caps"
    )

    report = run_lint(design, categories=("netlist", "coupling"))
    for finding in report.findings:
        print(f"  lint: {finding}")
    if report.errors:
        raise SystemExit("design has lint errors; aborting")

    noise = analyze_noise(design)
    print(
        f"\nnoise analysis: {noise.iterations} iterations "
        f"({'converged' if noise.converged else 'NOT converged'})"
    )
    print(f"  noiseless delay    : {noise.nominal_delay():.4f} ns")
    print(f"  all-aggressor delay: {noise.circuit_delay():.4f} ns")
    noisiest = noise.noisiest_nets(3)
    if noisiest:
        print("  noisiest nets      : " + ", ".join(
            f"{n} (+{noise.delay_noise[n] * 1e3:.1f} ps)" for n in noisiest
        ))

    config = TopKConfig()
    print()
    print(top_k_addition_set(design, args.k, config).summary())
    print()
    print(top_k_elimination_set(design, args.k, config).summary())


if __name__ == "__main__":
    main()
