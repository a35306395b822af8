"""Command-line entry point: ``repro-topk``.

Examples
--------
Top-5 elimination set of the i1 stand-in benchmark::

    repro-topk --benchmark i1 --k 5 --mode elimination

Top-3 addition set of a user circuit in ISCAS-89 format::

    repro-topk --bench-file my_circuit.bench --k 3
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .api import analyze
from .circuit.bench import load_bench
from .circuit.design import Design
from .circuit.generator import PAPER_BENCHMARKS, make_paper_benchmark, random_design
from .circuit.parasitics import annotate_parasitics
from .circuit.placement import Placement, extract_coupling
from .core.engine import ADDITION, ELIMINATION, TopKConfig


#: Seed used when the user gives none (applies to every design source).
DEFAULT_SEED = 0


def _design_from_args(args: argparse.Namespace) -> Design:
    # Normalize the seed exactly once: every source below sees the same
    # concrete integer (previously make_paper_benchmark received a raw
    # None while the other paths substituted 0).
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.benchmark:
        return make_paper_benchmark(args.benchmark, seed=seed)
    if args.bench_file:
        netlist = load_bench(args.bench_file)
        placement = Placement(netlist, seed=seed)
        annotate_parasitics(netlist, placement)
        coupling = extract_coupling(placement, seed=seed)
        return Design(netlist=netlist, coupling=coupling, placement=placement)
    return random_design("random", n_gates=args.gates, seed=seed)


def design_from_args(args: argparse.Namespace) -> Design:
    """Build the design selected by :func:`add_design_source_args` flags."""
    return _design_from_args(args)


def add_design_source_args(parser: argparse.ArgumentParser) -> None:
    """Install the shared design-source flags (used by repro-topk and
    repro-lint): ``--benchmark`` / ``--bench-file`` / ``--gates`` plus
    ``--seed``."""
    src = parser.add_mutually_exclusive_group()
    src.add_argument(
        "--benchmark",
        choices=sorted(PAPER_BENCHMARKS, key=lambda n: int(n[1:])),
        help="use a stand-in for one of the paper's benchmarks",
    )
    src.add_argument(
        "--bench-file", help="load a circuit from an ISCAS-89 .bench file"
    )
    src.add_argument(
        "--gates",
        type=int,
        default=60,
        help="generate a random design with this many gates (default)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"generator seed (default {DEFAULT_SEED})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-topk",
        description=(
            "Top-k aggressor sets in delay-noise analysis "
            "(reproduction of Gandikota et al., DAC 2007)"
        ),
    )
    add_design_source_args(parser)
    parser.add_argument("--k", type=int, default=5, help="set size (default 5)")
    parser.add_argument(
        "--mode",
        choices=(ADDITION, ELIMINATION),
        default=ELIMINATION,
        help="which top-k flavor to compute (default elimination)",
    )
    parser.add_argument(
        "--grid-points", type=int, default=256, help="envelope grid resolution"
    )
    parser.add_argument(
        "--max-sets",
        type=int,
        default=12,
        help="beam cap per irredundant list (0 = exact dominance-only)",
    )
    parser.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the exact re-evaluation of the selected set",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "record a span trace of the solve and write it to PATH "
            "(.jsonl = JSON-lines, else Chrome trace_event; see "
            "docs/observability.md and repro-trace for more)"
        ),
    )
    parser.add_argument(
        "--lint",
        choices=("preflight", "semantic", "audit"),
        default=None,
        help=(
            "run the lint preflight before solving; 'semantic' also feeds "
            "the dataflow dead-aggressor proofs to the engine's pre-prune, "
            "'audit' adds the Theorem-1 dominance audit after; errors "
            "abort the run"
        ),
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print a per-coupling marginal/solo/synergy breakdown",
    )
    parser.add_argument(
        "--paths",
        type=int,
        default=0,
        metavar="N",
        help="also print the N worst timing paths",
    )
    parser.add_argument(
        "--functional",
        action="store_true",
        help="also run the functional (glitch) noise check",
    )
    parser.add_argument(
        "--hotspots",
        type=int,
        default=0,
        metavar="N",
        help="also print the N noisiest victim nets",
    )
    parser.add_argument(
        "--signoff-period",
        type=float,
        default=None,
        metavar="NS",
        help=(
            "run noise signoff against this clock period: find the "
            "minimum fix set clearing all noise-induced violations"
        ),
    )
    budget = parser.add_argument_group(
        "resilience", "execution budget and checkpointing (docs/robustness.md)"
    )
    budget.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget for the solve, in seconds",
    )
    budget.add_argument(
        "--on-budget",
        choices=("raise", "degrade"),
        default=None,
        help=(
            "what to do when a budget cap is hit: fail with a structured "
            "error, or return a flagged partial result (default degrade)"
        ),
    )
    budget.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "periodically snapshot solver state to this JSON file; if the "
            "file already exists and matches the run, resume from it"
        ),
    )
    budget.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        metavar="N",
        help="cap the number of candidate sets scored before degrading",
    )
    budget.add_argument(
        "--convergence-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry a non-converging noise fixpoint up to N times with "
            "escalating damping before giving up"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    design = _design_from_args(args)
    config = TopKConfig(
        grid_points=args.grid_points,
        max_sets_per_cardinality=args.max_sets if args.max_sets > 0 else None,
        evaluate_with_oracle=not args.no_oracle,
    )
    stats = design.stats()
    print(
        f"design {stats.name}: {stats.gates} gates, {stats.nets} nets, "
        f"{stats.coupling_caps} coupling caps"
    )
    result = analyze(
        design,
        k=args.k,
        mode=args.mode,
        config=config,
        lint=args.lint,
        deadline_s=args.deadline,
        on_budget=args.on_budget,
        checkpoint_path=args.checkpoint,
        max_candidates=args.max_candidates,
        convergence_retries=args.convergence_retries,
        trace=args.trace,
    )
    print(result.summary())
    if args.trace is not None:
        print(f"trace written to {args.trace}")
    if result.degraded and result.degradation is not None:
        print(f"degraded: {result.degradation.summary()}")
    if result.lint_report is not None:
        print(f"lint: {result.lint_report.summary()}")

    if args.explain and result.couplings:
        from .core.explain import explain_set

        print("\nset breakdown (exact analysis):")
        print(explain_set(design, result).summary())

    if args.paths > 0:
        from .timing.paths import path_report
        from .timing.sta import run_sta

        print(f"\n{args.paths} worst paths (noiseless):")
        print(path_report(run_sta(design.netlist), n=args.paths))

    if args.hotspots > 0:
        from .noise.analysis import analyze_noise
        from .noise.report import hotspot_table

        print(f"\n{args.hotspots} noisiest nets:")
        print(
            hotspot_table(design, analyze_noise(design), count=args.hotspots)
        )

    if args.functional:
        from .noise.functional import analyze_functional_noise

        print()
        print(analyze_functional_noise(design).summary())

    if args.signoff_period is not None:
        from .core.signoff import minimum_fix_set
        from .timing.constraints import Constraints

        print()
        signoff = minimum_fix_set(
            design,
            Constraints(clock_period=args.signoff_period),
            config=config,
        )
        print(signoff.summary())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
