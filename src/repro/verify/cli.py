"""Command-line entry point: ``repro-certify``.

Examples
--------
Certify one paper benchmark (solve with certificate emission, then
re-validate the certificate with the independent checker)::

    repro-certify --benchmark i1 --k 3

Certify every paper benchmark in both solver modes and emit SARIF for a
CI code-scanning upload::

    repro-certify --all-benchmarks --format sarif --output certify.sarif

Save the certificate artifacts next to the report::

    repro-certify --benchmark i3 --save-dir certs/

Re-validate a previously saved certificate without re-running the
solve (add a design source to also recompute the interval domain)::

    repro-certify --check certs/i3-addition.json --benchmark i3
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..lint.framework import LintReport

from ..circuit.design import Design
from ..circuit.generator import PAPER_BENCHMARKS, make_paper_benchmark
from ..core.engine import ADDITION, ELIMINATION, TopKConfig
from ..runtime.errors import CertificateError
from .certificate import Certificate
from .checker import check_certificate

_MODES = (ADDITION, ELIMINATION)


def build_parser() -> argparse.ArgumentParser:
    from ..cli import add_design_source_args

    parser = argparse.ArgumentParser(
        prog="repro-certify",
        description=(
            "Proof-carrying top-k: emit a solve certificate and "
            "re-validate it with the independent checker "
            "(docs/verification.md)"
        ),
    )
    add_design_source_args(parser)
    parser.add_argument(
        "--all-benchmarks",
        action="store_true",
        help="certify every paper benchmark i1..i10 (overrides other sources)",
    )
    parser.add_argument(
        "--k", type=int, default=3, help="set-size budget (default 3)"
    )
    parser.add_argument(
        "--mode",
        choices=_MODES + ("both",),
        default="both",
        help="which solver flavor(s) to certify (default both)",
    )
    parser.add_argument(
        "--grid-points", type=int, default=256, help="envelope grid resolution"
    )
    parser.add_argument(
        "--witnesses",
        type=int,
        default=512,
        metavar="N",
        help=(
            "cap on prunes carrying full envelope witnesses in each "
            "certificate (0 = record every one; default 512)"
        ),
    )
    parser.add_argument(
        "--save-dir",
        default=None,
        metavar="DIR",
        help="save each certificate as <design>-<mode>.json under DIR",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help=(
            "validate an existing certificate file instead of solving; "
            "combine with a design source to also recompute the "
            "interval domain against the design"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the report to this file instead of stdout",
    )
    return parser


def _certify_one(
    design: Design, mode: str, args: argparse.Namespace
) -> Tuple[Certificate, "LintReport"]:
    from ..core.topk import top_k_set
    from ..lint import run_lint

    config = TopKConfig(
        grid_points=args.grid_points,
        certify=True,
        certify_witnesses=args.witnesses if args.witnesses > 0 else None,
    )
    result = top_k_set(design, args.k, mode, config)
    cert = result.certificate
    assert cert is not None
    if args.save_dir:
        os.makedirs(args.save_dir, exist_ok=True)
        path = os.path.join(
            args.save_dir, f"{design.netlist.name}-{mode}.json"
        )
        cert.save(path)
        print(f"saved {path}", file=sys.stderr)
    report = run_lint(design, certificate=cert, categories=("certificate",))
    return cert, report


def _check_saved(args: argparse.Namespace, design: Optional[Design]) -> int:
    try:
        cert = Certificate.load(args.check)
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = check_certificate(cert, design=design)
    print(cert.summary())
    print(report.summary())
    for finding in report.findings:
        print(f"  {finding}")
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.check is not None:
        design: Optional[Design] = None
        if args.benchmark or args.bench_file:
            from ..cli import design_from_args

            design = design_from_args(args)
        return _check_saved(args, design)

    if args.all_benchmarks:
        from ..cli import DEFAULT_SEED

        seed = DEFAULT_SEED if args.seed is None else args.seed
        names = sorted(PAPER_BENCHMARKS, key=lambda n: int(n[1:]))
        designs = [make_paper_benchmark(n, seed=seed) for n in names]
    else:
        from ..cli import design_from_args

        try:
            designs = [design_from_args(args)]
        except (OSError, ValueError) as exc:
            print(f"error: cannot build design: {exc}", file=sys.stderr)
            return 2

    from ..lint import render

    modes = _MODES if args.mode == "both" else (args.mode,)
    reports: List["LintReport"] = []
    failed = False
    for design in designs:
        for mode in modes:
            cert, report = _certify_one(design, mode, args)
            reports.append(report)
            verdict = "VALID" if not report.errors else "REJECTED"
            if report.errors:
                failed = True
            print(
                f"{design.netlist.name} {mode}: {verdict} "
                f"({cert.witness_coverage.get('recorded', 0)}/"
                f"{cert.witness_coverage.get('total', 0)} witnesses, "
                f"circuit bound [{cert.interval_domain.circuit.lo:.4f}, "
                f"{cert.interval_domain.circuit.hi:.4f}] ns)",
                file=sys.stderr,
            )

    text = render(reports if len(reports) > 1 else reports[0], args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        total = sum(len(r.findings) for r in reports)
        print(
            f"wrote {args.format} report ({total} finding(s)) to {args.output}"
        )
    else:
        print(text)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
