"""Command-line entry point: ``repro-trace``.

Runs one traced top-k solve and exports the observability bundle.

Examples
--------
Chrome trace of a top-3 addition solve on the i1 stand-in (open the
output at https://ui.perfetto.dev)::

    repro-trace --benchmark i1 --k 3 --format chrome --output trace.json

Terminal summary of a solve, with the sampling profiler on::

    repro-trace --benchmark i2 --k 5 --profile --format summary
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..api import analyze
from ..cli import add_design_source_args, design_from_args
from ..core.engine import ADDITION, ELIMINATION, TopKConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "trace one top-k solve: span timeline, unified metrics, and "
            "(optionally) a sampling profile — see docs/observability.md"
        ),
    )
    add_design_source_args(parser)
    parser.add_argument("--k", type=int, default=3, help="set size (default 3)")
    parser.add_argument(
        "--mode",
        choices=(ADDITION, ELIMINATION),
        default=ADDITION,
        help="which top-k flavor to trace (default addition)",
    )
    parser.add_argument(
        "--format",
        choices=("chrome", "jsonl", "summary"),
        default="chrome",
        help=(
            "chrome: trace_event JSON for ui.perfetto.dev / about:tracing; "
            "jsonl: one span per line; summary: terminal tree (default "
            "chrome)"
        ),
    )
    parser.add_argument(
        "--output",
        default="trace.json",
        metavar="PATH",
        help=(
            "output file for chrome/jsonl formats (default trace.json; "
            "'-' prints to stdout)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also run the sampling profiler during the solve",
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help=(
            "certify the solve so certificate emission/checking spans "
            "appear in the trace"
        ),
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=3,
        metavar="N",
        help="tree depth of the summary view (default 3)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    design = design_from_args(args)
    config = TopKConfig(
        trace=True,
        profile=args.profile,
        certify=args.certify,
    )
    result = analyze(
        design, k=args.k, mode=args.mode, config=config, certify=args.certify
    )
    trace = result.trace
    assert trace is not None  # config.trace=True guarantees it
    if args.format == "summary":
        print(trace.summary(max_depth=args.depth))
        return 0
    if args.output == "-":
        import json

        if args.format == "chrome":
            print(json.dumps(trace.to_chrome()))
        else:
            for span in trace.spans:
                print(json.dumps(span.to_json()))
        return 0
    trace.save(args.output, fmt=args.format)
    print(
        f"wrote {args.format} trace of {len(trace.spans)} span(s) to "
        f"{args.output}"
    )
    if args.format == "chrome":
        print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
