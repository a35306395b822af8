"""``repro-serve`` — run and exercise the analysis service.

Two subcommands::

    repro-serve serve --store .repro-store --port 8787 --workers 2
        Boot the HTTP front end and serve until interrupted.

    repro-serve smoke --store .repro-store [--benchmarks i1,i2] \\
                      [--repeat 2] [--k 3] [--trace out.json]
        Boot an ephemeral server, submit every selected benchmark
        ``--repeat`` times concurrently, poll all jobs to completion,
        and verify the service contract end to end: every repeat is
        bit-identical to the first solve of its benchmark, repeats are
        served from the persistent store, and (with ``--certify``)
        every result's certificate passes the independent checker
        (:func:`repro.verify.check_certificate`, against the
        benchmark's design).  Exits non-zero on any violation.
        ``--trace`` writes the merged Chrome trace of all jobs — the
        artifact CI uploads.

The smoke is the CI `service` job's payload; see docs/service.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..circuit.design import Design
from ..circuit.generator import PAPER_BENCHMARKS
from ..core.report import TopKResult
from ..verify import check_certificate
from .client import HttpClient
from .http import ServiceServer, serve
from .protocol import JobSpec, ServiceError
from .serialize import results_equal


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="analysis-as-a-service front end over the top-k solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the HTTP service")
    p_serve.add_argument(
        "--store", required=True, help="persistent store directory"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787)
    p_serve.add_argument(
        "--workers", type=int, default=2, help="concurrent solve slots"
    )

    p_smoke = sub.add_parser(
        "smoke", help="end-to-end submit->poll->result acceptance run"
    )
    p_smoke.add_argument(
        "--store",
        default=None,
        help="persistent store directory (default: fresh temp dir)",
    )
    p_smoke.add_argument(
        "--benchmarks",
        default="all",
        help="comma-separated benchmark names, or 'all' (the default)",
    )
    p_smoke.add_argument("--k", type=int, default=3)
    p_smoke.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="identical submissions per benchmark (>= 2 exercises the store)",
    )
    p_smoke.add_argument(
        "--certify",
        action="store_true",
        help="certify every job and check each result's certificate "
        "with the independent checker",
    )
    p_smoke.add_argument("--workers", type=int, default=2)
    p_smoke.add_argument(
        "--trace", default=None, help="write the merged Chrome trace here"
    )
    p_smoke.add_argument(
        "--timeout", type=float, default=600.0, help="per-job poll timeout (s)"
    )
    return parser


def _benchmark_names(arg: str) -> List[str]:
    if arg == "all":
        return sorted(PAPER_BENCHMARKS, key=lambda n: int(n[1:]))
    names = [n.strip() for n in arg.split(",") if n.strip()]
    unknown = sorted(set(names) - set(PAPER_BENCHMARKS))
    if unknown:
        raise ServiceError(
            f"unknown benchmark(s): {', '.join(unknown)}",
            known=sorted(PAPER_BENCHMARKS),
        )
    return names


async def _run_serve(args: argparse.Namespace) -> int:
    server = await serve(
        args.store, host=args.host, port=args.port, max_workers=args.workers
    )
    print(
        f"repro-serve: listening on http://{args.host}:{server.port} "
        f"(store: {args.store}, workers: {args.workers})"
    )
    try:
        while True:  # serve until interrupted
            await asyncio.sleep(3600)
    except asyncio.CancelledError:
        raise
    finally:
        await server.close()


async def _boot(store: str, workers: int) -> ServiceServer:
    return await serve(store, host="127.0.0.1", port=0, max_workers=workers)


def _run_smoke(args: argparse.Namespace) -> int:
    """Boot an ephemeral server and exercise it over real HTTP.

    The server's event loop runs in a background thread so the
    blocking :class:`HttpClient` in this thread talks to it exactly
    like an external caller would.
    """
    names = _benchmark_names(args.benchmarks)
    store = args.store
    tmp: Optional[tempfile.TemporaryDirectory] = None
    if store is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-smoke-")
        store = tmp.name
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    try:
        server = asyncio.run_coroutine_threadsafe(
            _boot(store, args.workers), loop
        ).result(timeout=60)
        try:
            failures = _smoke_against(server, names, args)
        finally:
            trace_doc = server.service.merged_trace()
            metrics = server.service.metrics_json()
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(
                timeout=60
            )
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(trace_doc, fh)
            print(f"repro-serve: merged job trace written to {args.trace}")
        _print_metrics(metrics)
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        verdict = "PASS" if not failures else "FAIL"
        print(
            f"repro-serve smoke: {verdict} "
            f"({len(names)} benchmark(s) x {args.repeat} submission(s))"
        )
        return 0 if not failures else 1
    finally:
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=10)
        loop.close()
        if tmp is not None:
            tmp.cleanup()


def _smoke_against(
    server: ServiceServer, names: List[str], args: argparse.Namespace
) -> List[str]:
    """Submit everything concurrently, then poll and verify."""
    client = HttpClient("127.0.0.1", server.port, timeout_s=args.timeout)
    health = client.healthz()
    if not health.get("ok"):
        return [f"healthz not ok: {health}"]
    submitted: List[Tuple[str, int, str]] = []
    for name in names:
        for repeat in range(args.repeat):
            spec = JobSpec(
                benchmark=name, k=args.k, certify=args.certify
            )
            view = client.submit(spec)
            submitted.append((name, repeat, view.job_id))
    failures: List[str] = []
    first: Dict[str, Any] = {}
    designs: Dict[str, Design] = {}
    for name, repeat, job_id in submitted:
        try:
            result = client.poll_result(
                job_id, timeout_s=args.timeout
            )
        except ServiceError as exc:
            failures.append(f"{name}#{repeat} ({job_id}): {exc}")
            continue
        view = client.status(job_id)
        print(
            f"  {name}#{repeat} {job_id}: delay={result.delay} "
            f"couplings={sorted(result.couplings)} "
            f"store_hit={view.store_hit} queue_wait={view.queue_wait_s:.3f}s"
        )
        if args.certify:
            problem = _certificate_problem(result, name, designs)
            if problem is not None:
                failures.append(f"{name}#{repeat} ({job_id}): {problem}")
        baseline = first.get(name)
        if baseline is None:
            first[name] = result
        elif not results_equal(baseline, result):
            failures.append(
                f"{name}#{repeat}: result differs from first submission"
            )
    stats = client.store_summary()
    if args.repeat > 1 and len(names) > 0:
        expected_hits = len(names) * (args.repeat - 1)
        if stats["hits"] < expected_hits:
            failures.append(
                f"store hits {stats['hits']} < expected {expected_hits} "
                f"(repeats must be served from the store)"
            )
    return failures


def _certificate_problem(
    result: TopKResult, name: str, designs: Dict[str, Design]
) -> Optional[str]:
    """Why ``result``'s certificate fails the independent checker run
    against benchmark ``name``'s design (built once), or None."""
    if result.certificate is None:
        return "certificate missing"
    design = designs.get(name)
    if design is None:
        design = designs[name] = JobSpec(benchmark=name).build_design()
    report = check_certificate(result.certificate, design=design)
    return None if report.ok else f"certificate rejected: {report.summary()}"


def _print_metrics(metrics: Dict[str, Any]) -> None:
    gauges = metrics.get("gauges", {})
    counters = metrics.get("counters", {})
    print(
        "repro-serve: store hit rate "
        f"{gauges.get('service.store.hit_rate', 0.0):.2%}, "
        f"jobs submitted {counters.get('service.jobs.submitted', 0):.0f}, "
        f"completed {counters.get('service.jobs.completed', 0):.0f}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            return asyncio.run(_run_serve(args))
        return _run_smoke(args)
    except ServiceError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro-serve: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
