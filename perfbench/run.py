#!/usr/bin/env python3
"""End-to-end benchmark of the top-k solver and its analysis service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload signoff-serial --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --corpus 2

``--workload all`` runs every workload, each in a fresh process.  One
workload run sets up several times (``setup_s`` is the median), then
runs whole passes of its operations with one closed-loop caller until
``--seconds`` of operation time have passed, checks every answer, and
prints each metric by name with its unit.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The traced run first repeats the
untraced passes, then runs one pass again with timing wrappers installed
(see ``layers.py``) and writes a Chrome trace and a layer summary under
``perfbench/out/``.  A failed operation or check makes the exit code 1.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("signoff-serial", "service-mixed")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

E2E_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "delay_err_pct": "%",
}

#: Child-process peak RSS at start: it includes processes run before this
#: one was exec'd (a launcher's), which no pool worker of ours caused.
_INHERITED_CHILD_RSS_KB = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


@dataclass
class Outcome:
    """What one workload run measured and found wrong."""

    records: List[Any] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _worker_peak_rss_mb() -> float:
    """Peak RSS of this process's pool workers, 0 when none outgrew the launcher's."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0 if peak > _INHERITED_CHILD_RSS_KB else 0.0


def _busy_s(records: List[Any]) -> float:
    return sum(r.latency_s for r in records)


def _cold_caches() -> None:
    """Drop the process-wide caches so every set-up starts alike."""
    from repro.perf.memo import reset_global_caches

    reset_global_caches()
    gc.collect()


def _end_to_end(
    out: Outcome, samples: List[float], records: List[Any], err_pct: float
) -> None:
    latencies = [r.latency_s for r in records]
    out.metrics.update(
        setup_s=statistics.median(samples),
        queries_per_s=len(records) / _busy_s(records),
        latency_p50_s=statistics.median(latencies),
        peak_rss_mb=_peak_rss_mb(),
        delay_err_pct=err_pct,
    )
    out.units.update(E2E_UNITS)
    out.lines.append("set-up samples (s): " + ", ".join(f"{s:.4f}" for s in samples))
    out.lines.append(
        f"latency_p50_s over {len(latencies)} operations; "
        f"operation time {_busy_s(records):.3f} s"
    )


def _check_answers(records: List[Any], reference: Any) -> None:
    """Reference answers, and no answer changing between passes."""
    from workloads import reference_problems

    seen: Dict[str, Any] = {}
    for rec in records:
        if rec.answer is None or rec.kind == "hit":
            continue
        rec.problems += reference_problems(reference, rec.key, rec.answer)
        if seen.setdefault(rec.key, rec.answer) != rec.answer:
            rec.problems.append("answer changed between passes")


def _compare_answers(label: str, expected: List[Any], actual: List[Any]) -> List[str]:
    want = {r.key: r.answer for r in expected}
    return [
        f"{r.key}: {label} answer differs"
        for r in actual
        if r.answer is not None and want.get(r.key) not in (None, r.answer)
    ]


def _layer_metrics(out: Outcome, workload: str, values: Dict[str, float]) -> None:
    from layers import MUST_READ_ZERO, NOT_APPLICABLE, PER_LAYER

    skipped = NOT_APPLICABLE[workload]
    for name, unit in PER_LAYER:
        out.metrics[name] = 0.0 if name in skipped else float(values.get(name, 0.0))
        out.units[name] = unit
    for name in MUST_READ_ZERO[workload]:
        if out.metrics[name] != 0:
            out.problems.append(f"{name} should read 0 on {workload}, read {out.metrics[name]}")
    out.lines.append("not applicable (reported as 0): " + ", ".join(skipped))


def _save_trace(
    lt: Any, out: Outcome, workload: str, seed: int, corpus: int,
    self_s: Dict[str, Dict[str, float]],
) -> None:
    from layers import NOT_APPLICABLE

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-corpus{corpus}")
    metrics = {n: {"value": v, "unit": out.units[n]} for n, v in out.metrics.items()}
    lt.save(stem + "-trace.json", metrics)
    summary = {
        "workload": workload,
        "seed": seed,
        "corpus": corpus,
        "metrics": metrics,
        "not_applicable": list(NOT_APPLICABLE[workload]),
        "self_time_s": self_s,
    }
    with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    out.lines.append(f"trace written to {stem}-trace.json")


# -- sign-off --------------------------------------------------------------


def _signoff_op(query: Any, design: Any) -> Any:
    from repro import analyze
    from workloads import K, OpRecord, answer_of, result_problems

    t0 = time.perf_counter()
    try:
        result = analyze(design, K, mode=query.mode, certify=True)
    except Exception as exc:  # a raising operation is a failed one
        traceback.print_exc(file=sys.stderr)
        return OpRecord(query.key, time.perf_counter() - t0, problems=[f"raised {exc!r}"])
    latency = time.perf_counter() - t0
    return OpRecord(
        query.key, latency, answer_of(result), result_problems(result), stats=result.stats
    )


def _signoff_split_op(lt: Any, query: Any, design: Any, parallelism: int) -> Tuple[Any, Any]:
    """``analyze()`` split into the public calls it makes, traced."""
    import repro.verify as verify_pkg
    from repro.core.engine import ADDITION, TopKConfig, TopKEngine
    from repro.core.topk_addition import top_k_addition_set
    from repro.core.topk_elimination import top_k_elimination_set
    from workloads import K, OpRecord, answer_of, result_problems

    solver = top_k_addition_set if query.mode == ADDITION else top_k_elimination_set
    config = TopKConfig(certify=True, parallelism=parallelism)
    t0 = time.perf_counter()
    try:
        engine = TopKEngine(design, query.mode, config)
        try:
            with lt.span("core.topk_set"):
                result = solver(design, K, config, engine=engine)
        finally:
            engine.close()
        report = verify_pkg.check_certificate(result.certificate, design=design)
    except Exception as exc:  # a raising operation is a failed one
        traceback.print_exc(file=sys.stderr)
        return OpRecord(query.key, time.perf_counter() - t0, problems=[f"raised {exc!r}"]), None
    latency = time.perf_counter() - t0
    problems = result_problems(result)
    if not report.ok:
        problems.append(f"certificate rejected: {report.summary()}")
    rec = OpRecord(query.key, latency, answer_of(result), problems, stats=result.stats)
    return rec, result


def run_signoff(seed: int, corpus: int, seconds: float, trace: bool) -> Outcome:
    from workloads import delay_err_pct, load_reference, signoff_queries, signoff_setup

    out = Outcome()
    queries = signoff_queries(seed, corpus)
    samples: List[float] = []
    for _ in range(SETUP_REPEATS):
        _cold_caches()
        t0 = time.perf_counter()
        designs = signoff_setup(queries)
        samples.append(time.perf_counter() - t0)

    records: List[Any] = []
    while not records or _busy_s(records) < seconds:
        records += [_signoff_op(q, d) for q, d in zip(queries, designs)]
    reference = load_reference("signoff", corpus)
    _check_answers(records, reference)
    out.records = records
    first_pass = records[: len(queries)]
    err = delay_err_pct([r.answer for r in first_pass if r.answer])
    out.lines.append(
        f"{len(queries)} queries per pass (k=5, certified, serial), "
        f"{len(records) // len(queries)} pass(es); reference answers "
        f"{'checked' if reference else 'not recorded'} for corpus {corpus}"
    )
    if not trace:
        _end_to_end(out, samples, records, err)
        return out

    from layers import PARALLEL_ONLY, LayerTrace, solve_metrics, span_metrics
    from repro import make_paper_benchmark

    lt = LayerTrace()
    lt.install()
    try:
        _cold_caches()
        with lt.operation("setup", root="setup"):
            designs = signoff_setup(queries, build=lt.timed("circuit.build", make_paper_benchmark))
        traced: List[Any] = []
        cert_bytes: List[int] = []
        for i, (query, design) in enumerate(zip(queries, designs)):
            with lt.operation(f"op{i}", key=query.key):
                rec, result = _signoff_split_op(lt, query, design, 1)
            traced.append(rec)
            if result is not None:
                cert_bytes.append(len(json.dumps(result.certificate.to_json())))
        serial_worker_rss = _worker_peak_rss_mb()
        # The same queries on two worker processes: the wave speed-up.
        parallel: List[Any] = []
        for i, (query, design) in enumerate(zip(queries, designs)):
            with lt.operation(f"parallel{i}", root="parallel", key=query.key):
                parallel.append(_signoff_split_op(lt, query, design, 2)[0])
    finally:
        lt.uninstall()
        # The 2-core solves' shared memory started the stdlib's tracker
        # process; stop it and wait for it rather than leave it running.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()

    out.records = records + traced + parallel
    out.problems += _compare_answers("traced", first_pass, traced)
    out.problems += _compare_answers("2-core", traced, parallel)
    self_s = {root: lt.self_times(root) for root in ("setup", "op", "parallel")}
    values = solve_metrics([r.stats for r in traced if r.stats is not None])
    for name in PARALLEL_ONLY:
        if values[name]:
            out.problems.append(f"{name} should read 0 in serial solves, read {values[name]}")
    if serial_worker_rss:
        out.problems.append("serial solves started worker processes")
    in_parallel = solve_metrics([r.stats for r in parallel if r.stats is not None])
    values.update({name: in_parallel[name] for name in PARALLEL_ONLY})
    values.update(span_metrics(self_s["op"], values["noise.seed_s"]))
    values["circuit.build_s"] = self_s["setup"].get("circuit.build", 0.0)
    values["noise.delay_err_pct"] = delay_err_pct([r.answer for r in traced if r.answer])
    values["verify.certificate_bytes"] = statistics.mean(cert_bytes) if cert_bytes else 0.0
    values["runtime.checkpoint_bytes"] = lt.checkpoint_bytes
    values["perf.worker_peak_rss_mb"] = _worker_peak_rss_mb()
    values["perf.speedup"] = (
        self_s["op"].get("core.solve", 0.0) / self_s["parallel"].get("core.solve", float("inf"))
    )
    qps = len(records) / _busy_s(records)
    values["obs.trace_overhead_pct"] = (qps - len(traced) / _busy_s(traced)) / qps * 100.0
    _layer_metrics(out, "signoff-serial", values)
    _save_trace(lt, out, "signoff-serial", seed, corpus, self_s)
    return out


# -- service ---------------------------------------------------------------


async def _service_pass(service: Any, jobs: List[Any], lt: Any = None) -> List[Any]:
    from repro.service.client import ServiceClient
    from repro.service.protocol import DONE
    from repro.service.serialize import results_equal
    from workloads import OpRecord, answer_of, result_problems

    client = ServiceClient(service)
    first: Dict[int, Any] = {}
    records: List[Any] = []
    for i, job in enumerate(jobs):
        scope = lt.operation(f"op{i}", key=job.key) if lt is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                view = await client.submit(job.spec)
                final = await client.wait(view.job_id)
                result = await client.result(view.job_id)
        except Exception as exc:  # a raising operation is a failed one
            traceback.print_exc(file=sys.stderr)
            records.append(OpRecord(job.key, time.perf_counter() - t0, problems=[f"raised {exc!r}"]))
            continue
        latency = time.perf_counter() - t0
        rec = OpRecord(job.key, latency, kind="hit" if final.store_hit else "cold", view=final)
        rec.problems = result_problems(result)
        if final.state != DONE:
            rec.problems.append(f"job ended {final.state}")
        if result is not None:
            rec.answer = answer_of(result)
        if job.first_ask:
            if final.store_hit:
                rec.problems.append("first ask was served from the store")
            first[job.question] = result
            rec.stats = result.stats if result is not None else None
        elif not final.store_hit:
            rec.problems.append("repeated question was not a store hit")
        elif result is None or first.get(job.question) is None or not results_equal(
            result, first[job.question]
        ):
            rec.problems.append("store hit differs from its cold solve")
        records.append(rec)
    return records


async def _start_service(root: str, corpus: int, lt: Any = None) -> Any:
    """A started service on an empty store, after one warm-up job."""
    from repro.service.client import ServiceClient
    from repro.service.core import AnalysisService
    from workloads import warmup_spec

    # One caller never has two solves in flight; a second worker thread
    # only makes which thread (and malloc arena) takes a job vary from
    # run to run, and peak RSS with it.
    service = AnalysisService(root, max_workers=1)
    if lt is not None:
        lt.install_store(service.store)
    await service.start()
    await ServiceClient(service).run(warmup_spec(corpus))
    return service


async def _run_service(seed: int, corpus: int, seconds: float, trace: bool) -> Outcome:
    from workloads import delay_err_pct, load_reference, service_stream

    out = Outcome()
    os.makedirs(OUT_DIR, exist_ok=True)
    roots: List[str] = []
    services: List[Any] = []

    async def restart(lt: Any = None) -> float:
        """Close the current service; start one on a fresh, empty store."""
        while services:
            await services.pop().close()
        # Dropped right away, a closed service's files are never written
        # back to disk, so one pass's writes cannot slow the next.
        while roots:
            shutil.rmtree(roots.pop(), ignore_errors=True)
        _cold_caches()
        roots.append(tempfile.mkdtemp(prefix="store-", dir=OUT_DIR))
        scope = lt.operation("setup", root="setup") if lt is not None else nullcontext()
        t0 = time.perf_counter()
        with scope:
            services.append(await _start_service(roots[-1], corpus, lt))
        return time.perf_counter() - t0

    try:
        samples = [await restart() for _ in range(SETUP_REPEATS)]
        stream = service_stream(seed, corpus)
        records: List[Any] = []
        while True:
            records += await _service_pass(services[0], stream)
            if _busy_s(records) >= seconds:
                break
            await restart()  # the next pass starts from an empty store
        reference = load_reference("service", corpus)
        _check_answers(records, reference)
        out.records = records
        first_pass = records[: len(stream)]
        colds = [r for r in first_pass if r.kind == "cold"]
        err = delay_err_pct([r.answer for r in colds if r.answer])
        out.lines.append(
            f"{len(stream)} jobs per pass ({len(colds)} cold, {len(stream) - len(colds)} "
            f"store hits), {len(records) // len(stream)} pass(es), each on an empty "
            f"store; reference answers {'checked' if reference else 'not recorded'} "
            f"for corpus {corpus}"
        )
        if not trace:
            _end_to_end(out, samples, records, err)
            return out

        from layers import LayerTrace, dir_bytes, solve_metrics, span_metrics

        lt = LayerTrace()
        lt.install()
        try:
            await restart(lt)
            root = roots[-1]
            traced = await _service_pass(services[0], stream, lt)
            hit_rate = services[0].store.stats().hit_rate
            await services.pop().close()
        finally:
            lt.uninstall()
        out.records = records + traced
        out.problems += _compare_answers("traced", first_pass, traced)
        self_s = {name: lt.self_times(name) for name in ("setup", "op")}
        cold = [r for r in traced if r.kind == "cold"]
        hits = [r for r in traced if r.kind == "hit"]
        values = solve_metrics([r.stats for r in cold if r.stats is not None])
        values.update(span_metrics(self_s["op"], values["noise.seed_s"]))
        values["circuit.build_s"] = self_s["op"].get("circuit.build", 0.0)
        values["noise.delay_err_pct"] = delay_err_pct([r.answer for r in cold if r.answer])
        values["runtime.checkpoint_bytes"] = lt.checkpoint_bytes
        values["service.cold_s"] = statistics.mean(r.view.queue_wait_s + r.view.run_s for r in cold)
        values["service.hit_s"] = statistics.mean(r.view.queue_wait_s + r.view.run_s for r in hits)
        values["service.queue_wait_s"] = statistics.mean(r.view.queue_wait_s for r in cold)
        values["service.hit_rate"] = hit_rate
        values["service.result_bytes"] = dir_bytes(os.path.join(root, "results"))
        values["service.memo_bytes"] = dir_bytes(os.path.join(root, "memos"))
        values["verify.certificate_bytes"] = _mean_certificate_bytes(root)
        qps = len(records) / _busy_s(records)
        values["obs.trace_overhead_pct"] = (qps - len(traced) / _busy_s(traced)) / qps * 100.0
        _layer_metrics(out, "service-mixed", values)
        _save_trace(lt, out, "service-mixed", seed, corpus, self_s)
        return out
    finally:
        while services:
            await services.pop().close()
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)


def _mean_certificate_bytes(root: str) -> float:
    """Mean JSON size of the certificates a store holds."""
    sizes = []
    results = os.path.join(root, "results")
    for name in sorted(os.listdir(results)):
        with open(os.path.join(results, name), encoding="utf-8") as fh:
            certificate = json.load(fh)["result"]["certificate"]
        sizes.append(len(json.dumps(certificate)))
    return statistics.mean(sizes) if sizes else 0.0


def run_service(seed: int, corpus: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(_run_service(seed, corpus, seconds, trace))


# -- entry point -----------------------------------------------------------


def _report(workload: str, seed: int, corpus: int, out: Outcome) -> int:
    failed = sum(1 for r in out.records if r.problems)
    for rec in out.records:
        for problem in rec.problems:
            print(f"FAILED {rec.key}: {problem}", file=sys.stderr)
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = failed == 0 and not out.problems
    print(
        f"workload {workload}, seed {seed}, corpus {corpus}: "
        f"{len(out.records)} attempted, {failed} failed"
    )
    for line in out.lines:
        print(f"  {line}")
    for name, value in out.metrics.items():
        print(f"  {name:36s} {value:.6g} {out.units[name]}")
    metrics = {n: {"value": v, "unit": out.units[n]} for n, v in out.metrics.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": len(out.records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; a combined result line last."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--corpus", str(args.corpus),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {workload} printed no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed: query order and service stream")
    parser.add_argument("--corpus", type=int, default=None,
                        help="corpus seed: which designs are solved")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="operation time to measure at least; whole passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(f"perfbench: no repro source tree at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from workloads import DEFAULT_CORPUS, DEFAULT_SEED

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.corpus is None:
        args.corpus = DEFAULT_CORPUS
    if args.workload == "all":
        return _run_all(args)
    runner = run_service if args.workload == "service-mixed" else run_signoff
    out = runner(args.seed, args.corpus, args.seconds, bool(args.trace))
    return _report(args.workload, args.seed, args.corpus, out)


if __name__ == "__main__":
    sys.exit(main())
