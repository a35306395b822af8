"""``repro-bench`` — paper-benchmark timing with a regression gate.

Runs the top-k solver over the paper benchmark circuits in both modes
and writes a machine-readable ``BENCH_topk.json``: per-circuit solve
time, enumeration counters, cache hit rates, and phase timings.  The
committed copy at the repository root is CI's baseline — the ``bench``
job re-runs quick mode and fails on a >15 % solve-time regression
(override with ``REPRO_BENCH_GATE_PCT``) or on *any* change to the
deterministic enumeration counters or the solution itself, which catches
silent algorithmic regressions independent of host speed.

Oracle evaluation is disabled during timing so the measurement isolates
the enumeration engine; the deterministic checks therefore compare
solver-side estimates and chosen coupling sets, which must match
bit-for-bit.  Reports written by older versions carry extra fields of
a parallel measurement; :meth:`BenchCircuit.from_json` skips them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Schema version of BENCH_topk.json.
BENCH_SCHEMA = 1

#: Default regression gate (percent) on serial solve time.
DEFAULT_GATE_PCT = 15.0

QUICK_CIRCUITS = ("i1", "i2", "i3")
FULL_CIRCUITS = tuple(f"i{n}" for n in range(1, 11))
MODES = ("addition", "elimination")


@dataclass
class BenchCircuit:
    """One (circuit, mode) measurement."""

    name: str
    mode: str
    k: int
    serial_s: float
    estimated_delay: Optional[float]
    couplings: List[int]
    candidates: int
    dominated: int
    cache_rates: Dict[str, float] = field(default_factory=dict)
    phase_s: Dict[str, float] = field(default_factory=dict)
    #: Process-wide peak RSS (MiB) observed when this entry finished —
    #: a high-water mark, so later entries of one run never report less
    #: than earlier ones.  None on platforms without ``resource``.
    peak_rss_mb: Optional[float] = None

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "BenchCircuit":
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class BenchReport:
    """The full BENCH_topk.json payload."""

    schema: int
    quick: bool
    k: int
    host: Dict[str, Any]
    generated_at: str
    circuits: List[BenchCircuit] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        out = asdict(self)
        out["circuits"] = [c.to_json() for c in self.circuits]
        return out

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "BenchReport":
        circuits = [BenchCircuit.from_json(c) for c in data.get("circuits", [])]
        known = set(cls.__dataclass_fields__) - {"circuits"}
        kwargs = {k: v for k, v in data.items() if k in known}
        return cls(circuits=circuits, **kwargs)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "BenchReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def by_key(self) -> Dict[tuple, BenchCircuit]:
        return {(c.name, c.mode): c for c in self.circuits}


def _host_info() -> Dict[str, Any]:
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _peak_rss_mb() -> Optional[float]:
    """Process-wide peak RSS in MiB (None without POSIX ``resource``)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX host
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":  # pragma: no cover - bytes there
        peak /= 1024.0
    return round(peak / 1024.0, 1)


def _solve_once(name: str, mode: str, k: int, trace: bool = False):
    """One timed engine build + solve (oracle off).

    Returns ``(seconds, solution, trace_or_None)``; ``trace=True`` also
    records the observability bundle (slightly perturbing the timing —
    the regression gate only ever sees untraced runs).
    """
    from ..circuit.generator import make_paper_benchmark
    from ..core.engine import TopKConfig, TopKEngine

    design = make_paper_benchmark(name)
    config = TopKConfig(evaluate_with_oracle=False, trace=trace)
    t0 = time.perf_counter()
    with TopKEngine(design, mode, config) as engine:
        solution = engine.solve(k)
        elapsed = time.perf_counter() - t0
        solve_trace = engine.solve_trace() if trace else None
    return elapsed, solution, solve_trace


def run_bench(
    circuits: Sequence[str],
    k: int = 5,
    quick: bool = True,
    log=print,
) -> BenchReport:
    """Measure every (circuit, mode)."""
    report = BenchReport(
        schema=BENCH_SCHEMA,
        quick=quick,
        k=k,
        host=_host_info(),
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    for name in circuits:
        for mode in MODES:
            serial_s, solution, _ = _solve_once(name, mode, k)
            stats = solution.stats
            best = solution.best
            entry = BenchCircuit(
                name=name,
                mode=mode,
                k=k,
                serial_s=round(serial_s, 4),
                estimated_delay=solution.estimated_delay(),
                couplings=sorted(best.couplings) if best else [],
                candidates=stats.candidates,
                dominated=stats.dominated,
                cache_rates={
                    c: round(r, 4) for c, r in stats.cache_rates().items()
                },
                phase_s={
                    p: round(s, 4) for p, s in sorted(stats.phase_s.items())
                },
                peak_rss_mb=_peak_rss_mb(),
            )
            report.circuits.append(entry)
            log(f"{name}/{mode}: serial {entry.serial_s:.2f}s")
    return report


def trace_bench(
    circuits: Sequence[str],
    k: int = 5,
    log=print,
) -> Dict[str, Any]:
    """One traced (untimed) solve per (circuit, mode), merged into a
    single Chrome trace document — one ``pid`` lane per solve.

    Run *after* the timed measurements so tracing overhead never touches
    the regression gate's numbers.
    """
    from ..obs.export import combine_chrome

    traces: Dict[str, Any] = {}
    for name in circuits:
        for mode in MODES:
            _, _, solve_trace = _solve_once(name, mode, k, trace=True)
            traces[f"{name}/{mode}"] = solve_trace
            log(
                f"traced {name}/{mode}: "
                f"{len(solve_trace.spans)} span(s)"
            )
    return combine_chrome(traces)


def compare(
    baseline: BenchReport,
    fresh: BenchReport,
    gate_pct: Optional[float] = None,
    log=print,
) -> List[str]:
    """Regression gate: fresh vs the committed baseline.

    Returns human-readable failure strings (empty = pass):

    * any (circuit, mode) present in the baseline but missing now;
    * any (circuit, mode) run at another ``k`` than the baseline's,
      whose pins and timing cannot apply;
    * any change in the deterministic fields (solution couplings,
      estimated delay, candidate/dominated counters) — host-independent,
      always enforced;
    * serial solve time above ``baseline * (1 + gate_pct/100)`` — the
      host-dependent part, tunable via ``REPRO_BENCH_GATE_PCT``.
    """
    if gate_pct is None:
        gate_pct = float(os.environ.get("REPRO_BENCH_GATE_PCT", DEFAULT_GATE_PCT))
    failures: List[str] = []
    fresh_by_key = fresh.by_key()
    for key, base in baseline.by_key().items():
        name, mode = key
        now = fresh_by_key.get(key)
        if now is None:
            failures.append(f"{name}/{mode}: missing from fresh run")
            continue
        if now.k != base.k:
            failures.append(
                f"{name}/{mode}: k={now.k} run cannot be gated against "
                f"the k={base.k} baseline"
            )
            continue
        if now.couplings != base.couplings:
            failures.append(
                f"{name}/{mode}: solution changed "
                f"{base.couplings} -> {now.couplings}"
            )
        if now.estimated_delay != base.estimated_delay:
            failures.append(
                f"{name}/{mode}: estimated delay changed "
                f"{base.estimated_delay} -> {now.estimated_delay}"
            )
        if (now.candidates, now.dominated) != (base.candidates, base.dominated):
            failures.append(
                f"{name}/{mode}: enumeration counters changed "
                f"({base.candidates}, {base.dominated}) -> "
                f"({now.candidates}, {now.dominated})"
            )
        limit = base.serial_s * (1.0 + gate_pct / 100.0)
        if now.serial_s > limit:
            failures.append(
                f"{name}/{mode}: serial time {now.serial_s:.2f}s exceeds "
                f"{base.serial_s:.2f}s + {gate_pct:.0f}% gate ({limit:.2f}s)"
            )
    for line in failures:
        log(f"REGRESSION: {line}")
    if not failures:
        log(
            f"gate passed: {len(baseline.circuits)} baseline entries within "
            f"{gate_pct:.0f}%"
        )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the paper benchmarks and write BENCH_topk.json.",
    )
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument(
        "--quick",
        action="store_true",
        default=True,
        help="i1-i3 only (default; what CI runs)",
    )
    scope.add_argument(
        "--full",
        action="store_true",
        help="all ten paper circuits i1-i10",
    )
    parser.add_argument("--k", type=int, default=5, help="set-size budget")
    parser.add_argument(
        "--output",
        default="BENCH_topk.json",
        help="where to write the fresh report",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="also gate the fresh run against this committed report",
    )
    parser.add_argument(
        "--gate-pct",
        type=float,
        default=None,
        help=f"serial-time regression gate percent "
        f"(default {DEFAULT_GATE_PCT:.0f} or $REPRO_BENCH_GATE_PCT)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "after the timed runs, trace one solve per (circuit, mode) "
            "and write the merged Chrome trace here (ui.perfetto.dev)"
        ),
    )
    args = parser.parse_args(argv)
    circuits = FULL_CIRCUITS if args.full else QUICK_CIRCUITS
    report = run_bench(circuits, k=args.k, quick=not args.full)
    report.save(args.output)
    print(f"wrote {args.output} ({len(report.circuits)} entries)")
    status = 0
    if args.check is not None:
        baseline = BenchReport.load(args.check)
        failures = compare(baseline, report, gate_pct=args.gate_pct)
        if failures:
            status = 1
    if args.trace is not None:
        doc = trace_bench(circuits, k=args.k)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        print(f"wrote merged Chrome trace to {args.trace}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
