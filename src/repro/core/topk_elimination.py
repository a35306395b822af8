"""Top-k aggressors *elimination* set (paper Section 3.4).

Given the fully noisy analysis, find the k aggressor-victim couplings
whose removal (shielding, spacing, buffering) reduces the circuit delay by
the maximum amount — the "which 10 couplings should I fix" question the
paper motivates.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, List, Optional, Tuple

from ..circuit.design import Design
from ..noise.analysis import NoiseResult, analyze_noise, analyze_noise_resilient
from .engine import ELIMINATION, EngineSolution, TopKConfig, TopKEngine
from .report import SweepPoint, TopKResult, coupling_details


def top_k_elimination_set(
    design: Design,
    k: int,
    config: Optional[TopKConfig] = None,
    engine: Optional[TopKEngine] = None,
) -> TopKResult:
    """Compute the top-k elimination set of a design.

    Parameters mirror :func:`~repro.core.topk_addition.top_k_addition_set`;
    the reported ``delay`` is the circuit delay *after* removing the set
    from the design (evaluated by the exact iterative analysis).
    """
    cfg = config if config is not None else TopKConfig()
    t0 = time.perf_counter()
    owned = engine is None
    if engine is None:
        engine = TopKEngine(design, ELIMINATION, cfg)
    try:
        solution = engine.solve(k)
        runtime = time.perf_counter() - t0
        return _result_from_solution(design, engine, solution, runtime)
    finally:
        if owned:
            engine.close()


def top_k_elimination_sweep(
    design: Design,
    ks: Iterable[int],
    config: Optional[TopKConfig] = None,
) -> List[SweepPoint]:
    """Delay-vs-k series for the elimination set (Figure 10 / Table 2b)."""
    cfg = config if config is not None else TopKConfig()
    t0 = time.perf_counter()
    engine = TopKEngine(design, ELIMINATION, cfg)
    points: List[SweepPoint] = []
    for k in sorted(set(int(k) for k in ks)):
        solution = engine.solve(k)
        runtime = time.perf_counter() - t0
        result = _result_from_solution(design, engine, solution, runtime)
        fallback = (
            result.all_aggressor_delay
            if result.all_aggressor_delay is not None
            else result.nominal_delay
        )
        points.append(
            SweepPoint(
                k=k,
                delay=result.delay if result.delay is not None else fallback,
                runtime_s=runtime,
                result=result,
            )
        )
    return points


def _result_from_solution(
    design: Design,
    engine: TopKEngine,
    solution: EngineSolution,
    runtime: float,
) -> TopKResult:
    chosen = solution.best.couplings if solution.best else frozenset()
    delay: Optional[float] = None
    budget = engine.config.budget
    retries = budget.convergence_retries if budget is not None else 0
    monitor = engine.monitor if budget is not None else None
    oracle_traces: List[Tuple[str, NoiseResult]] = []
    if engine.config.evaluate_with_oracle:
        with engine._phase("oracle"):
            pool = solution.finalists[: engine.config.oracle_rescore_top]
            if solution.degraded and solution.degradation is not None and (
                solution.degradation.reason == "deadline"
            ):
                # Past the deadline, bound the tail: one oracle call only.
                pool = pool[:1]
            best_delay: Optional[float] = None
            for cand in pool or [None]:
                couplings = cand.couplings if cand is not None else frozenset()
                view = design.coupling.without(frozenset(couplings))
                if retries > 0:
                    noisy = analyze_noise_resilient(
                        design, coupling=view, config=engine.config.noise,
                        graph=engine.graph, monitor=monitor, retries=retries,
                    )
                else:
                    noisy = analyze_noise(
                        design, coupling=view, config=engine.config.noise,
                        graph=engine.graph, monitor=monitor,
                    )
                d = noisy.circuit_delay()
                if engine.config.certify:
                    oracle_traces.append(
                        (f"oracle:without{sorted(couplings)}", noisy)
                    )
                if best_delay is None or d < best_delay:
                    best_delay = d
                    chosen = couplings
            delay = best_delay
    result = TopKResult(
        mode=ELIMINATION,
        requested_k=solution.k,
        couplings=frozenset(chosen),
        details=coupling_details(design, frozenset(chosen)),
        delay=delay,
        estimated_delay=solution.estimated_delay(),
        nominal_delay=solution.nominal_delay,
        all_aggressor_delay=solution.all_aggressor_delay,
        runtime_s=runtime,
        stats=engine.stats,
        degraded=solution.degraded,
        degradation=solution.degradation,
    )
    if engine.config.certify:
        from ..obs.tracer import activate as _obs_activate
        from ..verify.certificate import emit_certificate

        with _obs_activate(engine.tracer):
            certificate = emit_certificate(
                engine, solution, result, oracle_traces
            )
        result = replace(result, certificate=certificate)
    if engine.config.trace:
        result = replace(result, trace=engine.solve_trace())
    return result
