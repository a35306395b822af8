"""Top-k aggressors *addition* set (paper Section 3.3).

Given a timing analysis without delay noise, find the k aggressor-victim
couplings whose delay noise, added to the noiseless analysis, maximizes the
circuit delay.  Used to budget how many simultaneously switching aggressors
a signoff flow must honor, or to prioritize coupling fixes.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, List, Optional, Tuple

from ..circuit.design import Design
from ..noise.analysis import NoiseResult, noise_result_with_couplings
from .engine import ADDITION, EngineSolution, TopKConfig, TopKEngine
from .report import SweepPoint, TopKResult, coupling_details


def top_k_addition_set(
    design: Design,
    k: int,
    config: Optional[TopKConfig] = None,
    engine: Optional[TopKEngine] = None,
) -> TopKResult:
    """Compute the top-k addition set of a design.

    Parameters
    ----------
    design:
        The design under analysis.
    k:
        Set-size budget (>= 0; k = 0 returns the noiseless baseline).
    config:
        Solver knobs (see :class:`~repro.core.engine.TopKConfig`).
    engine:
        A pre-built engine to reuse across multiple k (must be an
        addition-mode engine over the same design).
    """
    cfg = config if config is not None else TopKConfig()
    t0 = time.perf_counter()
    owned = engine is None
    if engine is None:
        engine = TopKEngine(design, ADDITION, cfg)
    try:
        solution = engine.solve(k)
        runtime = time.perf_counter() - t0
        return _result_from_solution(design, engine, solution, runtime)
    finally:
        if owned:
            engine.close()


def top_k_addition_sweep(
    design: Design,
    ks: Iterable[int],
    config: Optional[TopKConfig] = None,
) -> List[SweepPoint]:
    """Delay-vs-k series for the addition set (Figure 10 / Table 2a).

    A single engine is reused so sweeps share all common enumeration work;
    the reported per-k runtime is the cumulative solver time up to that k,
    which corresponds to what a from-scratch run at that k would do.
    """
    cfg = config if config is not None else TopKConfig()
    t0 = time.perf_counter()
    engine = TopKEngine(design, ADDITION, cfg)
    points: List[SweepPoint] = []
    for k in sorted(set(int(k) for k in ks)):
        solution = engine.solve(k)
        runtime = time.perf_counter() - t0
        result = _result_from_solution(design, engine, solution, runtime)
        points.append(SweepPoint(k=k, delay=result.delay if result.delay
                                 is not None else result.nominal_delay,
                                 runtime_s=runtime, result=result))
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
    if engine.config.evaluate_with_oracle and chosen:
        with engine._phase("oracle"):
            # Optionally let the exact analysis arbitrate among the best
            # finalists — closes sub-threshold ranking ties the one-shot
            # superposition score cannot distinguish.
            pool = solution.finalists[: engine.config.oracle_rescore_top]
            if solution.degraded and solution.degradation is not None and (
                solution.degradation.reason == "deadline"
            ):
                # Past the deadline, bound the tail: one oracle call only.
                pool = pool[:1]
            best_delay: Optional[float] = None
            for cand in pool or [solution.best]:
                noisy = noise_result_with_couplings(
                    design,
                    cand.couplings,
                    config=engine.config.noise,
                    graph=engine.graph,
                    monitor=monitor,
                    retries=retries,
                )
                d = noisy.circuit_delay()
                if engine.config.certify:
                    oracle_traces.append(
                        (f"oracle:{sorted(cand.couplings)}", noisy)
                    )
                if best_delay is None or d > best_delay:
                    best_delay = d
                    chosen = cand.couplings
            delay = best_delay
    elif engine.config.evaluate_with_oracle:
        delay = solution.nominal_delay
    result = TopKResult(
        mode=ADDITION,
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
