"""Top-k aggressor sets of either flavor (paper Sections 3.3 and 3.4).

Addition and elimination are duals: one engine solves both, and this
front end turns a solution into a :class:`~repro.core.report.TopKResult`
the same way for both.  The mode decides only four things: the couplings
the exact analysis (the oracle) times a set S under (S alone, or all but
S), that run's certificate label (``oracle:[…]`` or
``oracle:without[…]``), which delay is better (:meth:`TopKEngine._better`)
and what an empty set reports (addition: the noiseless delay, without
the oracle; elimination: the oracle on the full design).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, List, Optional, Tuple

from ..circuit.design import Design
from ..noise.analysis import NoiseResult, noise_result_with_couplings
from .engine import ADDITION, EngineSolution, TopKConfig, TopKEngine, TopKError
from .report import SweepPoint, TopKResult, coupling_details


def top_k_set(
    design: Design,
    k: int,
    mode: str,
    config: Optional[TopKConfig] = None,
    engine: Optional[TopKEngine] = None,
) -> TopKResult:
    """Compute the top-k set of a design in ``mode`` (``"addition"`` or
    ``"elimination"``; k = 0 returns the baseline of the mode).

    ``engine`` is a pre-built ``mode`` engine over the same design, to
    reuse across several k; its caller closes it.  The reported ``delay``
    is the exact circuit delay with the set added to the noiseless design
    (addition) or removed from the fully noisy one (elimination);
    ``runtime_s`` counts from the engine's construction to the end of the
    solve.
    """
    if engine is not None:
        if engine.mode != mode:
            raise TopKError(f"a {mode} solve got a {engine.mode} engine")
        return _solve(design, engine, k)
    with TopKEngine(design, mode, config) as owned:
        return _solve(design, owned, k)


def top_k_sweep(
    design: Design,
    ks: Iterable[int],
    mode: str,
    config: Optional[TopKConfig] = None,
) -> List[SweepPoint]:
    """Delay-vs-k series in ``mode`` (Figure 10 / Table 2).

    A single engine is reused so sweeps share all common enumeration work;
    the reported per-k runtime is the cumulative solver time up to that k,
    which corresponds to what a from-scratch run at that k would do.  With
    the oracle off, a point's delay falls back to the noiseless delay
    (addition) or the all-aggressor delay (elimination).
    """
    points: List[SweepPoint] = []
    with TopKEngine(design, mode, config) as engine:
        for k in sorted(set(int(k) for k in ks)):
            result = _solve(design, engine, k)
            fallback = result.nominal_delay
            if mode != ADDITION and result.all_aggressor_delay is not None:
                fallback = result.all_aggressor_delay
            points.append(
                SweepPoint(
                    k=k,
                    delay=result.delay if result.delay is not None else fallback,
                    runtime_s=result.runtime_s,
                    result=result,
                )
            )
    return points


def _solve(design: Design, engine: TopKEngine, k: int) -> TopKResult:
    solution = engine.solve(k)
    # lint: allow[RPR801] runtime_s is reported and never steers an answer
    runtime = time.perf_counter() - engine.created_t
    return _result_from_solution(design, engine, solution, runtime)


def _result_from_solution(
    design: Design,
    engine: TopKEngine,
    solution: EngineSolution,
    runtime: float,
) -> TopKResult:
    cfg = engine.config
    addition = engine.mode == ADDITION
    chosen = solution.best.couplings if solution.best else frozenset()
    delay: Optional[float] = None
    budget = cfg.budget
    retries = budget.convergence_retries if budget is not None else 0
    monitor = engine.monitor if budget is not None else None
    oracle_traces: List[Tuple[str, NoiseResult]] = []
    if cfg.evaluate_with_oracle and addition and not chosen:
        delay = solution.nominal_delay
    elif cfg.evaluate_with_oracle:
        with engine._phase("oracle"):
            # Optionally let the exact analysis arbitrate among the best
            # finalists — closes sub-threshold ranking ties the one-shot
            # superposition score cannot distinguish.
            pool = solution.finalists[: cfg.oracle_rescore_top]
            if solution.degraded and solution.degradation is not None and (
                solution.degradation.reason == "deadline"
            ):
                # Past the deadline, bound the tail: one oracle call only.
                pool = pool[:1]
            everything = design.coupling.all_indices()
            best_delay: Optional[float] = None
            for couplings in [c.couplings for c in pool] or [frozenset()]:
                # S alone (addition) or ``design.coupling.without(S)``.
                noisy = noise_result_with_couplings(
                    design,
                    couplings if addition else everything - couplings,
                    config=cfg.noise,
                    graph=engine.graph,
                    monitor=monitor,
                    retries=retries,
                )
                d = noisy.circuit_delay()
                if cfg.certify:
                    label = "oracle:" if addition else "oracle:without"
                    oracle_traces.append((f"{label}{sorted(couplings)}", noisy))
                if best_delay is None or engine._better(d, best_delay):
                    best_delay = d
                    chosen = couplings
            delay = best_delay
    result = TopKResult(
        mode=engine.mode,
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
    if cfg.certify:
        from ..obs.tracer import activate as _obs_activate
        from ..verify.certificate import emit_certificate

        with _obs_activate(engine.tracer):
            certificate = emit_certificate(
                engine, solution, result, oracle_traces
            )
        result = replace(result, certificate=certificate)
    if cfg.trace:
        result = replace(result, trace=engine.solve_trace())
    return result
