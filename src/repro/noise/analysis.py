"""Iterative whole-circuit delay-noise analysis.

This is the conventional engine the paper's algorithm is built on top of
(and the evaluation oracle for the brute-force baseline): compute timing
windows, build each victim's aggressor envelopes from the aggressors'
windows, superimpose to get per-net delay noise, fold the noise back into
the timing windows, and iterate to the fixpoint (the chicken-and-egg
problem of [3], [5]; convergence on the window lattice per [4]).

Two starting points are supported:

* ``optimistic`` — start from noiseless windows; noise and windows grow
  monotonically to the least fixpoint.
* ``pessimistic`` — first iteration assumes every aggressor has an
  infinite window; the solution shrinks to a (generally equal) fixpoint.

``circuit_delay_with_couplings`` answers the what-if question both top-k
flavors are scored by: the circuit delay when exactly a given subset of
couplings exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.coupling import CouplingCap, CouplingGraph, CouplingView
from ..circuit.design import Design
from ..circuit.netlist import Netlist
from ..obs.tracer import span as _span
from ..runtime import faultinject
from ..runtime.budget import RuntimeMonitor
from ..runtime.errors import ReproError
from ..timing.graph import TimingGraph
from ..timing.sta import TimingResult, run_sta
from ..timing.waveform import grid_rows
from ..timing.windows import TimingWindow
from .envelope import (
    NoiseEnvelope,
    check_trapezoids,
    envelope_breakpoints,
    primary_envelope,
    sum_trapezoids,
)
from .filters import LogicalExclusions, filter_envelopes, windows_can_interact
from .pulse import coupling_pulses, pulse_for_coupling
from .superposition import delay_noise_stacked

#: Damping escalation schedule used by :func:`analyze_noise_resilient`
#: (attempt 0 uses the configured damping, attempt n the n-th entry).
RETRY_DAMPING_SCHEDULE = (0.35, 0.6, 0.8)


class ConvergenceError(ReproError, RuntimeError):
    """Raised when the fixpoint iteration exceeds its budget.

    Carries enough state to diagnose or salvage the run instead of
    losing everything:

    Attributes
    ----------
    history:
        Per-iteration maximum delay-noise change (ns), oldest first.
    last_delay_noise:
        The last stable per-net delay-noise map — a usable (if
        unconverged) iterate.
    iterations:
        Iterations actually performed.
    tolerance_ns:
        The convergence threshold that was not met.
    """

    def __init__(
        self,
        message: str,
        *,
        history: Optional[Sequence[float]] = None,
        last_delay_noise: Optional[Dict[str, float]] = None,
        iterations: int = 0,
        tolerance_ns: float = 0.0,
        **context,
    ) -> None:
        super().__init__(
            message,
            iterations=iterations,
            tolerance_ns=tolerance_ns,
            **context,
        )
        self.history: List[float] = list(history or [])
        self.last_delay_noise: Dict[str, float] = dict(last_delay_noise or {})
        self.iterations = iterations
        self.tolerance_ns = tolerance_ns


@dataclass(frozen=True)
class NoiseConfig:
    """Knobs of the iterative analysis.

    Attributes
    ----------
    max_iterations:
        Iteration budget; industrial tools report 3-4 typical iterations
        (paper Section 1), we default to a safe 12.
    tolerance_ns:
        Convergence threshold on the largest per-net delay-noise change.
    start:
        ``"optimistic"`` or ``"pessimistic"`` seeding (see module docs).
    grid_points:
        Samples per victim grid in superposition.
    window_filter:
        Apply the timing-window overlap false-aggressor filter.
    strict:
        Raise :class:`ConvergenceError` if the budget is exhausted
        (otherwise return the last iterate flagged unconverged).
    damping:
        Under-relaxation factor in [0, 1): each iteration's delay-noise
        map is blended as ``(1 - damping) * new + damping * old``.
        Zero (the default) is the plain fixpoint; higher values trade
        iterations for stability on oscillating instances — the knob
        the retry ladder (:func:`analyze_noise_resilient`) escalates.
    record_trace:
        Keep every per-iteration delay-noise map (post-damping) in
        :attr:`NoiseResult.trace` so a certificate checker can recompute
        the convergence history.  Off by default (the trace holds one
        float per noisy net per iteration).
    """

    max_iterations: int = 12
    tolerance_ns: float = 1e-4
    start: str = "optimistic"
    grid_points: int = 256
    window_filter: bool = True
    strict: bool = False
    exclusions: Optional[LogicalExclusions] = None
    damping: float = 0.0
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.start not in ("optimistic", "pessimistic"):
            raise ValueError(f"unknown start mode {self.start!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0, 1), got {self.damping}")


@dataclass
class NoiseResult:
    """Outcome of the iterative analysis.

    ``delta_history`` is the per-iteration maximum delay-noise change
    (the fixpoint's convergence trace); ``retries`` and ``damping_used``
    are filled by :func:`analyze_noise_resilient` when the retry ladder
    was involved.  ``trace`` holds the successive per-net delay-noise
    iterates when ``config.record_trace`` was set (each entry i satisfies
    ``delta_history[i] == max |trace[i] - trace[i-1]|``).
    """

    timing: TimingResult
    nominal: TimingResult
    delay_noise: Dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = False
    delta_history: List[float] = field(default_factory=list)
    retries: int = 0
    damping_used: float = 0.0
    trace: List[Dict[str, float]] = field(default_factory=list)

    def circuit_delay(self) -> float:
        """Circuit delay including delay noise (ns)."""
        return self.timing.circuit_delay()

    def nominal_delay(self) -> float:
        """Noiseless circuit delay (ns)."""
        return self.nominal.circuit_delay()

    def total_delay_noise(self) -> float:
        return self.circuit_delay() - self.nominal_delay()

    def noisiest_nets(self, count: int = 10) -> List[str]:
        """Nets ranked by their local delay noise, largest first."""
        return sorted(
            self.delay_noise, key=lambda n: -self.delay_noise[n]
        )[:count]


def victim_envelopes(
    netlist: Netlist,
    coupling: Union[CouplingGraph, CouplingView],
    victim: str,
    timing: TimingResult,
    aggressor_windows: Optional[Dict[str, TimingWindow]] = None,
    config: NoiseConfig = NoiseConfig(),
) -> List[NoiseEnvelope]:
    """Primary-aggressor envelopes on ``victim`` under current timing.

    ``aggressor_windows`` overrides per-net windows (used for the
    pessimistic first iteration and for the dominance-interval upper
    bound); otherwise windows come from ``timing``.
    """
    envelopes: List[NoiseEnvelope] = []
    victim_window = timing.window(victim)
    for cc in coupling.aggressors_of(victim):
        aggressor = cc.other(victim)
        if config.exclusions and config.exclusions.excludes(victim, aggressor):
            continue
        if aggressor_windows is not None and aggressor in aggressor_windows:
            window = aggressor_windows[aggressor]
        else:
            window = timing.window(aggressor)
        slew = timing.slew_late(aggressor)
        if config.window_filter and not windows_can_interact(
            victim_window, window, slack=slew
        ):
            continue
        pulse = pulse_for_coupling(netlist, cc, victim, slew)
        envelopes.append(primary_envelope(victim, pulse, window))
    return filter_envelopes(envelopes, victim_window.lat)


class DirectionTable:
    """Every coupling direction of one view, as arrays.

    Directions are grouped by victim in topological order and, within a
    victim, kept in ``aggressors_of`` order (the order
    :func:`victim_envelopes` visits them), with logical exclusions
    already dropped.  ``victims`` and ``aggressors`` are positions in
    ``order``; ``res`` and ``cap`` are each direction's victim holding
    resistance and load cap.  :func:`analyze_noise` builds the table once
    per call and runs each fixpoint iteration over it with
    :meth:`delay_noise`; the top-k engine builds its victims' primaries
    from one.
    """

    def __init__(
        self,
        netlist: Netlist,
        coupling: Union[CouplingGraph, CouplingView],
        graph: TimingGraph,
        exclusions: Optional[LogicalExclusions] = None,
    ) -> None:
        self.order = graph.topo_order
        position = {net: p for p, net in enumerate(self.order)}
        victims: List[int] = []
        aggressors: List[int] = []
        res: List[float] = []
        cap: List[float] = []
        self.couplings: List[CouplingCap] = []
        for p, victim in enumerate(self.order):
            rc: Optional[Tuple[float, float]] = None
            for cc in coupling.aggressors_of(victim):
                aggressor = cc.other(victim)
                if exclusions and exclusions.excludes(victim, aggressor):
                    continue
                if rc is None:
                    rc = (
                        netlist.holding_resistance(victim),
                        netlist.load_cap(victim),
                    )
                victims.append(p)
                aggressors.append(position[aggressor])
                self.couplings.append(cc)
                res.append(rc[0])
                cap.append(rc[1])
        self.victims = np.array(victims, dtype=np.intp)
        self.aggressors = np.array(aggressors, dtype=np.intp)
        self.res = np.array(res)
        self.cap = np.array(cap)

    def delay_noise(
        self,
        timing: TimingResult,
        extra: Dict[str, float],
        horizon: Optional[float],
        config: NoiseConfig,
    ) -> Dict[str, float]:
        """One fixpoint iteration: per-victim delay noise under ``timing``.

        ``extra`` is the previous iterate (taken out of each victim's own
        t50); a ``horizon`` makes every aggressor window ``[0, horizon]``
        (the pessimistic seed).  Returns the victims with positive delay
        noise in topological order, bit-identical to
        :func:`victim_envelopes` plus
        :func:`~repro.noise.superposition.delay_noise` per victim.
        """
        assert timing.arrays is not None
        eat, lat, _, slew = timing.arrays
        v, a = self.victims, self.aggressors
        a_slew = slew[a]
        if horizon is None:
            a_eat, a_lat = eat[a], lat[a]
        else:
            a_eat, a_lat = np.zeros(len(a)), np.full(len(a), horizon)
        if config.window_filter:
            live = np.flatnonzero(
                (eat[v] - a_slew <= a_lat) & (a_eat - a_slew <= lat[v])
            )
        else:
            live = np.arange(len(v))
        lead, rise, decay, peak = coupling_pulses(
            [self.couplings[d] for d in live.tolist()],
            [self.order[p] for p in v[live].tolist()],
            self.res[live],
            self.cap[live],
            a_slew[live],
        ).T
        points = envelope_breakpoints(a_eat[live], a_lat[live], lead, rise, decay)
        check_trapezoids(points, peak)
        # Envelopes that die before the victim's t50 cannot delay it.
        alive = points[:, 3] > lat[v[live]]
        points, peak, owner = points[alive], peak[alive], v[live[alive]]
        if not owner.size:
            return {}
        first = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        victims = owner[first]
        rows = np.repeat(np.arange(first.size), np.diff(np.append(first, owner.size)))
        # The victim's own bump must not be part of its nominal t50.
        t50 = lat[victims] - np.array(
            [extra.get(self.order[p], 0.0) for p in victims.tolist()]
        )
        v_slew = slew[victims]
        t_lo = np.minimum(t50 - v_slew, np.minimum.reduceat(points[:, 0], first))
        t_hi = np.maximum(t50 + v_slew, np.maximum.reduceat(points[:, 3], first))
        span = np.maximum(t_hi - t_lo, 1e-3)
        times = grid_rows(t_lo - 0.05 * span, t_hi + 0.05 * span, config.grid_points)
        noise = delay_noise_stacked(
            t50, v_slew, sum_trapezoids(times, rows, points, peak), times
        )
        return {
            self.order[p]: dn
            for p, dn in zip(victims.tolist(), noise.tolist())
            if dn > 0.0
        }


def analyze_noise(
    design: Design,
    coupling: Optional[Union[CouplingGraph, CouplingView]] = None,
    config: NoiseConfig = NoiseConfig(),
    graph: Optional[TimingGraph] = None,
    monitor: Optional[RuntimeMonitor] = None,
) -> NoiseResult:
    """Run the iterative delay-noise analysis to its fixpoint.

    Parameters
    ----------
    design:
        The design under analysis.
    coupling:
        Coupling graph or a what-if :class:`CouplingView` subset; defaults
        to the design's full coupling graph.
    config:
        Iteration parameters.
    graph:
        Pre-built timing graph to reuse across repeated runs.
    monitor:
        Optional :class:`~repro.runtime.budget.RuntimeMonitor` checked at
        each iteration (a cooperative cancellation checkpoint): past the
        deadline the loop stops with the last iterate (degrade policy) or
        raises :class:`~repro.runtime.errors.BudgetExceededError` (raise
        policy).
    """
    netlist = design.netlist
    if coupling is None:
        coupling = design.coupling
    if graph is None:
        graph = TimingGraph.from_netlist(netlist)
    nominal = run_sta(netlist, graph)
    horizon = nominal.horizon(margin=2.0)
    directions = DirectionTable(netlist, coupling, graph, config.exclusions)

    extra: Dict[str, float] = {}
    converged = False
    iterations = 0
    history: List[float] = []
    trace: List[Dict[str, float]] = []
    site = f"noise:{netlist.name}"
    with _span(
        "noise.fixpoint", design=netlist.name, start=config.start
    ) as fp_span:
        for iteration in range(config.max_iterations):
            if monitor is not None and monitor.exhausted_noise(site):
                break
            iterations = iteration + 1
            with _span("noise.iteration", n=iterations) as it_span:
                timing = run_sta(netlist, graph, extra_delay=extra)
                pessimistic_seed = (
                    config.start == "pessimistic" and iteration == 0
                )
                new_extra = directions.delay_noise(
                    timing,
                    extra,
                    horizon if pessimistic_seed else None,
                    config,
                )
                if config.damping > 0.0 and not pessimistic_seed:
                    new_extra = _blend(extra, new_extra, config.damping)
                delta = _max_change(extra, new_extra)
                if faultinject._ACTIVE is not None and (
                    faultinject._ACTIVE.fires("no_convergence", site)
                ):
                    delta = max(delta, 10.0 * config.tolerance_ns, 1e-9)
                history.append(delta)
                it_span.set(delta=delta)
                if config.record_trace:
                    trace.append(dict(new_extra))
                extra = new_extra
            if delta <= config.tolerance_ns and iteration > 0:
                converged = True
                break
        fp_span.set(iterations=iterations, converged=converged)
    if not converged and config.strict:
        raise ConvergenceError(
            f"noise analysis did not converge in {config.max_iterations} "
            f"iterations (last delta "
            f"{history[-1] if history else float('nan'):.3e} ns > "
            f"tolerance {config.tolerance_ns:.3e} ns)",
            history=history,
            last_delay_noise=extra,
            iterations=iterations,
            tolerance_ns=config.tolerance_ns,
            net=netlist.name,
            phase="noise",
        )
    final_timing = run_sta(netlist, graph, extra_delay=extra)
    return NoiseResult(
        timing=final_timing,
        nominal=nominal,
        delay_noise=extra,
        iterations=iterations,
        converged=converged,
        delta_history=history,
        damping_used=config.damping,
        trace=trace,
    )


def analyze_noise_resilient(
    design: Design,
    coupling: Optional[Union[CouplingGraph, CouplingView]] = None,
    config: NoiseConfig = NoiseConfig(),
    graph: Optional[TimingGraph] = None,
    monitor: Optional[RuntimeMonitor] = None,
    retries: int = 2,
) -> NoiseResult:
    """:func:`analyze_noise` with retry-with-escalating-damping.

    When the fixpoint fails to converge, the analysis is retried with
    progressively stronger under-relaxation (the
    :data:`RETRY_DAMPING_SCHEDULE`), bounded by ``retries``.  The first
    converged attempt is returned with ``retries``/``damping_used``
    recording what it took.  If every attempt fails:

    * ``config.strict`` — raise :class:`ConvergenceError` whose message
      and ``history`` cover the *final* attempt (the per-attempt
      iteration traces are attached as ``error.attempts``);
    * otherwise — return the last attempt's unconverged iterate.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    dampings = [config.damping]
    for d in RETRY_DAMPING_SCHEDULE[:retries]:
        dampings.append(max(d, config.damping))
    attempts: List[List[float]] = []
    result: Optional[NoiseResult] = None
    for attempt, damping in enumerate(dampings):
        cfg = replace(config, damping=damping, strict=False)
        result = analyze_noise(
            design, coupling=coupling, config=cfg, graph=graph, monitor=monitor
        )
        attempts.append(list(result.delta_history))
        if result.converged:
            result.retries = attempt
            return result
        if monitor is not None and monitor.deadline_exceeded():
            break  # no budget left to keep retrying
    assert result is not None
    if config.strict:
        error = ConvergenceError(
            f"noise analysis did not converge after {len(attempts)} "
            f"attempt(s) with damping up to {dampings[len(attempts) - 1]}",
            history=attempts[-1],
            last_delay_noise=result.delay_noise,
            iterations=result.iterations,
            tolerance_ns=config.tolerance_ns,
            net=design.netlist.name,
            phase="noise",
        )
        error.attempts = attempts
        raise error
    result.retries = len(attempts) - 1
    return result


def _blend(
    old: Dict[str, float], new: Dict[str, float], damping: float
) -> Dict[str, float]:
    """Under-relaxed update: ``(1 - damping) * new + damping * old``."""
    blended: Dict[str, float] = {}
    # sorted(): the union is a set, and downstream consumers observe the
    # dict's insertion order — keep it independent of hash seeding.
    for key in sorted(set(old) | set(new)):
        value = (1.0 - damping) * new.get(key, 0.0) + damping * old.get(key, 0.0)
        if value > 0.0:
            blended[key] = value
    return blended


def noise_result_with_couplings(
    design: Design,
    active: FrozenSet[int],
    config: NoiseConfig = NoiseConfig(),
    graph: Optional[TimingGraph] = None,
    monitor: Optional[RuntimeMonitor] = None,
    retries: int = 0,
) -> NoiseResult:
    """Full :class:`NoiseResult` when exactly ``active`` couplings exist.

    Like :func:`circuit_delay_with_couplings` but keeps the whole result
    (certificate emission records the fixpoint trace of each oracle run).
    """
    view = design.coupling.restricted(frozenset(active))
    if retries > 0:
        return analyze_noise_resilient(
            design, coupling=view, config=config, graph=graph,
            monitor=monitor, retries=retries,
        )
    return analyze_noise(
        design, coupling=view, config=config, graph=graph, monitor=monitor
    )


def circuit_delay_with_couplings(
    design: Design,
    active: FrozenSet[int],
    config: NoiseConfig = NoiseConfig(),
    graph: Optional[TimingGraph] = None,
    monitor: Optional[RuntimeMonitor] = None,
    retries: int = 0,
) -> float:
    """Circuit delay when exactly the couplings in ``active`` exist.

    The evaluation oracle for both top-k flavors: the addition set is
    scored by this delay directly; the elimination set by the delay with
    ``all_indices - fixed`` active.  ``monitor``/``retries`` opt into the
    resilient runtime (deadline checks and convergence retries).
    """
    return noise_result_with_couplings(
        design, active, config=config, graph=graph,
        monitor=monitor, retries=retries,
    ).circuit_delay()


def _max_change(old: Dict[str, float], new: Dict[str, float]) -> float:
    keys = set(old) | set(new)
    if not keys:
        return 0.0
    return max(abs(old.get(k, 0.0) - new.get(k, 0.0)) for k in keys)
