"""The per-victim noise fixpoint that the batched one is checked against.

:func:`reference_analyze_noise` is :func:`repro.noise.analysis.analyze_noise`
as it was written before the fixpoint became one array pass per
iteration: every iteration visits the victims in topological order and
calls :func:`victim_envelopes` and :func:`delay_noise` on each.  It keeps
the iteration contract (monitor, fault site, damping, trace, strict
mode) so results can be compared field by field.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.noise.analysis import (
    ConvergenceError,
    NoiseConfig,
    NoiseResult,
    _blend,
    _max_change,
    victim_envelopes,
)
from repro.noise.superposition import delay_noise
from repro.runtime import faultinject
from repro.timing.graph import TimingGraph
from repro.timing.sta import run_sta
from repro.timing.windows import infinite_window


def reference_analyze_noise(
    design,
    coupling=None,
    config: NoiseConfig = NoiseConfig(),
    graph: Optional[TimingGraph] = None,
    monitor=None,
) -> NoiseResult:
    netlist = design.netlist
    if coupling is None:
        coupling = design.coupling
    if graph is None:
        graph = TimingGraph.from_netlist(netlist)
    nominal = run_sta(netlist, graph)
    horizon = nominal.horizon(margin=2.0)

    extra: Dict[str, float] = {}
    converged = False
    iterations = 0
    history: List[float] = []
    trace: List[Dict[str, float]] = []
    site = f"noise:{netlist.name}"
    for iteration in range(config.max_iterations):
        if monitor is not None and monitor.exhausted_noise(site):
            break
        iterations = iteration + 1
        timing = run_sta(netlist, graph, extra_delay=extra)
        pessimistic_seed = config.start == "pessimistic" and iteration == 0
        override = None
        if pessimistic_seed:
            override = {n: infinite_window(horizon) for n in netlist.nets}
        new_extra: Dict[str, float] = {}
        for victim in graph.topo_order:
            envelopes = victim_envelopes(
                netlist, coupling, victim, timing,
                aggressor_windows=override, config=config,
            )
            if not envelopes:
                continue
            t50 = timing.lat(victim) - extra.get(victim, 0.0)
            dn = delay_noise(
                t50, timing.slew_late(victim), envelopes, n=config.grid_points
            )
            if dn > 0.0:
                new_extra[victim] = dn
        if config.damping > 0.0 and not pessimistic_seed:
            new_extra = _blend(extra, new_extra, config.damping)
        delta = _max_change(extra, new_extra)
        if faultinject._ACTIVE is not None and (
            faultinject._ACTIVE.fires("no_convergence", site)
        ):
            delta = max(delta, 10.0 * config.tolerance_ns, 1e-9)
        history.append(delta)
        if config.record_trace:
            trace.append(dict(new_extra))
        extra = new_extra
        if delta <= config.tolerance_ns and iteration > 0:
            converged = True
            break
    if not converged and config.strict:
        raise ConvergenceError(
            "reference fixpoint did not converge",
            history=history,
            last_delay_noise=extra,
            iterations=iterations,
            tolerance_ns=config.tolerance_ns,
            net=netlist.name,
            phase="noise",
        )
    return NoiseResult(
        timing=run_sta(netlist, graph, extra_delay=extra),
        nominal=nominal,
        delay_noise=extra,
        iterations=iterations,
        converged=converged,
        delta_history=history,
        damping_used=config.damping,
        trace=trace,
    )
