"""Reference implementations the engine's array code is checked against."""


def dedupe(candidates, keep_best: bool, by_score_desc: bool) -> list:
    """Collapse candidates with identical coupling sets.

    Different construction paths can reach the same coupling set with
    slightly different envelopes (e.g. a pseudo atom vs. an incremental
    merge); we keep the one with the better score — larger in addition mode
    (``by_score_desc=True``), smaller in elimination mode.
    """
    best: dict = {}
    for cand in candidates:
        key = cand.couplings
        cur = best.get(key)
        if cur is None:
            best[key] = cand
        elif keep_best:
            better = (
                cand.score > cur.score if by_score_desc else cand.score < cur.score
            )
            if better:
                best[key] = cand
    return list(best.values())


def reference_primary_build(engine) -> dict:
    """Each victim's grid, bound, input slacks and primary rows, built one
    victim and one primary at a time.

    The engine's context build as it was before it became array passes:
    per-gate input slacks from :func:`driver_arc`, a
    :func:`primary_envelope` per primary for the false-aggressor test,
    the widened envelopes and the shift bump as :class:`NoiseEnvelope`
    objects summed with ``Waveform.sample`` on the probe grid, and the
    primaries sampled one at a time.  Returns ``{net: (grid, ub, inputs,
    [(coupling index, sampled row), ...])}``.
    """
    import numpy as np

    from repro.core.dominance import batch_delay_noise
    from repro.core.engine import SINK, _sample_primaries, _shift_bump
    from repro.noise.envelope import NoiseEnvelope, primary_envelope
    from repro.noise.filters import windows_can_interact
    from repro.noise.pulse import pulse_for_coupling
    from repro.timing.delay_models import driver_arc
    from repro.timing.waveform import Grid
    from repro.timing.windows import TimingWindow

    nominal, timing, n = engine.nominal, engine.window_timing, engine.config.grid_points

    def collect(victim):
        primaries = []
        victim_window = timing.window(victim)
        for cc in engine.coupling.aggressors_of(victim):
            aggressor = cc.other(victim)
            window = timing.window(aggressor)
            slew_a = timing.slew_late(aggressor)
            if engine.config.window_filter and not windows_can_interact(
                victim_window, window, slack=slew_a
            ):
                continue
            pulse = pulse_for_coupling(engine.netlist, cc, victim, slew_a)
            if primary_envelope(victim, pulse, window).t_end <= nominal.lat(victim):
                continue
            primaries.append((cc, pulse, window))
        return primaries

    def input_slacks(net):
        gate = engine.netlist.driver_gate(net)
        if gate.is_primary_input:
            return {}
        lat = nominal.lat(net)
        return {
            u: max(0.0, lat - (nominal.lat(u) + driver_arc(engine.netlist, net, nominal.slew_late(u)).delay))
            for u in gate.inputs
        }

    def bound_and_grid(t50, slew, primaries, upstream_ub):
        envs = [
            primary_envelope(
                "*", pulse, TimingWindow(window.eat, max(window.lat, engine.horizon))
            )
            for _, pulse, window in primaries
        ]
        if upstream_ub > 1e-9:
            envs.append(NoiseEnvelope("*", _shift_bump(t50, slew, upstream_ub)))
        t_lo, t_hi = t50 - slew, t50 + slew
        for env in envs:
            t_lo, t_hi = min(t_lo, env.t_start), max(t_hi, env.t_end)
        span = max(t_hi - t_lo, 1e-3)
        probe = Grid(t_lo - 0.02 * span, t_hi + 0.02 * span, n)
        ub = 0.0
        if envs:
            total = np.zeros(n)
            for env in envs:
                total += env.sample(probe)
            ub = float(batch_delay_noise(t50, slew, total[None, :], probe)[0])
        ub = max(ub, upstream_ub)
        g_lo, g_hi = t50 - slew, t50 + ub + 2.0 * slew
        for _, pulse, window in primaries:
            env = primary_envelope("*", pulse, window)
            g_lo, g_hi = min(g_lo, env.t_start), max(g_hi, env.t_end)
        span = max(g_hi - g_lo, 1e-3)
        return ub, Grid(g_lo - 0.02 * span, g_hi + 0.02 * span, n)

    built: dict = {}
    ubs: dict = {}
    for net in list(engine.graph.topo_order) + [SINK]:
        if net == SINK:
            outputs = engine.netlist.primary_outputs
            t50 = nominal.circuit_delay()
            slew = max(nominal.slew_late(po) for po in outputs)
            inputs = {po: t50 - nominal.lat(po) for po in outputs}
            primaries = []
        else:
            t50, slew = nominal.lat(net), nominal.slew_late(net)
            inputs = input_slacks(net)
            primaries = collect(net)
        upstream_ub = max(
            (max(0.0, ubs.get(u, 0.0) - slack) for u, slack in inputs.items()),
            default=0.0,
        )
        ub, grid = bound_and_grid(t50, slew, primaries, upstream_ub)
        ubs[net] = ub
        rows = [
            (
                cc.index,
                _sample_primaries(
                    grid.times, window.eat, window.lat, pulse.lead,
                    pulse.rise, pulse.decay, pulse.peak, 0.0,
                ),
            )
            for cc, pulse, window in primaries
        ]
        built[net] = (grid, ub, inputs, rows)
    return built
