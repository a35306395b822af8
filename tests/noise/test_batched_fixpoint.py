"""The batched noise fixpoint against the per-victim reference, bit for bit.

:func:`repro.noise.analysis.analyze_noise` runs each iteration as one
array pass over every coupling direction; ``reference.py`` keeps the
per-victim loop over ``victim_envelopes`` and ``delay_noise`` it
replaced.  Every field a caller or a certificate can observe must agree
exactly: the delay-noise map with its key order, the convergence
history, the recorded trace and the final timing.
"""

from __future__ import annotations

import math

import pytest

from repro.circuit.coupling import CouplingGraph
from repro.circuit.design import Design
from repro.circuit.generator import make_paper_benchmark, random_design
from repro.noise.analysis import ConvergenceError, NoiseConfig, analyze_noise
from repro.noise.filters import LogicalExclusions
from repro.runtime import FaultSpec, injected
from repro.runtime.budget import RunBudget, RuntimeMonitor
from repro.runtime.errors import BudgetExceededError, WaveformFaultError

from .reference import reference_analyze_noise


def _bits(values):
    return [float(v).hex() for v in values]


def assert_identical(got, want):
    assert list(got.delay_noise) == list(want.delay_noise)
    assert _bits(got.delay_noise.values()) == _bits(want.delay_noise.values())
    assert _bits(got.delta_history) == _bits(want.delta_history)
    assert [list(t) for t in got.trace] == [list(t) for t in want.trace]
    assert [_bits(t.values()) for t in got.trace] == [
        _bits(t.values()) for t in want.trace
    ]
    assert (got.iterations, got.converged, got.damping_used) == (
        want.iterations,
        want.converged,
        want.damping_used,
    )
    assert _bits([got.circuit_delay()]) == _bits([want.circuit_delay()])


def both(design, **kwargs):
    return analyze_noise(design, **kwargs), reference_analyze_noise(design, **kwargs)


DESIGNS = [
    pytest.param((14, 20, 3), id="g14"),
    pytest.param((30, 60, 5), id="g30"),
    pytest.param((45, 110, 11), id="g45"),
    pytest.param((60, 90, 23), id="g60-sparse"),
]


@pytest.fixture(scope="module", params=DESIGNS)
def design(request):
    gates, caps, seed = request.param
    return random_design(f"fx{seed}", n_gates=gates, target_caps=caps, seed=seed)


def _exclusions(design):
    return LogicalExclusions.from_pairs(
        (cc.net_a, cc.net_b) for cc in list(design.coupling)[::4]
    )


def _subset(design):
    ids = sorted(design.coupling.all_indices())
    return frozenset(ids[::3])


CONFIGS = {
    "plain": lambda d: {},
    "damped": lambda d: {"damping": 0.4},
    "exclusions": lambda d: {"exclusions": _exclusions(d)},
    "no_window_filter": lambda d: {"window_filter": False},
    "coarse_grid": lambda d: {"grid_points": 16},
}


class TestBitIdentical:
    @pytest.mark.parametrize("start", ["optimistic", "pessimistic"])
    @pytest.mark.parametrize("knobs", sorted(CONFIGS))
    def test_configs(self, design, start, knobs):
        cfg = NoiseConfig(start=start, record_trace=True, **CONFIGS[knobs](design))
        assert_identical(*both(design, config=cfg))

    @pytest.mark.parametrize("start", ["optimistic", "pessimistic"])
    def test_restricted_view(self, design, start):
        view = design.coupling.restricted(_subset(design))
        cfg = NoiseConfig(start=start, record_trace=True)
        assert_identical(*both(design, coupling=view, config=cfg))

    @pytest.mark.parametrize("start", ["optimistic", "pessimistic"])
    def test_without_view(self, design, start):
        view = design.coupling.without(_subset(design))
        cfg = NoiseConfig(start=start, record_trace=True, damping=0.2)
        assert_identical(*both(design, coupling=view, config=cfg))

    def test_empty_view(self, design):
        view = design.coupling.restricted(frozenset())
        got, want = both(design, coupling=view)
        assert_identical(got, want)
        assert got.delay_noise == {}

    def test_trace_off_keeps_no_iterates(self, design):
        got, want = both(design, config=NoiseConfig())
        assert_identical(got, want)
        assert got.trace == []


class TestFaults:
    @staticmethod
    def _nan_cap_design():
        base = random_design("nanc", n_gates=20, target_caps=30, seed=7)
        coupling = CouplingGraph(base.netlist)
        caps = list(base.coupling)
        for i, cc in enumerate(caps):
            coupling.add(cc.net_a, cc.net_b, math.nan if i == len(caps) // 2 else cc.cap)
        return Design(netlist=base.netlist, coupling=coupling)

    def test_non_finite_pulse_names_net_coupling_and_aggressor(self):
        design = self._nan_cap_design()
        cfg = NoiseConfig(window_filter=False)
        with pytest.raises(WaveformFaultError) as got:
            analyze_noise(design, config=cfg)
        with pytest.raises(WaveformFaultError) as want:
            reference_analyze_noise(design, config=cfg)
        err = got.value
        assert err.phase == "pulse"
        assert err.context == want.value.context
        assert set(err.context) >= {"net", "coupling", "aggressor", "phase"}
        cc = design.coupling.by_index(err.context["coupling"])
        assert {err.context["net"], err.context["aggressor"]} == {cc.net_a, cc.net_b}
        assert math.isnan(cc.cap)

    def test_no_convergence_fault(self, small_design):
        cfg = NoiseConfig(max_iterations=5, record_trace=True)
        with injected(FaultSpec("no_convergence", count=3)):
            got = analyze_noise(small_design, config=cfg)
        with injected(FaultSpec("no_convergence", count=3)):
            want = reference_analyze_noise(small_design, config=cfg)
        assert_identical(got, want)

    def test_no_convergence_strict_raises_with_the_iterate(self, small_design):
        cfg = NoiseConfig(max_iterations=4, strict=True)
        with injected(FaultSpec("no_convergence")):
            with pytest.raises(ConvergenceError) as got:
                analyze_noise(small_design, config=cfg)
        with injected(FaultSpec("no_convergence")):
            with pytest.raises(ConvergenceError) as want:
                reference_analyze_noise(small_design, config=cfg)
        assert _bits(got.value.history) == _bits(want.value.history)
        assert list(got.value.last_delay_noise.items()) == list(
            want.value.last_delay_noise.items()
        )
        assert got.value.iterations == want.value.iterations == 4

    def test_monitor_exhaustion_keeps_the_last_iterate(self, small_design):
        cfg = NoiseConfig(record_trace=True)
        runs = []
        for fixpoint in (analyze_noise, reference_analyze_noise):
            monitor = RuntimeMonitor(RunBudget(deadline_s=1e9))
            with injected(FaultSpec("deadline", after=2, target="noise:")):
                runs.append(fixpoint(small_design, config=cfg, monitor=monitor))
        got, want = runs
        assert_identical(got, want)
        assert got.iterations == 2 and not got.converged

    def test_monitor_exhaustion_raises_under_the_raise_policy(self, small_design):
        monitor = RuntimeMonitor(RunBudget(deadline_s=1e9, on_budget="raise"))
        with injected(FaultSpec("deadline", after=1, target="noise:")):
            with pytest.raises(BudgetExceededError) as err:
                analyze_noise(small_design, monitor=monitor)
        assert err.value.context["phase"] == "noise"


@pytest.mark.bench
@pytest.mark.parametrize("name", [f"i{n}" for n in range(1, 11)])
def test_paper_circuits(name):
    design = make_paper_benchmark(name)
    for start in ("optimistic", "pessimistic"):
        cfg = NoiseConfig(start=start, record_trace=True)
        assert_identical(*both(design, config=cfg))
