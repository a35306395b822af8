"""The interval abstract domain: algebra, serialization, soundness."""

import math

import pytest

from repro.api import circuit_delay
from repro.circuit.generator import make_paper_benchmark, random_design
from repro.timing.graph import TimingGraph
from repro.verify import DelayBounds, Interval, propagate_delay_bounds
from repro.verify.intervals import IntervalError


class TestInterval:
    def test_contains_with_slack(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.5)
        assert iv.contains(2.0)
        assert not iv.contains(2.1)
        assert iv.contains(2.1, slack=0.2)
        assert iv.contains(0.9, slack=0.2)

    def test_infinite_upper_bound_is_top(self):
        iv = Interval(0.0, math.inf)
        assert iv.contains(1e12)

    def test_rejects_nan(self):
        with pytest.raises(IntervalError):
            Interval(float("nan"), 1.0)

    def test_json_round_trip(self):
        iv = Interval(0.5, math.inf)
        assert Interval.from_json(iv.to_json()) == iv


class TestDelayBoundsSerialization:
    def test_round_trip_preserves_infinities(self, certify_design):
        bounds = propagate_delay_bounds(certify_design)
        back = DelayBounds.from_json(bounds.to_json())
        assert back.circuit == bounds.circuit
        assert back.per_net == bounds.per_net
        assert set(back.noise_ub) == set(bounds.noise_ub)
        for net, ub in bounds.noise_ub.items():
            if math.isinf(ub):
                assert math.isinf(back.noise_ub[net])
            else:
                assert back.noise_ub[net] == pytest.approx(ub)

    def test_json_is_plain_data(self, certify_design):
        import json

        bounds = propagate_delay_bounds(certify_design)
        json.dumps(bounds.to_json())  # must not raise


class TestSoundness:
    """The static bound must contain every delay the engine can report."""

    def test_contains_noiseless_delay(self, certify_design):
        bounds = propagate_delay_bounds(certify_design)
        nominal = circuit_delay(certify_design, "none")
        assert bounds.contains_delay(nominal, slack=1e-9)
        # The noiseless delay is exactly the lower edge of the bound.
        assert nominal == pytest.approx(bounds.circuit.lo, abs=1e-9)

    def test_contains_noisy_delay(self, certify_design):
        bounds = propagate_delay_bounds(certify_design)
        noisy = circuit_delay(certify_design)
        assert bounds.contains_delay(noisy, slack=1e-6)

    def test_contains_solver_reported_delays(
        self, addition_result, elimination_result, certify_design
    ):
        bounds = propagate_delay_bounds(certify_design)
        for result in (addition_result, elimination_result):
            for delay in (
                result.delay,
                result.estimated_delay,
                result.nominal_delay,
                result.all_aggressor_delay,
            ):
                if delay is not None:
                    assert bounds.contains_delay(delay, slack=1e-6)

    @pytest.mark.parametrize("name", ["i1", "i2", "i3"])
    def test_contains_benchmark_delays(self, name):
        design = make_paper_benchmark(name)
        bounds = propagate_delay_bounds(design)
        assert bounds.contains_delay(
            circuit_delay(design, "none"), slack=1e-9
        )
        assert bounds.contains_delay(circuit_delay(design), slack=1e-6)

    def test_single_topological_pass_structure(self, certify_design):
        bounds = propagate_delay_bounds(certify_design)
        # Every net of the design is bounded and every bound is an
        # ordered interval (the domain never produces lo > hi).
        assert set(bounds.per_net) == set(certify_design.netlist.nets)
        for iv in bounds.per_net.values():
            assert iv.lo <= iv.hi
        for ub in bounds.noise_ub.values():
            assert ub >= 0.0


def _same_bounds(design) -> None:
    import json

    from repro.verify.intervals import slew_intervals

    from .reference import reference_propagate_delay_bounds, reference_slew_intervals

    got = propagate_delay_bounds(design, horizon_margin=1.5)
    want = reference_propagate_delay_bounds(design, horizon_margin=1.5)
    # json.dumps writes each float's shortest repr: equal text, equal bits.
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    graph = TimingGraph.from_netlist(design.netlist)
    assert slew_intervals(design, graph) == reference_slew_intervals(design, graph)


class TestArrayPass:
    """The array interval pass against the scalar reference, bit for bit."""

    def test_certify_design(self, certify_design):
        _same_bounds(certify_design)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_random_designs(self, seed):
        _same_bounds(random_design(f"iv{seed}", n_gates=50, target_caps=90, seed=seed))

    @pytest.mark.parametrize("name", ["i1", "i2", "i3"])
    def test_paper_circuits(self, name):
        _same_bounds(make_paper_benchmark(name, seed=1))

    @pytest.mark.bench
    @pytest.mark.parametrize("name", [f"i{n}" for n in range(1, 11)])
    def test_all_paper_circuits(self, name):
        _same_bounds(make_paper_benchmark(name, seed=1))
