"""Behavioral tests for the public top-k entry points."""

import pytest

from repro.core import (
    ADDITION,
    ELIMINATION,
    TopKConfig,
    TopKEngine,
    TopKError,
    top_k_addition_set,
    top_k_addition_sweep,
    top_k_elimination_set,
    top_k_elimination_sweep,
    top_k_set,
    top_k_sweep,
)
from repro.noise.analysis import analyze_noise
from repro.timing.sta import run_sta


@pytest.fixture(scope="module")
def bounds(request):
    # Computed per design fixture in the tests below.
    return None


class TestAdditionResult:
    def test_delay_bounded_by_extremes(self, tiny_design):
        nominal = run_sta(tiny_design.netlist).circuit_delay()
        all_agg = analyze_noise(tiny_design).circuit_delay()
        r = top_k_addition_set(tiny_design, 3)
        assert nominal - 1e-9 <= r.delay <= all_agg + 1e-9

    def test_effective_k_bounded(self, tiny_design):
        r = top_k_addition_set(tiny_design, 3)
        assert 0 < r.effective_k <= 3

    def test_k0_is_nominal(self, tiny_design):
        r = top_k_addition_set(tiny_design, 0)
        assert r.delay == pytest.approx(
            run_sta(tiny_design.netlist).circuit_delay()
        )
        assert r.couplings == frozenset()

    def test_k_exceeding_couplings(self, tiny_design):
        r = top_k_addition_set(tiny_design, 10_000)
        assert r.effective_k <= len(tiny_design.coupling)
        assert r.delay is not None

    def test_impact_nonnegative(self, tiny_design):
        r = top_k_addition_set(tiny_design, 2)
        assert r.delay_noise_impact >= 0.0

    def test_details_describe_couplings(self, tiny_design):
        r = top_k_addition_set(tiny_design, 2)
        assert len(r.details) == r.effective_k
        for detail in r.details:
            cc = tiny_design.coupling.by_index(detail.index)
            assert {detail.net_a, detail.net_b} == {cc.net_a, cc.net_b}

    def test_summary_text(self, tiny_design):
        r = top_k_addition_set(tiny_design, 2)
        text = r.summary()
        assert "addition" in text
        assert "nominal delay" in text


class TestEliminationResult:
    def test_delay_bounded_by_extremes(self, tiny_design):
        nominal = run_sta(tiny_design.netlist).circuit_delay()
        all_agg = analyze_noise(tiny_design).circuit_delay()
        r = top_k_elimination_set(tiny_design, 3)
        assert nominal - 1e-9 <= r.delay <= all_agg + 1e-9

    def test_impact_is_savings(self, tiny_design):
        r = top_k_elimination_set(tiny_design, 3)
        assert r.delay_noise_impact >= 0.0
        assert r.all_aggressor_delay is not None

    def test_k0_keeps_all_noise(self, tiny_design):
        r = top_k_elimination_set(tiny_design, 0)
        assert r.delay == pytest.approx(
            analyze_noise(tiny_design).circuit_delay(), rel=1e-6
        )

    def test_summary_mentions_savings(self, tiny_design):
        r = top_k_elimination_set(tiny_design, 2)
        assert "saved" in r.summary()


class TestModes:
    """What the mode decides in the shared front end."""

    @pytest.mark.parametrize("mode", [ADDITION, ELIMINATION])
    def test_oracle_skippable(self, tiny_design, mode):
        cfg = TopKConfig(evaluate_with_oracle=False)
        r = top_k_set(tiny_design, 2, mode, cfg)
        assert r.delay is None
        assert r.estimated_delay is not None

    @pytest.mark.parametrize("mode", [ADDITION, ELIMINATION])
    def test_sweep_fallback_without_oracle(self, tiny_design, mode):
        cfg = TopKConfig(evaluate_with_oracle=False)
        for p in top_k_sweep(tiny_design, [0, 2], mode, cfg):
            assert p.result.delay is None
            if mode == ADDITION:
                assert p.delay == p.result.nominal_delay
            else:
                assert p.result.all_aggressor_delay is not None
                assert p.delay == p.result.all_aggressor_delay

    @pytest.mark.parametrize("mode", [ADDITION, ELIMINATION])
    @pytest.mark.parametrize("k", [0, 3])
    def test_certificate_oracle_labels(self, tiny_design, mode, k):
        r = top_k_set(tiny_design, k, mode, TopKConfig(certify=True))
        labels = [f.label for f in r.certificate.fixpoints if f.label != "seed"]
        if mode == ADDITION and k == 0:
            assert labels == []  # the empty set is timed by STA, not the oracle
        elif k == 0:
            assert labels == ["oracle:without[]"]  # the full design
        else:
            prefix = "oracle:[" if mode == ADDITION else "oracle:without["
            assert labels and all(s.startswith(prefix) for s in labels)

    def test_engine_of_the_other_mode_is_refused(self, tiny_design):
        with TopKEngine(tiny_design, ELIMINATION) as engine:
            with pytest.raises(TopKError, match="elimination engine"):
                top_k_set(tiny_design, 1, ADDITION, engine=engine)


class TestDuality:
    """Addition and elimination are duals at the extremes."""

    def test_addition_of_everything_is_full_noise(self, tiny_design):
        r = top_k_addition_set(
            tiny_design,
            len(tiny_design.coupling),
            TopKConfig(max_sets_per_cardinality=None),
        )
        # Not guaranteed to select ALL couplings (some contribute nothing),
        # but the resulting delay must reach the all-aggressor delay.
        all_agg = analyze_noise(tiny_design).circuit_delay()
        assert r.delay == pytest.approx(all_agg, rel=0.01)

    def test_elimination_of_everything_is_nominal(self, tiny_design):
        r = top_k_elimination_set(
            tiny_design,
            len(tiny_design.coupling),
            TopKConfig(max_sets_per_cardinality=None),
        )
        nominal = run_sta(tiny_design.netlist).circuit_delay()
        assert r.delay == pytest.approx(nominal, rel=0.01)


class TestSweeps:
    def test_addition_sweep_monotone(self, small_design):
        points = top_k_addition_sweep(small_design, [1, 2, 4, 8])
        delays = [p.delay for p in points]
        # Weak monotonicity: each step never loses more than solver noise.
        for a, b in zip(delays, delays[1:]):
            assert b >= a - 1e-6
        ks = [p.k for p in points]
        assert ks == sorted(ks)

    def test_elimination_sweep_monotone(self, small_design):
        points = top_k_elimination_sweep(small_design, [1, 2, 4, 8])
        delays = [p.delay for p in points]
        for a, b in zip(delays, delays[1:]):
            assert b <= a + 1e-6

    def test_sweep_runtimes_cumulative(self, small_design):
        points = top_k_addition_sweep(small_design, [1, 4])
        assert points[0].runtime_s <= points[1].runtime_s

    def test_sweep_deduplicates_ks(self, small_design):
        points = top_k_addition_sweep(small_design, [2, 2, 2])
        assert len(points) == 1
