"""End-to-end pipeline tests on generated benchmark-scale designs."""

import pytest

from repro import (
    analyze,
    circuit_delay,
    make_paper_benchmark,
    top_k_addition_set,
    top_k_elimination_set,
)
from repro.lint import assert_clean, run_lint
from repro.core import TopKConfig, top_k_addition_sweep, top_k_elimination_sweep


class TestI1Benchmark:
    def test_design_is_valid(self, i1_design):
        assert_clean(run_lint(i1_design, categories=("netlist", "coupling")))

    def test_delay_ordering(self, i1_design):
        nominal = circuit_delay(i1_design, "none")
        noisy = circuit_delay(i1_design, "all")
        assert 0 < nominal < noisy
        # The noise impact is in the paper's ballpark: a few to ~30%.
        assert noisy / nominal < 1.5

    def test_addition_set(self, i1_design):
        r = top_k_addition_set(i1_design, 5)
        assert r.effective_k == 5
        nominal = circuit_delay(i1_design, "none")
        assert r.delay > nominal

    def test_elimination_set(self, i1_design):
        r = top_k_elimination_set(i1_design, 5)
        assert r.effective_k == 5
        noisy = circuit_delay(i1_design, "all")
        assert r.delay < noisy

    def test_figure10_shape(self, i1_design):
        """Addition rises from the floor, elimination falls from the
        ceiling, and the gap between them shrinks with k (Figure 10)."""
        ks = [1, 5, 10]
        add = top_k_addition_sweep(i1_design, ks)
        elim = top_k_elimination_sweep(i1_design, ks)
        nominal = circuit_delay(i1_design, "none")
        noisy = circuit_delay(i1_design, "all")
        for a, e in zip(add, elim):
            assert nominal - 1e-9 <= a.delay <= noisy + 1e-9
            assert nominal - 1e-9 <= e.delay <= noisy + 1e-9
            assert a.delay <= e.delay + 1e-6  # curves have not crossed yet
        gap_first = elim[0].delay - add[0].delay
        gap_last = elim[-1].delay - add[-1].delay
        assert gap_last < gap_first

    def test_analyze_facade(self, i1_design):
        r = analyze(i1_design, k=3, mode="elimination")
        assert r.mode == "elimination"
        assert r.effective_k <= 3


class TestScalingBehavior:
    def test_runtime_grows_tamely_with_k(self, i1_design):
        """The paper's headline: runtime grows far slower than C(r, k)."""
        pts = top_k_addition_sweep(i1_design, [1, 4, 8])
        t1 = max(pts[0].runtime_s, 1e-3)
        t8 = pts[-1].runtime_s
        # C(232,8)/C(232,1) is ~1e13; the algorithm must stay within a
        # couple orders of magnitude of its k=1 cost.
        assert t8 / t1 < 500

    def test_stats_report_pruning(self, i1_design):
        r = top_k_addition_set(i1_design, 5)
        assert r.stats.dominated > 0
        assert r.stats.candidates > r.stats.dominated


class TestBenchmarkFamilies:
    @pytest.mark.parametrize("name", ["i2", "i3"])
    def test_other_benchmarks_run(self, name):
        design = make_paper_benchmark(name)
        cfg = TopKConfig(max_sets_per_cardinality=8)
        r = top_k_addition_set(design, 3, cfg)
        assert r.delay is not None
        assert r.delay >= r.nominal_delay - 1e-9
