"""Unit tests for aggressor-budget recommendation (repro.core.recommend)."""

import pytest

from repro.core.recommend import (
    BudgetError,
    recommend_addition_budget,
    recommend_elimination_budget,
)


class TestValidation:
    def test_coverage_range(self, tiny_design):
        with pytest.raises(BudgetError):
            recommend_addition_budget(tiny_design, coverage=0.0)
        with pytest.raises(BudgetError):
            recommend_addition_budget(tiny_design, coverage=1.5)

    def test_k_max(self, tiny_design):
        with pytest.raises(BudgetError):
            recommend_addition_budget(tiny_design, k_max=0)


class TestAdditionBudget:
    def test_low_target_met_early(self, tiny_design):
        rec = recommend_addition_budget(
            tiny_design, coverage=0.2, k_max=8
        )
        assert rec.satisfied
        assert rec.recommended_k <= 8
        assert rec.achieved_coverage >= 0.2

    def test_anchors_consistent(self, tiny_design):
        rec = recommend_addition_budget(tiny_design, coverage=0.2, k_max=8)
        assert rec.noiseless_ns <= rec.all_aggressor_ns
        assert rec.mode == "addition"

    def test_impossible_target_reported(self, tiny_design):
        rec = recommend_addition_budget(
            tiny_design, coverage=1.0, ks=[1]
        )
        # One aggressor almost never explains 100% of the noise.
        if not rec.satisfied:
            assert rec.recommended_k is None
            assert 0.0 <= rec.achieved_coverage < 1.0

    def test_sweep_attached(self, tiny_design):
        rec = recommend_addition_budget(tiny_design, coverage=0.3, k_max=6)
        assert rec.sweep
        assert all(p.k <= 6 for p in rec.sweep)


class TestEliminationBudget:
    def test_low_target_met(self, tiny_design):
        rec = recommend_elimination_budget(
            tiny_design, coverage=0.2, k_max=8
        )
        assert rec.satisfied
        assert rec.mode == "elimination"

    def test_higher_coverage_needs_no_smaller_k(self, tiny_design):
        lo = recommend_elimination_budget(tiny_design, coverage=0.1, k_max=8)
        hi = recommend_elimination_budget(tiny_design, coverage=0.5, k_max=8)
        if lo.satisfied and hi.satisfied:
            assert hi.recommended_k >= lo.recommended_k

    def test_custom_schedule(self, tiny_design):
        rec = recommend_elimination_budget(
            tiny_design, coverage=0.1, ks=[2, 4]
        )
        assert [p.k for p in rec.sweep] == [2, 4]
