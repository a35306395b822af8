"""The budget ladder: deadlines, soft caps, raise vs degrade policies.

Deadline hits are injected (``FaultSpec("deadline", ...)``) so the tests
are deterministic and instant — no real clocks involved.
"""

from __future__ import annotations

import pytest

from repro.api import analyze
from repro.core.bruteforce import brute_force_top_k
from repro.core.engine import ADDITION, ELIMINATION, TopKConfig, TopKEngine
from repro.runtime import (
    BudgetExceededError,
    FaultSpec,
    RunBudget,
    injected,
)

# A hung degradation path must fail, not stall CI (pytest-timeout there).
pytestmark = pytest.mark.timeout(120)


class TestDeadline:
    def test_injected_deadline_degrades_to_partial(self, tiny_design):
        # The fault targets the first budget tick of cardinality 2, so
        # exactly k=1 completes — deterministically.
        cfg = TopKConfig(budget=RunBudget(on_budget="degrade"))
        with injected(FaultSpec("deadline", target="@k2")):
            solution = TopKEngine(tiny_design, ADDITION, cfg).solve(3)
        assert solution.degraded
        report = solution.degradation
        assert report is not None
        assert report.reason == "deadline"
        assert report.rung == 2
        assert report.completed_k == 1
        assert report.requested_k == 3
        assert report.partial
        # The partial answer is still a well-formed cardinality-1 set.
        assert solution.best is not None
        assert len(solution.best.couplings) == 1

    def test_injected_deadline_raises_under_raise_policy(self, tiny_design):
        cfg = TopKConfig(budget=RunBudget(on_budget="raise"))
        with injected(FaultSpec("deadline", target="@k2")):
            engine = TopKEngine(tiny_design, ADDITION, cfg)
            with pytest.raises(BudgetExceededError) as exc:
                engine.solve(3)
        err = exc.value
        assert err.context["reason"] == "deadline"
        assert err.context["cardinality"] == 2
        assert err.net is not None

    def test_degraded_result_through_facade(self, tiny_design):
        with injected(FaultSpec("deadline", target="@k2")):
            result = analyze(
                tiny_design, k=3, config=TopKConfig(budget=RunBudget(deadline_s=1e9))
            )
        assert result.degraded
        assert result.degradation.reason == "deadline"
        assert result.degradation.completed_k == 1
        assert result.delay is not None  # oracle still evaluated the partial set
        assert "DEGRADED" in result.summary()

    def test_real_zero_deadline_degrades(self, tiny_design):
        # A 0-second wall clock is already expired at the first tick.
        result = analyze(
            tiny_design, k=2, config=TopKConfig(budget=RunBudget(deadline_s=0.0))
        )
        assert result.degraded
        assert result.degradation.reason == "deadline"


class TestSoftCaps:
    def test_candidate_cap_narrows_beam_rung1(self, tiny_design):
        # A huge escalation factor keeps the narrowed run under the scaled
        # cap, so the ladder stops at rung 1 and the sweep completes.
        cfg = TopKConfig(
            budget=RunBudget(
                max_candidates=10,
                degraded_beam_width=2,
                escalation=1000.0,
            )
        )
        engine = TopKEngine(tiny_design, ADDITION, cfg)
        solution = engine.solve(3)
        assert solution.degraded
        report = solution.degradation
        assert report.reason == "candidates"
        assert report.rung == 1
        assert report.beam_width == 2
        assert report.completed_k == 3  # sweep finished under the narrow beam
        assert not report.partial
        assert report.optimality_gap() >= 0.0
        # Narrowing left no list wider than the degraded beam at the time;
        # the per-victim provenance records what was dropped.
        assert any(v.dropped > 0 for v in report.victims)
        for v in report.victims:
            assert v.net in tiny_design.netlist.nets
            assert v.best_dropped_score >= 0.0

    def test_candidate_cap_escalates_to_halt(self, tiny_design):
        # Default escalation (1.5x): the narrowed run re-exceeds the tiny
        # cap and the ladder climbs to rung 2 (halt).
        cfg = TopKConfig(budget=RunBudget(max_candidates=5))
        solution = TopKEngine(tiny_design, ADDITION, cfg).solve(3)
        assert solution.degraded
        assert solution.degradation.rung == 2
        assert solution.degradation.reason == "candidates"
        assert solution.degradation.partial

    def test_candidate_cap_raise_policy(self, tiny_design):
        cfg = TopKConfig(
            budget=RunBudget(max_candidates=5, on_budget="raise")
        )
        engine = TopKEngine(tiny_design, ADDITION, cfg)
        with pytest.raises(BudgetExceededError) as exc:
            engine.solve(3)
        assert exc.value.context["reason"] == "candidates"

    def test_memory_cap_degrades(self, tiny_design):
        cfg = TopKConfig(
            budget=RunBudget(max_frontier_mb=1e-6, escalation=1000.0)
        )
        solution = TopKEngine(tiny_design, ADDITION, cfg).solve(2)
        assert solution.degraded
        assert solution.degradation.reason == "memory"

    def test_elimination_mode_degrades_too(self, tiny_design):
        cfg = TopKConfig(budget=RunBudget(on_budget="degrade"))
        with injected(FaultSpec("deadline", target="@k2")):
            solution = TopKEngine(tiny_design, ELIMINATION, cfg).solve(3)
        assert solution.degraded
        assert solution.degradation.completed_k == 1


class TestBruteForceBudget:
    def test_candidate_cap_partial_result(self, tiny_design):
        res = brute_force_top_k(
            tiny_design, k=2, budget=RunBudget(max_candidates=4)
        )
        assert res.timed_out
        assert not res.complete
        assert res.evaluations == 4
        assert res.delay is not None  # best-so-far is still reported

    def test_injected_deadline_partial_result(self, tiny_design):
        with injected(FaultSpec("deadline", after=3)):
            res = brute_force_top_k(
                tiny_design, k=2, budget=RunBudget(deadline_s=1e9)
            )
        assert res.timed_out
        assert res.evaluations == 3

    def test_raise_policy(self, tiny_design):
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_top_k(
                tiny_design,
                k=2,
                budget=RunBudget(max_candidates=4, on_budget="raise"),
            )
        assert exc.value.context["reason"] == "candidates"
        assert exc.value.phase == "bruteforce"

    def test_unbudgeted_run_unchanged(self, tiny_design):
        res = brute_force_top_k(tiny_design, k=1)
        assert res.complete
        assert res.failed_evaluations == 0
