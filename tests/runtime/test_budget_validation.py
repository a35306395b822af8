"""RunBudget rejects knobs that would silently disable a bound."""

from __future__ import annotations

import pytest

from repro.runtime import RunBudget

NAN = float("nan")


class TestRunBudgetValidation:
    @pytest.mark.parametrize(
        "field",
        ["deadline_s", "max_frontier_mb", "escalation", "checkpoint_every_s"],
    )
    def test_nan_is_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            RunBudget(**{field: NAN})

    @pytest.mark.parametrize(
        "knobs",
        [
            {"deadline_s": -1.0},
            {"max_candidates": -5},
            {"max_frontier_mb": 0.0},
            {"escalation": 0.5},
            {"checkpoint_every_s": -0.1},
        ],
        ids=lambda k: next(iter(k)),
    )
    def test_out_of_range_is_rejected(self, knobs):
        with pytest.raises(ValueError):
            RunBudget(**knobs)

    def test_boundary_values_are_accepted(self):
        budget = RunBudget(
            deadline_s=0.0,
            max_frontier_mb=1e-3,
            escalation=1.0,
            checkpoint_every_s=0.0,
        )
        assert budget.deadline_s == 0.0
