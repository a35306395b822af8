"""Focused tests on the elimination-mode engine internals."""

import numpy as np
import pytest

from repro.core.engine import ELIMINATION, SINK, TopKConfig, TopKEngine, _rebuild


@pytest.fixture(scope="module")
def engine(small_design):
    eng = TopKEngine(small_design, ELIMINATION, TopKConfig())
    eng.solve(4)
    return eng


class TestEliminationContexts:
    def test_total_env_covers_every_candidate(self, engine):
        """Every candidate's envelope is (approximately) a part of the
        total envelope — the subtraction in the score stays meaningful."""
        for ctx in engine.contexts.values():
            if ctx.total_env is None:
                continue
            for cands in ctx.ilists.values():
                for cand in cands:
                    overshoot = np.clip(
                        cand.env - ctx.total_env, 0.0, None
                    ).max(initial=0.0)
                    # Pseudo approximations may overshoot slightly; the
                    # clip in the scorer handles the residual.
                    assert overshoot <= 0.6

    def test_scores_are_remaining_noise(self, engine):
        """Elimination scores are bounded by the victim's total shift."""
        for ctx in engine.contexts.values():
            for cands in ctx.ilists.values():
                for cand in cands:
                    assert cand.score >= -1e-9
                    assert cand.score <= ctx.shift_tot + 2e-2

    def test_window_source_is_noisy(self, engine, small_design):
        """Primary envelopes must come from the converged noisy windows:
        at least one aggressor window is wider than its nominal one."""
        from repro.timing.sta import run_sta

        nominal = run_sta(small_design.netlist)
        widened = 0
        for ctx in engine.contexts.values():
            for info in ctx.primary_info:
                window = info.window
                nom = nominal.window(info.aggressor)
                if window.lat > nom.lat + 1e-9:
                    widened += 1
        assert widened > 0

    def test_blocked_prevents_double_count(self, engine):
        """Reduction atoms carry their primary coupling in `blocked`, so
        no kept set merges a narrowing with the removal of the same
        coupling."""
        for ctx in engine.contexts.values():
            for cands in ctx.ilists.values():
                for cand in cands:
                    assert not (cand.blocked & cand.couplings)

    def test_sink_selection_is_minimum(self, engine):
        sink = engine.contexts[SINK]
        sol = engine.solve(4)
        if sol.best is None:
            pytest.skip("no candidates at sink")
        for i, cands in sink.ilists.items():
            for cand in cands:
                if cand.cardinality <= 4:
                    assert sol.best.score <= cand.score + 1e-12


class TestHigherOrderAtoms:
    def test_atom_envelopes_are_readonly_and_sized_to_the_grid(
        self, small_design
    ):
        seen = 0
        for mode in ("addition", "elimination"):
            eng = TopKEngine(small_design, mode, TopKConfig())
            eng.solve(2)
            for ctx in eng.contexts.values():
                for seg, block in eng._higher_order_atoms(ctx, 3):
                    assert block.shape == (len(seg), ctx.grid.n)
                    assert not block.flags.writeable
                    # The segment rebuilds its rows bit-identically.
                    rows = list(range(len(seg)))
                    rebuilt = _rebuild([(ctx, seg, r) for r in rows])
                    assert np.array_equal(rebuilt, block)
                    some = _rebuild([(ctx, seg, r) for r in rows[::-2]])
                    assert np.array_equal(some, block[::-2])
                    seen += len(seg)
        assert seen > 0
