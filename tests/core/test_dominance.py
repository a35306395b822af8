"""Unit tests for dominance, batched scoring, and irredundant reduction.

Includes the paper's Figure 6 scenario: envelope D dominates C, while A
and B are mutually non-dominated.
"""

import numpy as np
import pytest

from repro.core.aggressor_set import EnvelopeSet
from repro.core.dominance import (
    DOMINANCE_BLOCK,
    DominanceInterval,
    batch_delay_noise,
    envelope_dominates,
    reduce_irredundant,
)
from repro.noise.envelope import ENCAPSULATION_TOL, NoiseEnvelope
from repro.noise.superposition import delay_noise_sampled
from repro.timing.waveform import Grid, triangle


GRID = Grid(0.0, 4.0, 512)


def sampled_set(ids, t0, tp, t1, h, score=0.0):
    env = NoiseEnvelope("v", triangle(t0, tp, t1, h)).sample(GRID)
    return EnvelopeSet(frozenset(ids), env, score=score)


def reduce_sets(cands, interval, grid, maximize, max_sets=None):
    """:func:`reduce_irredundant` over sets: (kept sets, dominated count)."""
    matrix = np.array([c.env for c in cands]).reshape(len(cands), grid.n)
    scores = np.array([c.score for c in cands], dtype=float)
    kept, pruned = reduce_irredundant(
        matrix, scores, interval, grid, maximize, max_sets
    )
    return [cands[p] for p in kept], len(pruned)


class TestDominanceInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            DominanceInterval(2.0, 1.0)

    def test_mask(self):
        interval = DominanceInterval(1.0, 2.0)
        mask = interval.mask(GRID)
        times = GRID.times
        assert np.all(times[mask] >= 1.0)
        assert np.all(times[mask] <= 2.0)
        assert mask.any()


class TestBatchDelayNoise:
    def test_matches_scalar_implementation(self):
        envs = [
            sampled_set({1}, 0.8, 1.0, 1.6, 0.25),
            sampled_set({2}, 0.5, 1.2, 2.0, 0.4),
            sampled_set({3}, 0.0, 0.2, 0.4, 0.9),
        ]
        matrix = np.stack([e.env for e in envs])
        batch = batch_delay_noise(1.0, 0.15, matrix, GRID)
        for i, e in enumerate(envs):
            scalar = delay_noise_sampled(1.0, 0.15, e.env, GRID)
            assert batch[i] == pytest.approx(scalar, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batch_delay_noise(1.0, 0.1, np.zeros(GRID.n), GRID)

    def test_zero_envelope_zero_noise(self):
        out = batch_delay_noise(1.0, 0.1, np.zeros((2, GRID.n)), GRID)
        assert out == pytest.approx([0.0, 0.0])

    def test_saturating_row_clamps(self):
        matrix = np.vstack([np.zeros(GRID.n), np.full(GRID.n, 0.9)])
        out = batch_delay_noise(1.0, 0.1, matrix, GRID)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(GRID.t_end - 1.0)


class TestFigure6:
    """The paper's dominance illustration."""

    def setup_method(self):
        # D is a tall wide trapezoid-ish envelope; C is nested inside it.
        self.d = sampled_set({4}, 0.5, 1.5, 3.0, 0.5)
        self.c = sampled_set({3}, 0.8, 1.5, 2.5, 0.3)
        # A and B cross each other: neither encapsulates.
        self.a = sampled_set({1}, 0.2, 0.8, 2.2, 0.45)
        self.b = sampled_set({2}, 0.6, 2.0, 3.4, 0.35)
        self.interval = DominanceInterval(0.5, 3.5)

    def test_d_dominates_c(self):
        assert envelope_dominates(self.d, self.c, self.interval, GRID)
        assert not envelope_dominates(self.c, self.d, self.interval, GRID)

    def test_a_b_mutually_non_dominated(self):
        assert not envelope_dominates(self.a, self.b, self.interval, GRID)
        assert not envelope_dominates(self.b, self.a, self.interval, GRID)

    def test_reduction_drops_only_dominated(self):
        cands = [self.a, self.b, self.c, self.d]
        for cand in cands:
            cand.score = float(
                batch_delay_noise(1.0, 0.15, cand.env[None, :], GRID)[0]
            )
        kept, dominated = reduce_sets(
            cands, self.interval, GRID, maximize=True
        )
        kept_ids = {tuple(sorted(c.couplings)) for c in kept}
        assert (3,) not in kept_ids  # C dominated by D
        assert {(1,), (2,), (4,)} <= kept_ids
        assert dominated == 1


class TestReduceIrredundant:
    def test_empty(self):
        kept, dom = reduce_sets(
            [], DominanceInterval(0, 1), GRID, maximize=True
        )
        assert kept == [] and dom == 0

    def test_cap_limits_output(self):
        cands = [
            sampled_set({i}, 0.5 + 0.01 * i, 1.5, 2.5, 0.1 + 0.01 * i,
                        score=float(i))
            for i in range(10)
        ]
        kept, _ = reduce_sets(
            cands, DominanceInterval(0.0, 4.0), GRID,
            maximize=True, max_sets=3,
        )
        assert len(kept) <= 3
        # Best scores kept first.
        assert kept[0].score == 9.0

    def test_identical_envelopes_keep_one(self):
        a = sampled_set({1}, 0.5, 1.5, 2.5, 0.3, score=1.0)
        b = sampled_set({2}, 0.5, 1.5, 2.5, 0.3, score=1.0)
        kept, dominated = reduce_sets(
            [a, b], DominanceInterval(0.0, 4.0), GRID, maximize=True
        )
        assert len(kept) == 1 and dominated == 1

    def test_interval_outside_grid_falls_back_to_score(self):
        cands = [
            sampled_set({1}, 0.5, 1.5, 2.5, 0.3, score=0.1),
            sampled_set({2}, 0.5, 1.5, 2.5, 0.6, score=0.9),
        ]
        kept, _ = reduce_sets(
            cands, DominanceInterval(10.0, 11.0), GRID,
            maximize=True, max_sets=1,
        )
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_minimize_sorts_ascending(self):
        # Elimination mode: smaller remaining noise first.
        a = sampled_set({1}, 0.5, 1.5, 2.5, 0.5, score=0.2)
        b = sampled_set({2}, 0.6, 1.5, 2.4, 0.3, score=0.8)
        kept, _ = reduce_sets(
            [a, b], DominanceInterval(0.0, 4.0), GRID, maximize=False
        )
        assert kept[0].score == 0.2


def reference_scan(candidates, interval, grid, maximize, max_sets, recorder):
    """The sequential scan: each candidate, best score first, against
    every row kept so far; the first encapsulating kept row drops it."""
    order = sorted(candidates, key=lambda c: (-c.score if maximize else c.score))
    mask = interval.mask(grid)
    kept, dominated = [], 0
    limit = max_sets if max_sets is not None else len(order)
    for cand in order:
        if len(kept) >= limit:
            break
        row = cand.env[mask]
        first = next(
            (k for k in kept if np.all(k.env[mask] >= row - ENCAPSULATION_TOL)),
            None,
        )
        if first is not None:
            recorder(first, cand)
            dominated += 1
            continue
        kept.append(cand)
    return kept, dominated


def tie_heavy_candidates(m, seed, grid):
    """Candidates drawn from a few shapes and scales, so many dominate
    each other, some only at exactly the tolerance, with tied scores."""
    rng = np.random.default_rng(seed)
    shapes = rng.random((4, grid.n))
    cands = []
    for i in range(m):
        env = shapes[rng.integers(4)] * rng.choice([0.5, 1.0, 1.5])
        if cands and rng.random() < 0.3:
            # a copy of an earlier envelope lifted by exactly the tolerance
            env = cands[rng.integers(len(cands))].env + ENCAPSULATION_TOL
        if rng.random() < 0.2:
            env = env.copy()
            env[rng.integers(grid.n)] += rng.choice([-1.0, 1.0]) * 1e-3
        score = float(rng.choice([0.1, 0.2, 0.3])) if rng.random() < 0.5 else float(rng.random())
        cands.append(EnvelopeSet(frozenset({i}), env, score=score))
    return cands


class TestBlockedScanMatchesSequential:
    GRID = Grid(0.0, 1.0, 48)
    INTERVAL = DominanceInterval(0.2, 0.8)

    @pytest.mark.parametrize(
        "m",
        sorted({1, 63, 64, 65, 200}
               | {DOMINANCE_BLOCK - 1, DOMINANCE_BLOCK, DOMINANCE_BLOCK + 1,
                  2 * DOMINANCE_BLOCK + 1}),
    )
    @pytest.mark.parametrize("max_sets", [None, 1, 12])
    @pytest.mark.parametrize("maximize", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_kept_count_and_recorder_calls(self, m, max_sets, maximize, seed):
        cands = tie_heavy_candidates(m, seed, self.GRID)
        position = {id(c): p for p, c in enumerate(cands)}
        want_log = []
        want = reference_scan(
            cands, self.INTERVAL, self.GRID, maximize, max_sets,
            lambda a, b: want_log.append((position[id(a)], position[id(b)])),
        )
        kept, pruned = reduce_irredundant(
            np.array([c.env for c in cands]),
            np.array([c.score for c in cands]),
            self.INTERVAL, self.GRID, maximize, max_sets,
        )
        assert kept == [position[id(c)] for c in want[0]]
        assert len(pruned) == want[1]
        assert pruned == want_log

    def test_rows_select_and_order_the_candidates(self):
        # ``rows`` picks a subset; ties keep the order ``rows`` gives.
        cands = tie_heavy_candidates(40, 3, self.GRID)
        matrix = np.array([c.env for c in cands])
        scores = np.array([c.score for c in cands])
        rows = list(range(39, -1, -3))
        kept, pruned = reduce_irredundant(
            matrix, scores, self.INTERVAL, self.GRID, True, None, rows=rows
        )
        sub_kept, sub_pruned = reduce_irredundant(
            matrix[rows], scores[rows], self.INTERVAL, self.GRID, True, None
        )
        assert kept == [rows[p] for p in sub_kept]
        assert pruned == [(rows[d], rows[p]) for d, p in sub_pruned]

    def test_candidates_exercise_ties_and_pruning(self):
        # The generator must actually produce the cases the test is for.
        cands = tie_heavy_candidates(200, 0, self.GRID)
        kept, dominated = reference_scan(
            cands, self.INTERVAL, self.GRID, True, None, lambda a, b: None
        )
        assert dominated > 50 and len(kept) > 1
        assert len({c.score for c in cands}) < len(cands)
