"""Edge-case pins for the row-wise delay-noise kernel.

``delay_noise_rows`` scores every candidate; ``batch_delay_noise`` is
its wrapper for one victim with a shared ramp.  These tests pin the
corner cases of the crossing search — flat segments at the threshold,
rows that never cross, minimal grids, shared vs. per-row time bases —
against the scalar path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dominance import _victim_ramp, batch_delay_noise
from repro.perf.batch import delay_noise_rows
from repro.timing.waveform import Grid

T50 = 1.0
SLEW = 0.4


def _rows_for(env_matrix: np.ndarray, grid: Grid) -> np.ndarray:
    """Run the row kernel the way ``batch_delay_noise`` does."""
    ramp = _victim_ramp(T50, SLEW, grid)
    return delay_noise_rows(
        np.float64(T50), ramp[None, :], env_matrix, grid.times, np.float64(grid.dt)
    )


def _env_for_noisy(noisy: np.ndarray, grid: Grid) -> np.ndarray:
    """The env row that makes ``ramp - env`` equal ``noisy`` exactly."""
    return _victim_ramp(T50, SLEW, grid) - noisy


def _scalar_pins(env_matrix: np.ndarray, grid: Grid) -> np.ndarray:
    """Score each row alone through ``batch_delay_noise``."""
    return np.array(
        [
            batch_delay_noise(T50, SLEW, env_matrix[r : r + 1], grid)[0]
            for r in range(env_matrix.shape[0])
        ]
    )


class TestRowEdgeCases:
    def test_flat_segment_tie_at_threshold(self):
        """A crossing segment with ``|v1 - v0| < 1e-15`` must not divide

        by ~0: the guard pins ``denom`` to 1.0, so the crossing lands on
        the segment start instead of exploding or going NaN.
        """
        grid = Grid(0.0, 2.0, 8)
        v0 = 0.5 - 5e-17  # below threshold, but within the tie guard
        noisy = np.array([0.0, 0.1, v0, 0.5, 0.6, 0.8, 0.9, 1.0])
        env = _env_for_noisy(noisy, grid)[None, :]
        got = _rows_for(env, grid)
        assert np.isfinite(got).all()
        # denom == 1.0 makes frac == 0.5 - v0 ~ 5e-17: the crossing time
        # is the segment-start grid time, and dn is its distance to t50.
        expected = max(0.0, grid.times[2] + (0.5 - v0) * grid.dt - T50)
        assert got[0] == expected
        assert got[0] == _scalar_pins(env, grid)[0]

    def test_no_crossing_ends_high_scores_zero(self):
        """Noise that never pulls the waveform below 0.5 adds no delay."""
        grid = Grid(0.0, 2.0, 16)
        noisy = np.full(grid.n, 0.9)
        env = _env_for_noisy(noisy, grid)[None, :]
        got = _rows_for(env, grid)
        assert got[0] == 0.0
        assert got[0] == _scalar_pins(env, grid)[0]

    def test_no_crossing_ends_low_clamps_to_horizon(self):
        """A waveform held below 0.5 clamps to the grid end (>= 0)."""
        grid = Grid(0.0, 2.0, 16)
        noisy = np.full(grid.n, 0.2)
        env = _env_for_noisy(noisy, grid)[None, :]
        got = _rows_for(env, grid)
        assert got[0] == grid.t_end - T50
        assert got[0] == _scalar_pins(env, grid)[0]

    def test_no_crossing_ends_low_never_negative(self):
        """Horizon clamp floors at zero when the grid ends before t50."""
        grid = Grid(0.0, 0.5, 8)  # t_end < T50
        noisy = np.full(grid.n, 0.2)
        env = _env_for_noisy(noisy, grid)[None, :]
        got = _rows_for(env, grid)
        assert got[0] == 0.0
        assert got[0] == _scalar_pins(env, grid)[0]

    def test_single_segment_grid(self):
        """n=2 grids (one segment) exercise the reversed-argmax index."""
        grid = Grid(0.0, 2.0, 2)
        env = np.stack(
            [
                _env_for_noisy(np.array([0.2, 0.9]), grid),  # crosses
                _env_for_noisy(np.array([0.7, 0.9]), grid),  # ends high
                _env_for_noisy(np.array([0.1, 0.3]), grid),  # ends low
            ]
        )
        got = _rows_for(env, grid)
        pins = _scalar_pins(env, grid)
        assert got.tolist() == pins.tolist()
        assert got[1] == 0.0
        assert got[2] == grid.t_end - T50

    def test_last_crossing_wins(self):
        """A waveform crossing several times scores the *last* crossing."""
        grid = Grid(0.0, 2.0, 8)
        noisy = np.array([0.2, 0.8, 0.3, 0.9, 0.1, 0.7, 0.9, 1.0])
        env = _env_for_noisy(noisy, grid)[None, :]
        got = _rows_for(env, grid)
        # Last rising crossing is segment 4 -> 5 (0.1 -> 0.7).
        frac = (0.5 - 0.1) / (0.7 - 0.1)
        expected = grid.times[4] + frac * grid.dt - T50
        assert got[0] == pytest.approx(expected, abs=1e-12)
        assert got[0] == _scalar_pins(env, grid)[0]

    def test_shared_vs_per_row_times_identical(self):
        """A stacked per-row time base must not change any result."""
        rng = np.random.default_rng(11)
        grid = Grid(0.0, 2.0, 32)
        env = rng.uniform(0.0, 0.8, size=(6, grid.n))
        ramp = _victim_ramp(T50, SLEW, grid)
        m = env.shape[0]
        shared = delay_noise_rows(
            np.full(m, T50),
            np.broadcast_to(ramp, (m, grid.n)),
            env,
            grid.times,
            np.full(m, grid.dt),
        )
        per_row = delay_noise_rows(
            np.full(m, T50),
            np.broadcast_to(ramp, (m, grid.n)),
            env,
            np.broadcast_to(grid.times, (m, grid.n)),
            np.full(m, grid.dt),
        )
        assert shared.tolist() == per_row.tolist()
        assert shared.tolist() == _scalar_pins(env, grid).tolist()

    def test_rejects_non_2d_matrix(self):
        grid = Grid(0.0, 2.0, 8)
        with pytest.raises(ValueError, match="2-D"):
            _rows_for(np.zeros(grid.n), grid)

