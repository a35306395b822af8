"""The solver's fast vectorized samplers must match the exact
Waveform-based constructions they replaced (within float tolerance),
and a row of a sampled block must equal sampling its envelope alone
(bit for bit), over randomized parameters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    _sample_primaries,
    _sample_primary,
    _sample_shift_bumps,
    _sample_trapezoids,
    _shift_bump,
)
from repro.noise.envelope import primary_envelope
from repro.noise.pulse import NoisePulse
from repro.timing.waveform import Grid, trapezoid
from repro.timing.windows import TimingWindow

GRID = Grid(-2.0, 8.0, 1024)


class TestSampleTrapezoid:
    @given(
        t0=st.floats(-1.0, 3.0),
        rise=st.floats(0.001, 2.0),
        top=st.floats(0.0, 2.0),
        fall=st.floats(0.001, 2.0),
        h=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_waveform_trapezoid(self, t0, rise, top, fall, h):
        t1 = t0 + rise
        t2 = t1 + top
        t3 = t2 + fall
        fast = _sample_trapezoids(GRID.times, t0, t1, t2, t3, h)
        exact = trapezoid(t0, t1, t2, t3, h).sample(GRID)
        assert fast == pytest.approx(exact, abs=1e-9)

    def test_degenerate_point(self):
        fast = _sample_trapezoids(GRID.times, 1.0, 1.0, 1.0, 1.0, 0.5)
        # A zero-width trapezoid contributes (essentially) nothing.
        assert fast.max() <= 0.5
        assert (fast > 0).sum() <= 2


class TestSamplePrimary:
    @given(
        peak=st.floats(0.0, 1.0),
        rise=st.floats(0.001, 0.5),
        decay=st.floats(0.001, 1.0),
        eat=st.floats(0.0, 2.0),
        width=st.floats(0.0, 2.0),
        widen=st.floats(0.0, 1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_primary_envelope(
        self, peak, rise, decay, eat, width, widen
    ):
        pulse = NoisePulse(peak=peak, rise=rise, decay=decay, lead=rise / 2)
        window = TimingWindow(eat, eat + width)
        fast = _sample_primary(GRID.times, pulse, window, widen=widen)
        exact = primary_envelope(
            "v", pulse, TimingWindow(eat, eat + width + widen)
        ).sample(GRID)
        assert fast == pytest.approx(exact, abs=1e-9)


class TestSampleShiftBump:
    @given(
        t50=st.floats(0.0, 4.0),
        slew=st.floats(0.01, 1.0),
        delta=st.floats(1e-6, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_shift_bump_waveform(self, t50, slew, delta):
        fast = _sample_shift_bumps(GRID.times, t50, slew, delta)
        exact = _shift_bump(t50, slew, delta).sample(GRID)
        assert fast == pytest.approx(exact, abs=1e-9)

    @given(
        t50=st.floats(0.0, 4.0),
        slew=st.floats(0.01, 1.0),
        delta=st.floats(1e-4, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_height_is_clamped_shift_ratio(self, t50, slew, delta):
        fast = _sample_shift_bumps(GRID.times, t50, slew, delta)
        expected_peak = min(1.0, delta / slew)
        # The grid may miss the exact apex; it can only undershoot.
        assert fast.max() <= expected_peak + 1e-9


def _reference_trapezoid(times, t0, t1, t2, t3, height):
    """The closed form evaluated one trapezoid at a time with Python
    floats: the operation order every block row must reproduce."""
    up = (times - t0) / max(t1 - t0, 1e-12)
    down = (t3 - times) / max(t3 - t2, 1e-12)
    return height * np.clip(np.minimum(np.minimum(up, 1.0), down), 0.0, None)


# Zero-width ramps are drawn often, not left to chance.
_ramp = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
# Widenings that sit exactly on, or half-way between, 1e-9 steps.
_widen = st.one_of(
    st.floats(0.0, 1.5),
    st.integers(0, 1_500_000_000).map(lambda k: k * 1e-9),
    st.integers(0, 1_500_000_000).map(lambda k: (k + 0.5) * 1e-9),
)


def _column(values):
    return np.array(values, dtype=np.float64)[:, None]


class TestBlockRowsAreExact:
    """A block row equals sampling its envelope alone, bit for bit."""

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-1.0, 3.0), _ramp, st.floats(0.0, 2.0), _ramp,
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_trapezoid_rows(self, rows):
        params = [(t0, t0 + r, t0 + r + top, t0 + r + top + f, h)
                  for t0, r, top, f, h in rows]
        block = _sample_trapezoids(GRID.times, *(_column(c) for c in zip(*params)))
        assert block.shape == (len(rows), GRID.n)
        for row, p in zip(block, params):
            assert np.array_equal(row, _reference_trapezoid(GRID.times, *p))
            assert np.array_equal(row, _sample_trapezoids(GRID.times, *p))

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(0.0, 1.0), _ramp, st.floats(0.0, 1.0),
                st.floats(0.0, 2.0), st.floats(0.0, 2.0), _widen,
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_primary_rows_with_quantized_widening(self, rows):
        pulses = [NoisePulse(peak=p, rise=r, decay=d, lead=r / 2)
                  for p, r, d, _, _, _ in rows]
        windows = [TimingWindow(eat, eat + width) for _, _, _, eat, width, _ in rows]
        widens = [round(w, 9) for *_, w in rows]
        block = _sample_primaries(
            GRID.times,
            _column([w.eat for w in windows]),
            _column([w.lat for w in windows]),
            _column([p.lead for p in pulses]),
            _column([p.rise for p in pulses]),
            _column([p.decay for p in pulses]),
            _column([p.peak for p in pulses]),
            _column(widens),
        )
        for row, pulse, window, widen in zip(block, pulses, windows, widens):
            assert np.array_equal(
                row, _sample_primary(GRID.times, pulse, window, widen=widen)
            )
            t_start = window.eat - pulse.lead
            t_top_end = window.lat + widen - pulse.lead + pulse.rise
            assert np.array_equal(
                row,
                _reference_trapezoid(
                    GRID.times, t_start, t_start + pulse.rise, t_top_end,
                    t_top_end + pulse.decay, pulse.peak,
                ),
            )

    @given(
        t50=st.floats(0.0, 4.0),
        slew=st.floats(0.01, 1.0),
        deltas=st.lists(st.floats(1e-9, 3.0), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_bump_rows(self, t50, slew, deltas):
        block = _sample_shift_bumps(GRID.times, t50, slew, _column(deltas))
        for row, delta in zip(block, deltas):
            assert np.array_equal(row, _sample_shift_bumps(GRID.times, t50, slew, delta))
            height = min(1.0, delta / slew)
            t_start = t50 - slew / 2.0
            t_end = t50 + delta + slew / 2.0
            rise = height * slew
            assert np.array_equal(
                row,
                _reference_trapezoid(
                    GRID.times, t_start, t_start + rise, t_end - rise, t_end, height
                ),
            )
