"""Trapezoidal noise envelopes.

A noise envelope bounds all pulses an aggressor can couple onto a victim as
the aggressor's switching instant sweeps its timing window (paper Figure
2): the pulse anchored at the EAT gives the left flank, the pulse anchored
at the LAT the right flank, and the peaks are joined by a plateau — a
trapezoid.

Envelopes are the universal currency of the paper's algorithm: primary
aggressors, *pseudo* input aggressors (propagated fanin noise) and
*higher-order* aggressors (primary aggressors with windows widened by their
own aggressors) all reduce to an envelope plus a set of underlying coupling
ids.  Dominance (:mod:`repro.core.dominance`) and superposition
(:mod:`repro.noise.superposition`) operate on the sampled form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..timing.waveform import Grid, Waveform, trapezoid
from ..timing.windows import TimingWindow
from .pulse import NoisePulse


class EnvelopeError(ValueError):
    """Raised for invalid envelope construction."""


#: Tolerance used in pointwise encapsulation checks (fractions of Vdd).
ENCAPSULATION_TOL = 1e-9


@dataclass(frozen=True)
class NoiseEnvelope:
    """One aggressor's noise envelope on one victim.

    Attributes
    ----------
    victim:
        Victim net name.
    waveform:
        The trapezoidal (or pseudo) envelope, normalized voltage vs ns.
    """

    victim: str
    waveform: Waveform

    @property
    def peak(self) -> float:
        return self.waveform.peak()

    @property
    def t_start(self) -> float:
        return self.waveform.t_start

    @property
    def t_end(self) -> float:
        return self.waveform.t_end

    def sample(self, grid: Grid) -> np.ndarray:
        """Sample onto ``grid`` (vector of normalized voltages)."""
        return self.waveform.sample(grid)

    def shifted(self, dt: float) -> "NoiseEnvelope":
        return replace(self, waveform=self.waveform.shifted(dt))

    def widened_late(self, amount: float) -> "NoiseEnvelope":
        """Extend the plateau's right edge by ``amount`` ns.

        This is the higher-order-aggressor transformation: extra delay
        noise on the aggressor's own fanin widens its timing window, which
        stretches the envelope top to the right while preserving its height
        (paper Section 3.3: "the height of noise envelope of an order 2
        aggressor is the same as its order 1 counterpart").
        """
        if amount < 0:
            raise EnvelopeError(f"cannot widen by {amount}")
        if amount == 0:
            return self
        wf = self.waveform
        times = wf.times.copy()
        values = wf.values.copy()
        peak = values.max()
        if peak <= 0:
            return self
        # Find the last index at the plateau level; shift everything after
        # it right by `amount` and keep the plateau flat across the gap.
        plateau_idx = int(np.flatnonzero(values >= peak - ENCAPSULATION_TOL)[-1])
        new_times = np.concatenate(
            [times[: plateau_idx + 1], times[plateau_idx:] + amount]
        )
        new_values = np.concatenate(
            [values[: plateau_idx + 1], values[plateau_idx:]]
        )
        return replace(self, waveform=Waveform(new_times, new_values))

    def encapsulates(
        self,
        other: "NoiseEnvelope",
        grid: Optional[Grid] = None,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
    ) -> bool:
        """Pointwise ``self >= other`` over an interval.

        With a grid the check is done on samples (the fast path the solver
        uses); without one it is done on the merged breakpoint set (exact).
        ``lo``/``hi`` restrict the comparison to the dominance interval.
        """
        if grid is not None:
            a = self.sample(grid)
            b = other.sample(grid)
            t = grid.times
        else:
            t = np.union1d(self.waveform.times, other.waveform.times)
            a = self.waveform(t)
            b = other.waveform(t)
        mask = np.ones_like(t, dtype=bool)
        if lo is not None:
            mask &= t >= lo
        if hi is not None:
            mask &= t <= hi
        if not mask.any():
            return True
        return bool(np.all(a[mask] >= b[mask] - ENCAPSULATION_TOL))


def primary_envelope(
    victim: str,
    pulse: NoisePulse,
    aggressor_window: TimingWindow,
) -> NoiseEnvelope:
    """Build the trapezoidal envelope of a primary aggressor.

    The pulse anchored at the aggressor EAT forms the rising flank, the one
    anchored at the LAT the falling flank, and the peaks are connected
    (paper Figure 2).
    """
    t_start = aggressor_window.eat - pulse.lead
    t_top_start = t_start + pulse.rise
    t_top_end = aggressor_window.lat - pulse.lead + pulse.rise
    t_end = t_top_end + pulse.decay
    return NoiseEnvelope(
        victim=victim,
        waveform=trapezoid(t_start, t_top_start, t_top_end, t_end, pulse.peak),
    )


def combine(envelopes, grid: Grid) -> np.ndarray:
    """Combined (summed) envelope of several aggressors on one grid.

    The linear framework adds individual envelopes to bound the joint worst
    case (paper Figure 3).  Returns the sampled vector.
    """
    total = np.zeros(grid.n)
    for env in envelopes:
        total += env.sample(grid)
    return total


def envelope_breakpoints(
    eat: np.ndarray,
    lat: np.ndarray,
    lead: np.ndarray,
    rise: np.ndarray,
    decay: np.ndarray,
) -> np.ndarray:
    """``(m, 4)`` breakpoints of ``m`` primary envelopes.

    :func:`primary_envelope` over arrays of window and pulse parameters,
    with the same operations in the same order, so row ``j`` equals the
    ``waveform.times`` of envelope ``j``.
    """
    t_start = eat - lead
    t_top_end = lat - lead + rise
    return np.stack((t_start, t_start + rise, t_top_end, t_top_end + decay), axis=1)


def check_trapezoids(breakpoints: np.ndarray, heights: np.ndarray) -> None:
    """Raise the :class:`~repro.timing.waveform.WaveformError` of
    :func:`~repro.timing.waveform.trapezoid` for the first malformed row."""
    t = breakpoints
    ok = (t[:, 0] <= t[:, 1]) & (t[:, 1] <= t[:, 2]) & (t[:, 2] <= t[:, 3])
    ok &= ~(heights < 0)
    if not ok.all():
        bad = int(np.argmin(ok))
        trapezoid(*t[bad].tolist(), float(heights[bad]))  # raises


def sum_trapezoids(
    times: np.ndarray, rows: np.ndarray, breakpoints: np.ndarray, heights: np.ndarray
) -> np.ndarray:
    """Trapezoids sampled on their victims' time rows, summed per victim.

    ``times`` holds one ``(n,)`` time row per victim and trapezoid ``j``
    (breakpoints ``breakpoints[j]``, height ``heights[j]``) belongs to
    victim row ``rows[j]``.  Each trapezoid is sampled with
    ``np.interp``, as :meth:`Waveform.sample` does, and added into its
    row in trapezoid order starting from zeros, as :func:`combine` does,
    so each row is bit-identical to :func:`combine` over that victim's
    envelopes.  Temporaries stay one row per victim, never one per
    trapezoid.
    """
    total = np.zeros(times.shape)
    values = np.zeros(breakpoints.shape)
    values[:, 1] = heights
    values[:, 2] = heights
    for r, xp, fp in zip(rows.tolist(), breakpoints, values):
        total[r] += np.interp(times[r], xp, fp)
    return total
