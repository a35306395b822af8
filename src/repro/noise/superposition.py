"""Delay noise by superposition.

The worst-case delay noise of an aggressor set is obtained by superimposing
the combined noise envelope on the *latest* victim transition and measuring
how far the 50%-Vdd crossing moves out (paper Section 2, Figure 3).

For a rising victim, coupled noise in the slowdown direction subtracts from
the transition; the noisy waveform is ``ramp(t) - envelope(t)`` and the
delay noise is ``t50_noisy - t50_nominal`` with the *last* 0.5 crossing
taken (the envelope may push the waveform back below 0.5 after the nominal
crossing).  Falling victims are symmetric, so the library analyzes
everything in rising-normalized form.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..timing.waveform import (
    Grid,
    Waveform,
    WaveformError,
    crossing_time,
    rising_ramp,
)
from .envelope import NoiseEnvelope, combine


#: Levels of the rising reference ramp's two breakpoints.
_RAMP_LEVELS = np.array([0.0, 1.0])


class SuperpositionError(RuntimeError):
    """Raised when a victim transition cannot be evaluated on its grid."""


def victim_grid(
    t50: float,
    slew: float,
    envelopes: Iterable[NoiseEnvelope] = (),
    horizon: Optional[float] = None,
    n: int = 256,
) -> Grid:
    """A grid wide enough for a victim transition and its envelopes.

    Spans from slightly before the earliest event (transition start or
    first envelope onset) to past the latest envelope tail, so the last
    0.5 crossing is always inside the grid.
    """
    t_lo = t50 - slew
    t_hi = t50 + slew
    for env in envelopes:
        t_lo = min(t_lo, env.t_start)
        t_hi = max(t_hi, env.t_end)
    if horizon is not None:
        t_hi = max(t_hi, horizon)
    span = max(t_hi - t_lo, 1e-3)
    return Grid(t_lo - 0.05 * span, t_hi + 0.05 * span, n)


def delay_noise_sampled(
    t50: float,
    slew: float,
    combined: np.ndarray,
    grid: Grid,
) -> float:
    """Delay noise (ns, >= 0) of a sampled combined envelope.

    Parameters
    ----------
    t50:
        Nominal (noiseless) 50% crossing of the latest victim transition.
    slew:
        Victim 0-100% transition time, ns.
    combined:
        Combined envelope sampled on ``grid``.
    grid:
        The sampling grid; must cover the envelope support.
    """
    if combined.shape != (grid.n,):
        raise SuperpositionError(
            f"combined envelope has shape {combined.shape}, expected ({grid.n},)"
        )
    times = grid.times
    ramp = rising_ramp(t50, slew)
    noisy = ramp(times) - combined
    t_cross = crossing_time(times, noisy, 0.5, rising=True, last=True)
    if t_cross is None:
        if noisy[-1] >= 0.5:
            # Never dipped below 0.5 on the grid -> the nominal crossing
            # happened before the grid start; no slowdown observable.
            return 0.0
        # Still below 0.5 at grid end: clamp to the grid horizon.
        return max(0.0, float(times[-1]) - t50)
    return max(0.0, t_cross - t50)


def delay_noise_stacked(
    t50: np.ndarray,
    slew: np.ndarray,
    combined: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """:func:`delay_noise_sampled` over stacked victims, one per row.

    Row ``i`` is one victim: nominal ``t50[i]``, slew ``slew[i]`` and
    combined envelope ``combined[i]`` sampled on the time row
    ``times[i]``.  The reference ramp is sampled with ``np.interp`` as
    :func:`~repro.timing.waveform.rising_ramp` is, and the last 0.5
    crossing and both clamps use the arithmetic of
    :func:`~repro.timing.waveform.crossing_time` and
    :func:`delay_noise_sampled`, so ``out[i]`` equals
    ``delay_noise_sampled`` on that row bit for bit.
    """
    bad = slew <= 0
    if bad.any():
        raise WaveformError(f"slew must be > 0, got {slew[np.argmax(bad)]}")
    m, n = combined.shape
    ramps = np.stack((t50 - slew / 2.0, t50 + slew / 2.0), axis=1)
    noisy = np.empty((m, n))
    for i, xp in enumerate(ramps):
        noisy[i] = np.interp(times[i], xp, _RAMP_LEVELS)
    noisy -= combined
    below = noisy < 0.5
    cross = below[:, :-1] & ~below[:, 1:]
    last = n - 2 - np.argmax(cross[:, ::-1], axis=1)
    rows = np.arange(m)
    v0, v1 = noisy[rows, last], noisy[rows, last + 1]
    t0, t1 = times[rows, last], times[rows, last + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (0.5 - v0) / (v1 - v0)
    t_cross = np.where(v1 == v0, t1, t0 + frac * (t1 - t0))
    late = np.where(noisy[:, -1] >= 0.5, 0.0, times[:, -1] - t50)
    dn = np.where(cross.any(axis=1), t_cross - t50, late)
    return np.where(dn > 0.0, dn, 0.0)


def delay_noise(
    t50: float,
    slew: float,
    envelopes: Iterable[NoiseEnvelope],
    grid: Optional[Grid] = None,
    n: int = 256,
) -> float:
    """Delay noise of a set of envelopes on a victim transition.

    Convenience wrapper building the grid and combining envelopes.
    """
    envs = list(envelopes)
    if not envs:
        return 0.0
    if grid is None:
        grid = victim_grid(t50, slew, envs, n=n)
    return delay_noise_sampled(t50, slew, combine(envs, grid), grid)


def noisy_victim_waveform(
    t50: float,
    slew: float,
    envelopes: Iterable[NoiseEnvelope],
    grid: Optional[Grid] = None,
    n: int = 256,
) -> Waveform:
    """The noisy victim transition itself (for pseudo-aggressor extraction
    and for plotting/debugging)."""
    envs = list(envelopes)
    if grid is None:
        grid = victim_grid(t50, slew, envs, n=n)
    times = grid.times
    noisy = rising_ramp(t50, slew)(times) - combine(envs, grid)
    return Waveform(times, noisy)
