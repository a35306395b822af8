"""Piecewise-linear waveforms and sampling grids.

All voltage waveforms in the library — victim transitions, noise pulses,
noise envelopes, pseudo-aggressor envelopes — are piecewise linear (PWL)
with voltages normalized to Vdd = 1.0.  Two representations coexist:

* :class:`Waveform` — exact breakpoints, used to *construct* shapes
  (ramps, triangles, trapezoids) and for analytic queries;
* a *sampled* form (a numpy vector on a shared :class:`Grid`) used by the
  hot loops: envelope summation is vector addition and dominance checking
  is a vectorized pointwise comparison.

Times are in ns throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


class WaveformError(ValueError):
    """Raised for malformed waveform construction or queries."""


@dataclass(frozen=True)
class Grid:
    """A uniform sampling grid ``[t_start, t_end]`` with ``n`` points.

    Grids are shared per victim net so that every envelope touching that
    victim lives on the same time base.
    """

    t_start: float
    t_end: float
    n: int = 256

    def __post_init__(self) -> None:
        if self.n < 2:
            raise WaveformError(f"grid needs >= 2 points, got {self.n}")
        if not self.t_end > self.t_start:
            raise WaveformError(
                f"grid end {self.t_end} must exceed start {self.t_start}"
            )

    @property
    def times(self) -> np.ndarray:
        # Cached: grids are shared per victim and sampled thousands of
        # times in the solver's hot loop.
        cached = self.__dict__.get("_times")
        if cached is None:
            cached = np.linspace(self.t_start, self.t_end, self.n)
            cached.setflags(write=False)
            object.__setattr__(self, "_times", cached)
        return cached

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n - 1)

    def index_at(self, t: float) -> int:
        """Index of the grid point closest to ``t`` (clamped)."""
        idx = int(round((t - self.t_start) / self.dt))
        return max(0, min(self.n - 1, idx))

    def expanded(self, t_lo: float, t_hi: float) -> "Grid":
        """A grid covering the union of this span and ``[t_lo, t_hi]``."""
        return Grid(
            min(self.t_start, t_lo), max(self.t_end, t_hi), self.n
        )


def grid_rows(start: np.ndarray, stop: np.ndarray, n: int) -> np.ndarray:
    """The times of one :class:`Grid` per row, ``(m, n)``.

    Row ``r`` equals ``Grid(start[r], stop[r], n).times`` bit for bit
    (``np.linspace`` along ``axis=1`` runs the same operations per
    element), and a row :class:`Grid` would reject raises its error.
    """
    ok = stop > start
    if n < 2 or not ok.all():
        bad = int(np.argmin(ok))
        Grid(float(start[bad]), float(stop[bad]), n)  # raises its WaveformError
    return np.ascontiguousarray(np.linspace(start, stop, n, axis=1))


def grids_of(start: np.ndarray, stop: np.ndarray, n: int) -> Tuple[List[Grid], np.ndarray]:
    """One :class:`Grid` per row and their read-only ``(m, n)`` times.

    Each grid's :attr:`Grid.times` is its row of the matrix, so no grid
    samples its own ``linspace`` again.
    """
    times = grid_rows(start, stop, n)
    times.setflags(write=False)
    grids: List[Grid] = []
    for t_start, t_end, row in zip(start.tolist(), stop.tolist(), times):
        grid = Grid(t_start, t_end, n)
        object.__setattr__(grid, "_times", row)
        grids.append(grid)
    return grids, times


class Waveform:
    """An exact piecewise-linear waveform.

    Outside its breakpoints the waveform holds its first/last value
    (standard PWL-source semantics).  Construction validates monotonically
    increasing time points.
    """

    __slots__ = ("times", "values")

    def __init__(
        self, times: Sequence[float], values: Sequence[float]
    ) -> None:
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise WaveformError("times/values must be equal-length 1-D")
        if t.size == 0:
            raise WaveformError("waveform needs at least one breakpoint")
        if np.any(np.diff(t) < 0):
            raise WaveformError("breakpoint times must be non-decreasing")
        self.times = t
        self.values = v

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def __call__(self, t) -> np.ndarray:
        """Evaluate at scalar or array ``t`` (held flat outside range)."""
        return np.interp(t, self.times, self.values)

    def sample(self, grid: Grid) -> np.ndarray:
        """Sample onto a :class:`Grid` as a plain vector."""
        return np.interp(grid.times, self.times, self.values)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def shifted(self, dt: float) -> "Waveform":
        """Time-shift by ``dt`` (positive = later)."""
        return Waveform(self.times + dt, self.values.copy())

    def scaled(self, factor: float) -> "Waveform":
        """Scale voltages by ``factor``."""
        return Waveform(self.times.copy(), self.values * factor)

    def clipped(self, lo: float = 0.0, hi: float = 1.0) -> "Waveform":
        """Clip voltages into ``[lo, hi]``."""
        return Waveform(self.times.copy(), np.clip(self.values, lo, hi))

    def plus(self, other: "Waveform") -> "Waveform":
        """Pointwise sum on the merged breakpoint set."""
        t = np.union1d(self.times, other.times)
        return Waveform(t, self(t) + other(t))

    def minus(self, other: "Waveform") -> "Waveform":
        t = np.union1d(self.times, other.times)
        return Waveform(t, self(t) - other(t))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def peak(self) -> float:
        """Maximum value."""
        return float(self.values.max())

    def peak_time(self) -> float:
        """Time of the (first) maximum value."""
        return float(self.times[int(np.argmax(self.values))])

    def crossing_time(
        self, level: float, rising: bool = True, last: bool = True
    ) -> Optional[float]:
        """Interpolated time of a level crossing.

        Parameters
        ----------
        level:
            Voltage level to cross.
        rising:
            Direction of the crossing (value passes the level from below
            when True).
        last:
            Return the last such crossing (default) or the first.
        """
        return crossing_time(self.times, self.values, level, rising, last)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return bool(
            np.array_equal(self.times, other.times)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:  # breakpoints are float arrays; id-hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Waveform([{self.t_start:.4g}..{self.t_end:.4g}] ns, "
            f"{self.times.size} pts, peak={self.peak():.3f})"
        )


def crossing_time(
    times: np.ndarray,
    values: np.ndarray,
    level: float,
    rising: bool = True,
    last: bool = True,
) -> Optional[float]:
    """Interpolated crossing time on sampled data; ``None`` if no crossing.

    A *rising* crossing at segment i means ``values[i] < level <=
    values[i+1]``; falling is symmetric.  With ``last=True`` the latest
    crossing is returned — exactly the t50 definition used for delay noise
    (the final time the noisy victim transition passes 50%).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 2:
        return None
    below = values < level
    if rising:
        idx = np.flatnonzero(below[:-1] & ~below[1:])
    else:
        idx = np.flatnonzero(~below[:-1] & below[1:])
    if idx.size == 0:
        # Handle a waveform that starts exactly on the level going the
        # right way, or never crosses.
        return None
    i = idx[-1] if last else idx[0]
    v0, v1 = values[i], values[i + 1]
    t0, t1 = times[i], times[i + 1]
    if v1 == v0:
        return float(t1)
    frac = (level - v0) / (v1 - v0)
    return float(t0 + frac * (t1 - t0))


def rising_ramp(t50: float, slew: float) -> Waveform:
    """A saturated 0→1 ramp crossing 0.5 at ``t50`` with 0-100% time ``slew``."""
    if slew <= 0:
        raise WaveformError(f"slew must be > 0, got {slew}")
    return Waveform(
        [t50 - slew / 2.0, t50 + slew / 2.0],
        [0.0, 1.0],
    )


def falling_ramp(t50: float, slew: float) -> Waveform:
    """A saturated 1→0 ramp crossing 0.5 at ``t50``."""
    if slew <= 0:
        raise WaveformError(f"slew must be > 0, got {slew}")
    return Waveform(
        [t50 - slew / 2.0, t50 + slew / 2.0],
        [1.0, 0.0],
    )


def triangle(t_start: float, t_peak: float, t_end: float, height: float) -> Waveform:
    """A triangular pulse (used for coupled noise pulses)."""
    if not (t_start <= t_peak <= t_end):
        raise WaveformError(
            f"triangle needs t_start <= t_peak <= t_end, got "
            f"{t_start}, {t_peak}, {t_end}"
        )
    if height < 0:
        raise WaveformError("triangle height must be >= 0")
    return Waveform(
        [t_start, t_peak, t_end],
        [0.0, height, 0.0],
    )


def trapezoid(
    t_start: float,
    t_top_start: float,
    t_top_end: float,
    t_end: float,
    height: float,
) -> Waveform:
    """A trapezoidal pulse (the shape of a noise envelope)."""
    if not (t_start <= t_top_start <= t_top_end <= t_end):
        raise WaveformError(
            "trapezoid needs t_start <= t_top_start <= t_top_end <= t_end"
        )
    if height < 0:
        raise WaveformError("trapezoid height must be >= 0")
    return Waveform(
        [t_start, t_top_start, t_top_end, t_end],
        [0.0, height, height, 0.0],
    )


def zero() -> Waveform:
    """The all-zero waveform."""
    return Waveform([0.0], [0.0])


def envelope_max(waveforms: Iterable[Waveform]) -> Waveform:
    """Pointwise maximum of several waveforms (exact upper envelope).

    Between consecutive breakpoints every waveform is linear, so the upper
    envelope is piecewise linear with extra breakpoints only where two
    segments cross; those crossing times are computed and inserted.
    """
    wfs = list(waveforms)
    if not wfs:
        return zero()
    t = wfs[0].times
    for w in wfs[1:]:
        t = np.union1d(t, w.times)
    extra = []
    for i in range(len(wfs)):
        for j in range(i + 1, len(wfs)):
            a, b = wfs[i], wfs[j]
            va = a(t)
            vb = b(t)
            diff = va - vb
            sign_change = np.flatnonzero(diff[:-1] * diff[1:] < 0)
            for idx in sign_change:
                d0, d1 = diff[idx], diff[idx + 1]
                frac = d0 / (d0 - d1)
                extra.append(t[idx] + frac * (t[idx + 1] - t[idx]))
    if extra:
        t = np.union1d(t, np.asarray(extra))
    stacked = np.vstack([w(t) for w in wfs])
    return Waveform(t, stacked.max(axis=0))
