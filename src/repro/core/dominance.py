"""Dominance, dominance intervals, and irredundant-list reduction.

Implements the paper's Section 3.2:

* **Dominance** — envelope A dominates envelope B on a victim when A
  pointwise encapsulates B *within the dominance interval*.  By Theorem 1,
  a dominated set can be discarded: any completion of the dominated set is
  itself dominated by the same completion of the dominator.
* **Dominance interval** — ``[t50, t50 + upper_bound]``: noise that dies
  before the victim's noiseless t50 cannot delay it, and no alignment can
  push the noisy t50 past the all-aggressors/infinite-window bound.
* **Irredundant list** — the non-dominated candidates of one cardinality.

The reduction is the paper's pruning plus an optional beam cap
(``max_sets``) documented in DESIGN.md as an engineering knob for very
large pure-Python sweeps; ``max_sets=None`` reproduces the exact algorithm.

Scoring (delay noise per candidate) is implemented here as a batched numpy
kernel since it runs once per candidate per victim per cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..noise.envelope import ENCAPSULATION_TOL
from ..perf.batch import delay_noise_rows
from ..perf.memo import global_cache, grid_key, readonly
from ..timing.waveform import Grid, rising_ramp
from .aggressor_set import EnvelopeSet

#: Candidates tested per block by :func:`reduce_irredundant`.
DOMINANCE_BLOCK = 32

#: Kept rows compared per array operation (bounds the temporaries).
_HIT_COLUMNS = 256

#: Process-wide cache of dominance-interval masks.  The same interval is
#: re-masked for every ``reduce_irredundant`` call at every cardinality
#: of a victim; the mask is a pure function of ``(lo, hi, grid)``.
_MASK_CACHE = global_cache("interval_mask")

#: Process-wide cache of sampled victim reference ramps.  The victim
#: ramp is identical across all scoring calls for one victim context.
_RAMP_CACHE = global_cache("victim_ramp")


@dataclass(frozen=True)
class DominanceInterval:
    """The time interval over which envelope encapsulation must hold."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"inverted dominance interval [{self.lo}, {self.hi}]")

    def mask(self, grid: Grid) -> np.ndarray:
        """Boolean grid mask of the interval (cached, read-only)."""
        key = (self.lo, self.hi) + grid_key(grid)
        cached = _MASK_CACHE.get(key)
        if cached is None:
            t = grid.times
            cached = _MASK_CACHE.put(key, readonly((t >= self.lo) & (t <= self.hi)))
        return cached

    def columns(self, grid: Grid) -> slice:
        """The grid points inside the interval as one slice: the grid is
        ascending, so :meth:`mask` is a single run of True."""
        mask = self.mask(grid)
        if not mask.any():
            return slice(0, 0)
        return slice(int(mask.argmax()), len(mask) - int(mask[::-1].argmax()))


def _victim_ramp(t50: float, slew: float, grid: Grid) -> np.ndarray:
    """The sampled noiseless victim ramp (cached, read-only)."""
    key = (t50, slew) + grid_key(grid)
    cached = _RAMP_CACHE.get(key)
    if cached is None:
        cached = _RAMP_CACHE.put(key, readonly(rising_ramp(t50, slew)(grid.times)))
    return cached


def batch_delay_noise(
    t50: float,
    slew: float,
    env_matrix: np.ndarray,
    grid: Grid,
) -> np.ndarray:
    """Delay noise for many combined envelopes at once.

    Parameters
    ----------
    t50, slew:
        Victim latest transition (noiseless reference).
    env_matrix:
        ``(m, grid.n)`` stack of combined envelopes.
    grid:
        Shared victim grid.

    Returns
    -------
    numpy.ndarray
        ``(m,)`` delay-noise values (ns, >= 0), clamped to the grid end.
    """
    if env_matrix.ndim != 2 or env_matrix.shape[1] != grid.n:
        raise ValueError(
            f"env_matrix must be (m, {grid.n}), got {env_matrix.shape}"
        )
    ramp = _victim_ramp(t50, slew, grid)
    return delay_noise_rows(
        np.float64(t50), ramp[None, :], env_matrix, grid.times, np.float64(grid.dt)
    )


def reduce_irredundant(
    matrix: np.ndarray,
    scores: np.ndarray,
    interval: DominanceInterval,
    grid: Grid,
    maximize: bool,
    max_sets: Optional[int] = None,
    rows: Optional[Sequence[int]] = None,
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Keep the non-dominated candidates (the irredundant list).

    Candidate ``p`` is row ``matrix[p]`` with score ``scores[p]``.  A
    candidate is dropped when an already-kept candidate's envelope
    encapsulates it over the dominance interval.  Processing in
    best-score-first order (a stable sort) makes the scan correct for
    building a *pareto prefix*: a kept set can never be dominated by a
    later (worse-scoring) one, because the dominator of a set always has
    a score at least as good.

    Parameters
    ----------
    maximize:
        True in addition mode (larger delay noise is better), False in
        elimination mode (smaller remaining delay noise is better — which
        still corresponds to the *larger* envelope, so the encapsulation
        direction is identical; only the sort key flips).
    max_sets:
        Optional beam cap applied after dominance (None = exact).
    rows:
        The candidate rows, in candidate order (default: every row).

    Returns
    -------
    (kept, pruned)
        The kept rows, best first, and one ``(dominator, pruned)`` row
        pair per dropped candidate in scan order — what the
        dominance-soundness audit (:mod:`repro.lint.audit`) and the
        certificate re-check.
    """
    candidates = np.arange(len(matrix)) if rows is None else np.asarray(rows, dtype=np.intp)
    if not len(candidates):
        return [], []
    keyed = scores[candidates]
    order = candidates[np.argsort(-keyed if maximize else keyed, kind="stable")]
    cols = interval.columns(grid)
    if cols.stop == cols.start:
        # Degenerate interval outside the grid: nothing distinguishes
        # candidates by dominance; fall back to score order.
        return order[:max_sets].tolist(), []
    kept: List[int] = []
    pruned: List[Tuple[int, int]] = []
    limit = max_sets if max_sets is not None else len(order)
    # The scan is the sequential one (a candidate is dropped for the
    # first kept row that encapsulates it), evaluated a block at a time:
    # a block is tested against the rows kept before it and against
    # itself in one array comparison, then resolved in order.  All
    # candidates are gathered up front, over the interval's columns
    # only; ``seen`` holds the kept rows followed by the current block.
    masked = matrix[order, cols]
    lowered = masked - ENCAPSULATION_TOL
    seen = np.empty((min(limit, len(order)) + DOMINANCE_BLOCK, masked.shape[1]))
    ranked = order.tolist()
    for start in range(0, len(order), DOMINANCE_BLOCK):
        if len(kept) >= limit:
            break
        block = masked[start : start + DOMINANCE_BLOCK]
        base = len(kept)
        seen[base : base + len(block)] = block
        hits = _encapsulation_hits(seen[: base + len(block)], lowered[start : start + len(block)])
        by_kept = [-1] * len(block)
        if base:
            earlier = hits[:, :base]
            by_kept = np.where(earlier.any(axis=1), earlier.argmax(axis=1), -1).tolist()
        among = hits[:, base:].tolist()
        block_kept: List[Tuple[int, int]] = []  # (kept index, block row)
        for r, first in enumerate(by_kept):
            if len(kept) >= limit:
                break
            if first < 0:
                row = among[r]
                for k, b in block_kept:
                    if row[b]:
                        first = k
                        break
            if first >= 0:
                pruned.append((kept[first], ranked[start + r]))
                continue
            block_kept.append((len(kept), r))
            kept.append(ranked[start + r])
        seen[base : len(kept)] = block[[b for _, b in block_kept]]
    return kept, pruned


def _encapsulation_hits(rows: np.ndarray, lowered: np.ndarray) -> np.ndarray:
    """``hits[r, c]``: row ``c`` of ``rows`` is at least row ``r`` of
    ``lowered`` (a candidate minus the tolerance) at every point.

    Evaluated over column chunks so the temporaries stay bounded when
    the exact (uncapped) scan keeps many rows.
    """
    chunks = [
        np.all(rows[None, c : c + _HIT_COLUMNS] >= lowered[:, None], axis=2)
        for c in range(0, len(rows), _HIT_COLUMNS)
    ]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=1)


def envelope_dominates(
    a: EnvelopeSet,
    b: EnvelopeSet,
    interval: DominanceInterval,
    grid: Grid,
) -> bool:
    """Direct pairwise dominance test (used by tests and diagnostics)."""
    mask = interval.mask(grid)
    if not mask.any():
        return True
    return bool(np.all(a.env[mask] >= b.env[mask] - ENCAPSULATION_TOL))
