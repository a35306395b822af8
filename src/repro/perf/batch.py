"""Row-wise delay-noise kernel: many rows, one vectorized call.

:func:`repro.core.dominance.batch_delay_noise` scores all candidates of
*one* victim through this kernel.  Each row carries its own reference
ramp, time base, step, and t50 (or shares one), so rows from different
victims could stack into one matrix as well.

Every operation is element- or row-local, so the result of a row is
bit-identical whether it is scored alone or stacked with other rows.
"""

from __future__ import annotations

import numpy as np


def delay_noise_rows(
    t50s: np.ndarray,
    ramps: np.ndarray,
    env_matrix: np.ndarray,
    times: np.ndarray,
    dts: np.ndarray,
) -> np.ndarray:
    """Delay noise of ``m`` combined envelopes with per-row references.

    Parameters
    ----------
    t50s:
        Per-row noiseless victim t50, shape ``(m,)`` (or scalar).
    ramps:
        Per-row sampled victim reference ramp, shape ``(m, n)`` (a
        single shared ramp may be passed as ``ramp[None, :]``).
    env_matrix:
        ``(m, n)`` stack of combined envelopes.
    times:
        Per-row grid times ``(m, n)``, or a single shared ``(n,)`` base.
    dts:
        Per-row grid step, shape ``(m,)`` (or scalar).

    Returns
    -------
    numpy.ndarray
        ``(m,)`` delay-noise values (ns, >= 0), clamped to each row's
        grid end — the same contract as
        :func:`repro.core.dominance.batch_delay_noise`.
    """
    if env_matrix.ndim != 2:
        raise ValueError(f"env_matrix must be 2-D, got shape {env_matrix.shape}")
    m, n = env_matrix.shape
    noisy = ramps - env_matrix
    below = noisy < 0.5
    # Rising crossing in segment j: below[j] and not below[j+1].
    cross = below[:, :-1] & ~below[:, 1:]
    any_cross = cross.any(axis=1)
    # Index of the LAST crossing segment per row.
    last_idx = n - 2 - np.argmax(cross[:, ::-1], axis=1)
    rows = np.arange(m)
    v0 = noisy[rows, last_idx]
    v1 = noisy[rows, last_idx + 1]
    denom = np.where(np.abs(v1 - v0) < 1e-15, 1.0, v1 - v0)
    frac = np.clip((0.5 - v0) / denom, 0.0, 1.0)
    if times.ndim == 1:
        t_at = times[last_idx]
        t_end = times[-1]
    else:
        t_at = times[rows, last_idx]
        t_end = times[:, -1]
    t_cross = t_at + frac * dts
    dn = np.maximum(0.0, t_cross - t50s)
    # Rows with no crossing: either the waveform stayed >= 0.5 (no
    # observable slowdown) or stayed < 0.5 (clamp to grid horizon).
    ends_high = noisy[:, -1] >= 0.5
    dn = np.where(any_cross, dn, np.where(ends_high, 0.0, t_end - t50s))
    return np.maximum(dn, 0.0)

