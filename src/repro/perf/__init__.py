"""Performance layer: memoization, batching, benchmarks.

This subpackage holds everything that makes the solver fast without
changing *what* it computes:

* :mod:`repro.perf.memo` — keyed caches with hit/miss accounting: the
  per-solver :class:`~repro.perf.memo.EnvelopeMemo` (pulses and sampled
  primary envelopes) and the process-wide
  caches behind :func:`repro.core.dominance.batch_delay_noise` (victim
  ramps) and :meth:`repro.core.dominance.DominanceInterval.mask`;
* :mod:`repro.perf.batch` — the row-wise delay-noise kernel behind
  :func:`repro.core.dominance.batch_delay_noise`;
* :mod:`repro.perf.bench` — the ``repro-bench`` CLI writing
  ``BENCH_topk.json`` and the CI regression gate over it.

The engine is serial: ``docs/performance.md`` records why.
"""

from .batch import delay_noise_rows
from .memo import EnvelopeMemo, KeyedCache, global_cache, global_cache_stats

__all__ = [
    "EnvelopeMemo",
    "KeyedCache",
    "delay_noise_rows",
    "global_cache",
    "global_cache_stats",
]
