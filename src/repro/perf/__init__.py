"""Performance layer: wave scheduling, memoization, batching, benchmarks.

This subpackage holds everything that makes the solver fast without
changing *what* it computes:

* :mod:`repro.perf.memo` — keyed caches with hit/miss accounting: the
  per-solver :class:`~repro.perf.memo.EnvelopeMemo` (pulses and sampled
  primary envelopes) and the process-wide
  caches behind :func:`repro.core.dominance.batch_delay_noise` (victim
  ramps) and :meth:`repro.core.dominance.DominanceInterval.mask`;
* :mod:`repro.perf.waves` — topological-level partition of the victims:
  victims in one wave have no fanin dependency on each other, so one
  cardinality sweep over a wave can run its victims concurrently;
* :mod:`repro.perf.batch` — the row-wise delay-noise kernel that scores
  candidates of *several* victims in one vectorized call;
* :mod:`repro.perf.scheduler` / :mod:`repro.perf.worker` — the process
  pool that executes waves in parallel (``TopKConfig.parallelism > 1``),
  bit-exact with the serial path;
* :mod:`repro.perf.bench` — the ``repro-bench`` CLI writing
  ``BENCH_topk.json`` and the CI regression gate over it.

See ``docs/performance.md`` for the design and determinism guarantees.
"""

from .batch import delay_noise_rows
from .memo import EnvelopeMemo, KeyedCache, global_cache, global_cache_stats
from .waves import Wave, build_waves

__all__ = [
    "EnvelopeMemo",
    "KeyedCache",
    "Wave",
    "build_waves",
    "delay_noise_rows",
    "global_cache",
    "global_cache_stats",
]
