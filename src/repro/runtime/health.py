"""The sanctioned monotonic clock for service bookkeeping.

The RPR8xx code tier forbids clock reads reachable from
``TopKEngine.solve`` except through allow-listed modules (this one).
Service-side bookkeeping (job queue wait, solve wall-clock, client
timeouts) routes its timing through :func:`monotonic_s` rather than
calling ``time.perf_counter`` at the call site.  See
``docs/determinism.md``.
"""

from __future__ import annotations

import time


def monotonic_s() -> float:
    """Sanctioned monotonic clock read for service bookkeeping."""
    return time.perf_counter()
