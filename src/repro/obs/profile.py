"""Sampling-profiler hooks for the scoring kernel.

A background thread snapshots the main thread's stack every
``interval_s`` (via ``sys._current_frames``) while the engine solves,
tagging each sample with the solve phase that was active when it fired.
This answers "where inside ``score`` does the time go" without
instrumenting the numpy kernel itself, at a bounded, tunable cost
(default 5 ms period ≈ well under 1 % on the paper benchmarks).

The profiler only watches the thread that started it.  Enable with
``TopKConfig(profile=True)`` or ``repro-trace --profile``.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

#: A sampled call site: (filename, function, line of the innermost frame).
Site = Tuple[str, str, int]


class ProfileReport:
    """Aggregated samples: per-phase counts and per-site counts."""

    def __init__(
        self,
        interval_s: float,
        samples: int,
        by_phase: Dict[str, int],
        by_site: Dict[Site, int],
    ) -> None:
        self.interval_s = interval_s
        self.samples = samples
        self.by_phase = by_phase
        self.by_site = by_site

    def top_sites(self, n: int = 10) -> List[Tuple[Site, int]]:
        return Counter(self.by_site).most_common(n)

    def to_json(self) -> Dict[str, Any]:
        return {
            "interval_s": self.interval_s,
            "samples": self.samples,
            "by_phase": dict(self.by_phase),
            "top_sites": [
                {
                    "file": site[0],
                    "function": site[1],
                    "line": site[2],
                    "samples": count,
                }
                for site, count in self.top_sites(25)
            ],
        }

    def summary_lines(self, n: int = 10) -> List[str]:
        lines = [
            f"profiler: {self.samples} samples at {self.interval_s * 1e3:.1f} ms"
        ]
        total = max(1, self.samples)
        for phase, count in sorted(self.by_phase.items(), key=lambda kv: -kv[1]):
            lines.append(f"  phase {phase:<12} {100.0 * count / total:5.1f}%")
        for (fname, func, line), count in self.top_sites(n):
            short = fname.rsplit("/", 1)[-1]
            lines.append(
                f"  {100.0 * count / total:5.1f}%  {short}:{line} {func}"
            )
        return lines


class SamplingProfiler:
    """Start/stop sampling of the owning thread, phase-tagged.

    The engine sets :attr:`phase` from its ``_phase`` context manager;
    samples landing outside any phase are tagged ``"-"``.  ``start`` and
    ``stop`` are idempotent; counts accumulate across start/stop cycles
    (an engine solved for several k keeps one profile).
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self.phase: Optional[str] = None
        self._samples = 0
        self._by_phase: Dict[str, int] = {}
        self._by_site: Dict[Site, int] = {}
        self._target_tid: Optional[int] = None
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._target_tid = threading.get_ident()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            frames = sys._current_frames()
            frame = frames.get(self._target_tid)  # type: ignore[arg-type]
            if frame is None:
                continue
            code = frame.f_code
            site: Site = (code.co_filename, code.co_name, frame.f_lineno)
            phase = self.phase or "-"
            self._samples += 1
            self._by_phase[phase] = self._by_phase.get(phase, 0) + 1
            self._by_site[site] = self._by_site.get(site, 0) + 1

    def report(self) -> ProfileReport:
        return ProfileReport(
            interval_s=self.interval_s,
            samples=self._samples,
            by_phase=dict(self._by_phase),
            by_site=dict(self._by_site),
        )

    # The profiler owns a thread and never crosses a process boundary:
    # a pickled engine gets a fresh, stopped profiler.
    def __reduce__(self):
        return (SamplingProfiler, (self.interval_s,))
