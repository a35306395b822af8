"""Unified metrics registry: counters, gauges, histograms.

One registry per engine absorbs what used to be ad-hoc accounting
scattered over ``SolveStats``:

* ``phase_s.<phase>`` counters are the authoritative per-phase
  wall-clock totals — ``SolveStats.phase_s`` is now a *snapshot* of
  these counters, refreshed when a solution is produced;
* ``stats.<field>`` gauges mirror the enumeration counters (see
  :mod:`repro.core.engine`);
* ``cache.<name>.hits`` / ``cache.<name>.misses`` gauges mirror the
  memoization layer's counters;
* histograms record shape distributions (candidates per reduction, rows
  per scoring-kernel call, fixpoint iterations).

The full metric-name inventory is documented in
``docs/observability.md``.  Registries serialize to plain JSON and merge
associatively.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional


class Histogram:
    """Streaming summary: count, total, min, max (mergeable)."""

    __slots__ = ("count", "total", "vmin", "vmax")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for bound in (other.vmin, other.vmax):
            if bound is None:
                continue
            if self.vmin is None or bound < self.vmin:
                self.vmin = bound
            if self.vmax is None or bound > self.vmax:
                self.vmax = bound

    def to_json(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Histogram":
        hist = cls()
        hist.count = int(data.get("count", 0))
        hist.total = float(data.get("total", 0.0))
        hist.vmin = None if data.get("min") is None else float(data["min"])
        hist.vmax = None if data.get("max") is None else float(data["max"])
        return hist


class MetricsRegistry:
    """Flat, name-keyed store of counters, gauges, and histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------
    def counter_add(self, name: str, value: float = 1.0) -> None:
        """Add to a monotonically accumulating counter."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge_set(self, name: str, value: float) -> None:
        """Set a point-in-time value (latest write wins on merge)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- views ---------------------------------------------------------
    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def phase_seconds(self) -> Dict[str, float]:
        """The ``phase_s.*`` counters, keyed by bare phase name."""
        prefix = "phase_s."
        return {
            name[len(prefix):]: value
            for name, value in self.counters.items()
            if name.startswith(prefix)
        }

    def reset_phases(self, phase_s: Mapping[str, float]) -> None:
        """Replace the ``phase_s.*`` counters (checkpoint restore)."""
        for name in [n for n in self.counters if n.startswith("phase_s.")]:
            del self.counters[name]
        for name, seconds in phase_s.items():
            self.counters[f"phase_s.{name}"] = float(seconds)

    # -- serialization / merge ----------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_json() for name, hist in self.histograms.items()
            },
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(data)
        return registry

    def merge(self, delta: Mapping[str, Any]) -> None:
        """Fold a serialized registry in: counters add, gauges overwrite,
        histograms merge.  Associative, so deltas can land in any order
        without changing totals."""
        for name, value in delta.get("counters", {}).items():
            self.counter_add(name, float(value))
        for name, value in delta.get("gauges", {}).items():
            self.gauge_set(name, float(value))
        for name, payload in delta.get("histograms", {}).items():
            incoming = Histogram.from_json(payload)
            existing = self.histograms.get(name)
            if existing is None:
                self.histograms[name] = incoming
            else:
                existing.merge(incoming)

    def summary_lines(self) -> "list[str]":
        """Sorted human-readable dump (the ``repro-trace`` summary)."""
        lines = []
        for name in sorted(self.counters):
            lines.append(f"counter   {name} = {self.counters[name]:.6g}")
        for name in sorted(self.gauges):
            lines.append(f"gauge     {name} = {self.gauges[name]:.6g}")
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            lines.append(
                f"histogram {name}: count={hist.count} mean={hist.mean:.4g} "
                f"min={hist.vmin} max={hist.vmax}"
            )
        return lines
