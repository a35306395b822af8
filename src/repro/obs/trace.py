"""The :class:`Trace` bundle a traced solve hands back.

``analyze(..., trace=True)`` attaches one of these to the result: the
span tree of the whole pipeline (noise seed, enumeration sweeps,
oracle, certificates, checkpoints), the unified
metrics registry, and — when profiling was on — the sampling profile.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from . import export as _export
from .metrics import MetricsRegistry
from .profile import ProfileReport
from .tracer import NullTracer, Span, Tracer, iter_tree


class Trace:
    """Spans + metrics + optional profile of one solve."""

    def __init__(
        self,
        tracer: Union[Tracer, NullTracer],
        metrics: MetricsRegistry,
        profile: Optional[ProfileReport] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.profile = profile

    @property
    def spans(self) -> List[Span]:
        return self.tracer.spans

    # -- queries -------------------------------------------------------
    def phase_summary(self) -> Dict[str, float]:
        """Cumulative seconds per solve phase (from the registry)."""
        return self.metrics.phase_seconds()

    def duration(self) -> float:
        """Wall-clock covered by the trace (first start to last end)."""
        spans = [s for s in self.spans if s.t1 is not None]
        if not spans:
            return 0.0
        return max(s.t1 for s in spans) - min(s.t0 for s in spans)  # type: ignore[type-var]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def core_counters(self) -> Dict[str, int]:
        """The mirrored ``stats.*`` enumeration counters (bit-identical
        between runs of the same problem).

        The execution gauges (``stats.waves``, ``stats.parallel_tasks``,
        ...) are excluded — they describe how a run executed, not what
        was enumerated, and always read 0."""
        from ..core.engine import _COUNTER_FIELDS

        return {
            name: int(self.metrics.gauges.get(f"stats.{name}", 0))
            for name in _COUNTER_FIELDS
        }

    # -- export --------------------------------------------------------
    def to_chrome(self) -> Dict[str, Any]:
        return _export.chrome_document(
            self.tracer, metrics=self.metrics.to_json()
        )

    def save(self, path: str, fmt: Optional[str] = None) -> None:
        """Write the trace; format from ``fmt`` or the file extension
        (``.jsonl`` → JSON-lines, anything else → Chrome trace_event)."""
        if fmt is None:
            fmt = "jsonl" if path.endswith(".jsonl") else "chrome"
        if fmt == "jsonl":
            _export.write_jsonl(self.tracer, path)
        elif fmt == "chrome":
            _export.write_chrome(
                self.tracer, path, metrics=self.metrics.to_json()
            )
        else:
            raise ValueError(f"unknown trace format {fmt!r}")

    def summary(self, max_depth: int = 3) -> str:
        """Human-readable tree + phase totals (the CLI's default view)."""
        lines: List[str] = []
        for depth, span in iter_tree(self.tracer):  # type: ignore[arg-type]
            if depth > max_depth:
                continue
            attrs = ", ".join(
                f"{k}={v}" for k, v in span.attrs.items() if k != "cat"
            )
            lines.append(
                f"{'  ' * depth}{span.name:<24} {span.duration * 1e3:9.2f} ms"
                + (f"  [{attrs}]" if attrs else "")
            )
        phases = self.phase_summary()
        if phases:
            lines.append("")
            lines.append("phase totals:")
            for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
                lines.append(f"  {name:<12} {seconds * 1e3:9.2f} ms")
        if self.profile is not None:
            lines.append("")
            lines.extend(self.profile.summary_lines())
        return "\n".join(lines)
