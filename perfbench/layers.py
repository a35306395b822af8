"""The traced run: timing wrappers around public calls and per-layer metrics.

Spans are recorded from the benchmark's own files, with ``repro.obs``'s
:class:`~repro.obs.tracer.Tracer` used as a library: :class:`LayerTrace`
wraps public functions and methods of each layer while it is installed
and restores them on :meth:`LayerTrace.uninstall`.  The untraced timed
runs never install it.  Every span carries the id of the operation it
belongs to (``op``), and a layer's self time is its span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.runtime.checkpoint as checkpoint_mod
import repro.verify as verify_pkg
import repro.verify.certificate as certificate_mod
from repro.core.engine import TopKEngine
from repro.obs.export import write_chrome
from repro.obs.tracer import Span, Tracer
from repro.perf.memo import EnvelopeMemo
from repro.service.protocol import JobSpec

#: Per-layer metrics in the order they are reported, with units.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("circuit.build_s", "s"),
    ("core.engine_init_s", "s"),
    ("core.solve_s", "s"),
    ("core.generate_s", "s"),
    ("core.score_s", "s"),
    ("core.reduce_s", "s"),
    ("core.candidates", "count"),
    ("core.dominated", "count"),
    ("core.kept_ratio", "ratio"),
    ("noise.seed_s", "s"),
    ("noise.oracle_s", "s"),
    ("noise.delay_err_pct", "%"),
    ("verify.emit_s", "s"),
    ("verify.check_s", "s"),
    ("verify.certificate_bytes", "B"),
    ("perf.speedup", "ratio"),
    ("perf.waves", "count"),
    ("perf.parallel_tasks", "count"),
    ("perf.shm_bytes", "B"),
    ("perf.pool_bytes", "B"),
    ("perf.chunk_retries", "count"),
    ("perf.exec_fallbacks", "count"),
    ("perf.worker_peak_rss_mb", "MB"),
    ("perf.cache_hit_rate.pulse", "ratio"),
    ("perf.cache_hit_rate.primary_env", "ratio"),
    ("perf.cache_hit_rate.ho", "ratio"),
    ("perf.cache_hit_rate.interval_mask", "ratio"),
    ("perf.cache_hit_rate.victim_ramp", "ratio"),
    ("runtime.checkpoint_s", "s"),
    ("runtime.checkpoint_bytes", "B"),
    ("service.cold_s", "s"),
    ("service.hit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.hit_rate", "ratio"),
    ("service.store.get_result_s", "s"),
    ("service.store.put_result_s", "s"),
    ("service.store.get_memo_s", "s"),
    ("service.store.put_memo_s", "s"),
    ("service.memo.freeze_s", "s"),
    ("service.memo.thaw_s", "s"),
    ("service.result_bytes", "B"),
    ("service.memo_bytes", "B"),
    ("obs.trace_overhead_pct", "%"),
)

#: Scheduler and transport counters: read from the traced run's 2-core
#: solves, and checked to read 0 in its serial ones.
PARALLEL_ONLY = (
    "perf.waves",
    "perf.parallel_tasks",
    "perf.shm_bytes",
    "perf.pool_bytes",
    "perf.chunk_retries",
    "perf.exec_fallbacks",
)
#: Metrics that do not apply to a workload; reported as 0.
NOT_APPLICABLE: Dict[str, Tuple[str, ...]] = {
    "signoff-serial": tuple(name for name, _ in PER_LAYER if name.startswith("service.")),
    "service-mixed": ("perf.speedup", "perf.worker_peak_rss_mb") + PARALLEL_ONLY,
}
#: Metrics that must read exactly 0 on a workload (checked, not assumed).
MUST_READ_ZERO: Dict[str, Tuple[str, ...]] = {
    "signoff-serial": ("runtime.checkpoint_s", "runtime.checkpoint_bytes"),
    "service-mixed": (),
}

_STORE_METHODS = ("get_result", "put_result", "get_memo", "put_memo")


class LayerTrace:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.tracer = Tracer(worker="bench")
        self.op: Optional[str] = None
        self.checkpoint_bytes = 0
        self._undo: List[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Any:
        return self.tracer.span(name, op=self.op, **attrs)

    @contextmanager
    def operation(self, op_id: str, root: str = "op", **attrs: Any) -> Iterator[None]:
        """A root span; every span opened inside carries ``op_id``."""
        self.op = op_id
        try:
            with self.span(root, **attrs):
                yield
        finally:
            self.op = None

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------
    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        previous = vars(owner).get(attr)
        setattr(owner, attr, value)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, previous))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def install(self) -> None:
        """Wrap the public calls of every layer the workloads reach."""
        self._replace(JobSpec, "build_design",
                      self.timed("circuit.build", JobSpec.build_design))
        self._replace(TopKEngine, "__init__",
                      self.timed("core.engine_init", TopKEngine.__init__))
        self._replace(TopKEngine, "solve", self.timed("core.solve", TopKEngine.solve))
        self._replace(certificate_mod, "emit_certificate",
                      self.timed("verify.emit", certificate_mod.emit_certificate))
        self._replace(verify_pkg, "check_certificate",
                      self.timed("verify.check", verify_pkg.check_certificate))
        save = checkpoint_mod.save_checkpoint

        def save_checkpoint(path: str, payload: Dict[str, Any]) -> None:
            with self.span("runtime.checkpoint"):
                save(path, payload)
            self.checkpoint_bytes += os.path.getsize(path)

        self._replace(checkpoint_mod, "save_checkpoint", save_checkpoint)
        self._replace(EnvelopeMemo, "freeze",
                      self.timed("service.memo.freeze", EnvelopeMemo.freeze))
        thaw = self.timed("service.memo.thaw", EnvelopeMemo.thaw)
        self._replace(EnvelopeMemo, "thaw", classmethod(lambda cls, snap: thaw(snap)))

    def install_store(self, store: Any) -> None:
        """Wrap the methods of one service's ``ResultStore`` instance."""
        for name in _STORE_METHODS:
            self._replace(store, name, self.timed(f"service.store.{name}", getattr(store, name)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------
    def roots(self, name: str) -> List[Span]:
        return [s for s in self.tracer.spans if s.parent_id is None and s.name == name]

    def self_times(self, root_name: str) -> Dict[str, float]:
        """Summed self time per span name over the trees of ``root_name``."""
        spans = self.tracer.spans
        children: Dict[int, List[Span]] = {}
        for s in spans:
            if s.parent_id is not None:
                children.setdefault(s.parent_id, []).append(s)
        totals: Dict[str, float] = {}
        stack = list(self.roots(root_name))
        while stack:
            span = stack.pop()
            kids = children.get(span.span_id, [])
            stack.extend(kids)
            covered = _union_length([(k.t0, k.t1 or k.t0) for k in kids])
            totals[span.name] = totals.get(span.name, 0.0) + max(
                0.0, span.duration - covered
            )
        return totals

    def save(self, path: str, metrics: Dict[str, Any]) -> None:
        write_chrome(self.tracer, path, metrics=metrics)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def solve_metrics(stats_list: List[Any]) -> Dict[str, float]:
    """Per-layer metrics read from the ``SolveStats`` of solved operations."""
    def phase(name: str) -> float:
        return sum(s.phase_s.get(name, 0.0) for s in stats_list)

    def total(name: str) -> int:
        return sum(getattr(s, name) for s in stats_list)

    candidates = total("candidates")
    dominated = total("dominated")
    out: Dict[str, float] = {
        "core.generate_s": phase("generate"),
        "core.score_s": phase("score"),
        "core.reduce_s": phase("reduce"),
        "core.candidates": candidates,
        "core.dominated": dominated,
        "core.kept_ratio": 1.0 - dominated / candidates if candidates else 0.0,
        "noise.seed_s": phase("seed_noise"),
        "noise.oracle_s": phase("oracle"),
        "perf.waves": total("waves"),
        "perf.parallel_tasks": total("parallel_tasks"),
        "perf.shm_bytes": total("shm_payload_bytes"),
        "perf.pool_bytes": total("pool_payload_bytes"),
        "perf.chunk_retries": total("chunk_retries"),
        "perf.exec_fallbacks": total("exec_fallbacks"),
    }
    for cache in ("pulse", "primary_env", "ho", "interval_mask", "victim_ramp"):
        hits = sum(s.cache_hits.get(cache, 0) for s in stats_list)
        looked = hits + sum(s.cache_misses.get(cache, 0) for s in stats_list)
        out[f"perf.cache_hit_rate.{cache}"] = hits / looked if looked else 0.0
    return out


def span_metrics(self_s: Dict[str, float], seed_noise_s: float) -> Dict[str, float]:
    """Per-layer metrics read from the self times of the wrapped calls."""
    out = {
        # STA and context build; the seed fixpoint is reported as noise.
        "core.engine_init_s": self_s.get("core.engine_init", 0.0) - seed_noise_s,
        "core.solve_s": self_s.get("core.solve", 0.0),
        "verify.emit_s": self_s.get("verify.emit", 0.0),
        "verify.check_s": self_s.get("verify.check", 0.0),
        "runtime.checkpoint_s": self_s.get("runtime.checkpoint", 0.0),
        "service.memo.freeze_s": self_s.get("service.memo.freeze", 0.0),
        "service.memo.thaw_s": self_s.get("service.memo.thaw", 0.0),
    }
    for name in _STORE_METHODS:
        out[f"service.store.{name}_s"] = self_s.get(f"service.store.{name}", 0.0)
    return out


def dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if name.endswith(".json")
    )
