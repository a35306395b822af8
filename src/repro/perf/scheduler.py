"""Parent-side supervised wave scheduler for ``parallelism > 1`` solves.

One cardinality pass is partitioned into topological-level waves
(:mod:`repro.perf.waves`); each wave's victims are independent, so the
scheduler splits them into at most ``parallelism`` contiguous chunks
and ships each chunk — with the frontier state its sweeps read — to a
process pool whose workers hold long-lived engine replicas
(:mod:`repro.perf.worker`).  Results are merged back in submission
order, which makes the parent's irredundant lists, stats counters, and
prune-log order bit-identical to the serial sweep's.

Failure posture (see ``docs/robustness.md``):

* A worker raising a structured :class:`~repro.runtime.errors.
  ReproError` (waveform fault, budget error, ...) propagates to the
  caller exactly as in the serial path — solver-level failures are
  deterministic and must not be retried.
* A *pool-level* chunk failure (killed worker, hung chunk past
  ``chunk_timeout_s``, corrupted payload, broken pool) is retried
  per-chunk under a seeded, deadline-aware
  :class:`~repro.runtime.supervisor.RetryPolicy`; the final attempt
  always runs in-process on the parent's own engine, so a chunk can
  only end in an exact result or a structured error.  Completed chunks
  of the same wave are never discarded.
* ``BrokenProcessPool`` triggers a supervised pool respawn with backoff
  (bounded by :data:`MAX_POOL_RESPAWNS`); only when the respawn budget
  is spent does the scheduler permanently fall back to serial sweeps —
  with a ``RuntimeWarning`` carrying the original exception, an
  ``exec.fallbacks`` metric, and a ``stats.exec_fallbacks`` count, so
  the downgrade is observable instead of silent.
* A chunk whose pool attempts are repeatedly exhausted is quarantined:
  later passes run it in-process directly, with the reason recorded.

Every recovery action leaves an :class:`~repro.runtime.supervisor.
ExecIncident` on the engine (surfaced through ``SolveStats``, the
degradation report, and ``TopKResult.exec_incidents``), and worker
liveness is tracked by a :class:`~repro.runtime.health.HealthTracker`
fed by per-chunk heartbeats.  Budget enforcement stays in the parent
and runs once per wave.
"""

from __future__ import annotations

import pickle
import time
import warnings
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER
from ..runtime import faultinject
from ..runtime.budget import RuntimeMonitor
from ..runtime.errors import ReproError
from ..runtime.health import ChunkClock, HealthTracker
from ..runtime.supervisor import ExecIncident, RetryPolicy, Supervision
from .shm import SegmentArena, payload_array_bytes, share_wave_payload
from .snapshot import unpack_sets
from .waves import Wave, build_waves
from .worker import chunk_payload_from_wave, init_worker, make_wave_payload, run_chunk

#: Pool rebuilds granted per solve before the scheduler gives up on
#: process-level parallelism and falls back to serial sweeps for good.
MAX_POOL_RESPAWNS = 3

#: Exceptions a ``pool.submit`` call can raise when the pool itself is
#: unusable (broken pool, fork refusal, fd exhaustion).  Note
#: ``BrokenProcessPool`` *is* a ``RuntimeError`` subclass.
_SUBMIT_FAILURES = (BrokenProcessPool, RuntimeError, OSError)

#: Worker-side failures of one chunk attempt that are plausibly
#: transient (corrupted payload crossing the boundary, resource
#: pressure, infrastructure hiccups).  Deliberately narrow: a
#: ``ReproError`` or an arbitrary exception from a genuine code bug is
#: *not* in this tuple and propagates to the caller unchanged.
_CHUNK_FAILURES = (
    pickle.PickleError,
    EOFError,
    OSError,
    MemoryError,
    RuntimeError,
)

#: Both timeout flavors (``concurrent.futures.TimeoutError`` is only an
#: alias of the builtin from Python 3.11 on).
_TIMEOUTS = (FuturesTimeoutError, TimeoutError)


def split_chunks(items: Sequence, parts: int) -> List[List]:
    """Split into at most ``parts`` contiguous, near-equal chunks."""
    parts = max(1, min(parts, len(items)))
    size, rem = divmod(len(items), parts)
    chunks: List[List] = []
    start = 0
    for p in range(parts):
        n = size + (1 if p < rem else 0)
        if n:
            chunks.append(list(items[start : start + n]))
            start += n
    return chunks


class _ChunkTask:
    """One chunk's in-flight state during a wave."""

    __slots__ = ("nets", "payload", "future", "submitted", "site")

    def __init__(self, nets: List[str], payload: Dict[str, Any], site: str) -> None:
        self.nets = nets
        self.payload = payload
        self.future: Optional[Any] = None
        self.submitted = 0.0
        self.site = site

    @property
    def key(self) -> Tuple[str, ...]:
        """Stable identity of the chunk across cardinality passes."""
        return tuple(self.nets)


class WaveScheduler:
    """Drives one engine's cardinality passes over a supervised pool."""

    def __init__(self, engine: Any) -> None:
        from ..core.engine import SINK

        self.engine = engine
        self.waves: List[Wave] = build_waves(engine.graph, sink=SINK)
        cfg = engine.config
        #: Per-chunk retry policy: one initial pool attempt,
        #: ``max_chunk_retries`` pool re-submissions, and one final
        #: in-process grant.  Seeded so backoff schedules — and
        #: therefore the chaos suite — are deterministic.
        self.retry_policy = RetryPolicy(
            max_attempts=cfg.max_chunk_retries + 2, seed=0
        )
        self.health = HealthTracker()
        self.clock = ChunkClock(
            chunk_timeout_s=cfg.chunk_timeout_s,
            deadline_remaining=engine.monitor.remaining_s,
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._broken = False
        self._respawns = 0
        self._timeouts_seen = False
        #: The current wave's shared-memory arena (None between waves or
        #: when shm is unavailable).  Owned here so ``close()`` can
        #: release it even when a fallback abandons the wave mid-flight.
        self._arena: Optional[SegmentArena] = None
        #: Chunks banned from the pool after exhausting their retry
        #: budget, keyed by net tuple -> recorded reason.
        self._quarantined: Dict[Tuple[str, ...], str] = {}
        self._respawn_backoff: Supervision = RetryPolicy(
            max_attempts=MAX_POOL_RESPAWNS + 1, seed=1
        ).supervise(remaining_s=engine.monitor.remaining_s)

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _engine_snapshot(self) -> bytes:
        """Pickle a worker-ready replica of the engine.

        The replica keeps the design, contexts, and warm memo, but
        drops everything that must stay parent-owned: the budget (and
        its monitor), accumulated stats, the prune log, and any
        degradation or incident state.  Workers therefore never tick
        budgets or double-count — they only report deltas.

        The memo crosses into the replica through its freeze boundary
        (:meth:`EnvelopeMemo.freeze <repro.perf.memo.EnvelopeMemo.
        freeze>`): the replica gets an independently-owned thaw of a
        consistent snapshot, so a service thread freezing the same memo
        concurrently can never observe (or publish) a torn state.
        """
        from ..core.engine import PruneLog, SolveStats, TopKEngine
        from .memo import EnvelopeMemo

        eng = self.engine
        clone = TopKEngine.__new__(TopKEngine)
        clone.__dict__.update(eng.__getstate__())
        clone.memo = EnvelopeMemo.thaw(eng.memo.freeze())
        clone.config = replace(eng.config, budget=None)
        clone.monitor = RuntimeMonitor(None)
        clone.stats = SolveStats()
        clone.prune_log = PruneLog()
        clone.degradation = None
        clone.exec_incidents = []
        # Workers start from clean observability state: each chunk
        # builds its own tracer/registry and ships the deltas back.
        clone.tracer = NULL_TRACER
        clone.metrics = MetricsRegistry()
        clone.profiler = None
        return pickle.dumps(clone)

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._pool is None and not self._broken:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.engine.config.parallelism,
                    initializer=init_worker,
                    initargs=(self._engine_snapshot(),),
                )
            except (OSError, ValueError, pickle.PicklingError) as exc:
                self._fall_back(exc, where="pool-create")
        return self._pool

    def _fall_back(self, exc: BaseException, where: str) -> None:
        """Permanent downgrade to serial sweeps — loudly.

        The original exception is preserved in the warning, the metrics
        registry, and an :class:`ExecIncident`, so a benchmark or a
        service operator can always tell supervised-parallel from
        fell-back-to-serial.
        """
        eng = self.engine
        warnings.warn(
            f"wave scheduler fell back to serial sweeps ({where}): {exc!r}",
            RuntimeWarning,
            stacklevel=4,
        )
        eng.stats.exec_fallbacks += 1
        eng.metrics.counter_add("exec.fallbacks")
        eng.metrics.counter_add("exec.warnings")
        eng.exec_incidents.append(
            ExecIncident(
                kind="serial_fallback",
                site=where,
                reason=repr(exc),
                resolution="serial-fallback",
            )
        )
        self._broken = True
        self.close()

    def _shutdown_pool(self, wait: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None

    def _pool_break(self, exc: BaseException, site: str) -> None:
        """The pool is dead: respawn it with backoff, or give up.

        Outstanding futures of the current wave surface as
        ``BrokenProcessPool``/``CancelledError`` when awaited and are
        re-driven by their own chunk supervision against the fresh pool.
        """
        eng = self.engine
        self._shutdown_pool(wait=False)
        if self._respawns >= MAX_POOL_RESPAWNS:
            self._fall_back(exc, where=f"respawn-budget@{site}")
            return
        self._respawns += 1
        eng.stats.pool_respawns += 1
        eng.metrics.counter_add("exec.pool_respawns")
        eng.exec_incidents.append(
            ExecIncident(
                kind="pool_respawn",
                site=site,
                reason=repr(exc),
                resolution="pool-retry",
            )
        )
        with eng.tracer.span("pool.respawn", site=site, n=self._respawns):
            self._respawn_backoff.sleep_backoff(self._respawns)
            self._ensure_pool()

    def _release_arena(self, arena: Optional[SegmentArena], site: str) -> None:
        """Unlink a wave arena; a failed unlink is an incident, not a pass.

        ``unlink`` is idempotent, so releasing through both the wave's
        ``finally`` and ``close()`` is safe.  The atexit registry and the
        stdlib resource tracker remain as backstops, but a leak that
        reaches them is still recorded here as a ``segment_leak``.
        """
        if arena is None:
            return
        if self._arena is arena:
            self._arena = None
        try:
            arena.unlink()
        except OSError as exc:
            eng = self.engine
            eng.metrics.counter_add("exec.segment_leaks")
            eng.exec_incidents.append(
                ExecIncident(
                    kind="segment_leak",
                    site=site,
                    reason=repr(exc),
                )
            )

    def close(self) -> None:
        # A pool that ever hosted a hung chunk may never finish a
        # blocking join; release it without waiting in that case.
        self._shutdown_pool(wait=not self._timeouts_seen)
        self._release_arena(self._arena, site="close")

    # ------------------------------------------------------------------
    # pass execution
    # ------------------------------------------------------------------
    def run_pass(self, i: int) -> None:
        """Sweep every victim at cardinality ``i``, wave by wave."""
        eng = self.engine
        for wave in self.waves:
            nets = [n for n in wave.nets if n in eng.contexts]
            if not nets:
                continue
            # Budget checkpoint once per wave (the parallel analogue of
            # the serial per-victim tick; see docs/performance.md).
            eng._tick(nets[0], i, phase="wave")
            eng.stats.waves += 1
            with eng.tracer.span(
                "wave", level=wave.level, nets=len(nets), i=i
            ):
                eng.metrics.observe("wave.nets", len(nets))
                if len(nets) < 2 or self._broken or self._ensure_pool() is None:
                    self._sweep_serial(nets, i)
                    continue
                self._run_wave(nets, i)

    def _sweep_serial(self, nets: Sequence[str], i: int) -> None:
        eng = self.engine
        for net in nets:
            eng._sweep(eng.contexts[net], i)

    def _run_wave(self, nets: List[str], i: int) -> None:
        """Submit all chunks, then settle each in submission order.

        Settling a chunk may involve pool retries, a pool respawn, or an
        in-process run; because chunks are settled strictly in
        submission order and each settles completely before the next,
        every victim, stat delta, and prune record lands in the same
        order the serial sweep would produce.
        """
        eng = self.engine
        chunks = split_chunks(nets, eng.config.parallelism)
        # The wave's dependency state is packed exactly once; chunk
        # payloads are by-reference selections, and with a live arena
        # the arrays leave the pickle stream entirely (descriptors
        # instead of bytes).  The arena outlives every retry and pool
        # respawn of this wave — resubmitted payloads reference it — and
        # is unlinked when the last chunk settles.
        wave_payload = make_wave_payload(eng, nets, i)
        arena = share_wave_payload(wave_payload)
        if arena is not None:
            self._arena = arena
            eng.stats.shm_payload_bytes += arena.used
            eng.metrics.counter_add("exec.shm_bytes", arena.used)
        tasks: List[_ChunkTask] = []
        for chunk in chunks:
            payload = chunk_payload_from_wave(wave_payload, chunk)
            tasks.append(
                _ChunkTask(chunk, payload, site=f"{chunk[0]}@k{i}")
            )
        try:
            for task in tasks:
                if not self._broken and task.key not in self._quarantined:
                    self._try_submit(task)
            for task in tasks:
                self._settle(task, i)
        finally:
            self._release_arena(arena, site=f"{nets[0]}@k{i}")

    def _try_submit(self, task: _ChunkTask) -> bool:
        """One submission attempt; False when the pool cannot take it."""
        if self.health.pool_suspect() and not self._broken:
            # The pool's consecutive-failure streak says stop feeding it
            # retry budget: abandon process parallelism proactively.
            self._fall_back(
                RuntimeError(
                    f"pool suspect after {self.health.pool_failures} "
                    f"chunk failure(s)"
                ),
                where=f"health@{task.site}",
            )
            return False
        pool = self._ensure_pool()
        if pool is None:
            return False
        injector = faultinject.active()
        if injector is not None and injector.fires("pool_break", task.site):
            self._pool_break(
                BrokenProcessPool(f"injected pool break at {task.site}"),
                task.site,
            )
            return False
        try:
            task.submitted = time.perf_counter()
            task.future = pool.submit(run_chunk, task.payload)
            # Plain ndarray bytes this submission pushed through the
            # pool's pipe (0 when the wave's arrays live in the arena).
            pickled = payload_array_bytes(task.payload)
            if pickled:
                eng = self.engine
                eng.stats.pool_payload_bytes += pickled
                eng.metrics.counter_add("exec.pool_bytes", pickled)
            return True
        except _SUBMIT_FAILURES as exc:
            task.future = None
            self._pool_break(exc, task.site)
            return False

    def _settle(self, task: _ChunkTask, i: int) -> None:
        """Drive one chunk to completion under the retry policy.

        Each attempt is either a pool round-trip or — on the final
        grant, on a spent deadline, on a broken/quarantined pool — an
        in-process run of the same sweeps, which is authoritative by
        construction.  Structured :class:`ReproError`\\ s from a worker
        are re-raised unchanged: they are solver failures, not execution
        failures, and the serial path would raise them too.
        """
        eng = self.engine
        sup = self.retry_policy.supervise(remaining_s=eng.monitor.remaining_s)
        incident: Optional[ExecIncident] = None
        while True:
            attempt = sup.next_attempt()
            if (
                attempt is None
                or attempt.final
                or self._broken
                or task.key in self._quarantined
            ):
                self._run_in_process(task, i, sup, incident)
                return
            if task.future is None:
                # Not submitted yet (retry, respawned pool, initial
                # submit refused): try again on the current pool.
                if attempt.number > 1:
                    eng.stats.chunk_retries += 1
                    eng.metrics.counter_add("exec.chunk_retries")
                if not self._try_submit(task):
                    incident = incident or ExecIncident(
                        "pool_break",
                        site=task.site,
                        reason="pool unavailable at submit",
                    )
                    sup.record_failure(
                        RuntimeError("pool unavailable"), detail=task.site
                    )
                    continue
            try:
                result = task.future.result(timeout=self.clock.wait_s())
            except ReproError:
                raise  # structured solver error, exactly as in serial
            except _TIMEOUTS as exc:
                self._timeouts_seen = True
                eng.stats.chunk_timeouts += 1
                eng.metrics.counter_add("exec.chunk_timeouts")
                self.health.note_failure()
                incident = incident or ExecIncident(
                    "chunk_timeout", site=task.site, reason=repr(exc)
                )
                sup.record_failure(exc, detail=f"chunk timeout at {task.site}")
                task.future = None
                continue
            except (BrokenProcessPool, CancelledError) as exc:
                self.health.note_failure()
                incident = incident or ExecIncident(
                    "pool_break", site=task.site, reason=repr(exc)
                )
                sup.record_failure(exc)
                if isinstance(exc, BrokenProcessPool):
                    self._pool_break(exc, task.site)
                task.future = None
                continue
            except _CHUNK_FAILURES as exc:
                self.health.note_failure()
                incident = incident or ExecIncident(
                    "chunk_failure", site=task.site, reason=repr(exc)
                )
                sup.record_failure(exc)
                task.future = None
                continue
            sup.record_success()
            self._note_heartbeat(result)
            self._merge(result, i, task.submitted)
            eng.stats.parallel_tasks += 1
            if incident is not None:
                incident.resolution = "pool-retry"
                incident.attempts = list(sup.attempts)
                eng.exec_incidents.append(incident)
            return

    def _run_in_process(
        self,
        task: _ChunkTask,
        i: int,
        sup: Supervision,
        incident: Optional[ExecIncident],
    ) -> None:
        """Authoritative fallback: run the chunk's sweeps in the parent.

        Reached on the retry policy's final grant, on a spent deadline,
        on a permanently broken pool, or for a quarantined chunk.  The
        parent's serial ``_sweep`` is the reference implementation the
        pool path is proven bit-identical to, so salvaging a chunk here
        never changes the solution.
        """
        eng = self.engine
        failures = [a for a in sup.attempts if a.error is not None]
        pool_attempts_spent = len(failures) >= max(
            1, self.retry_policy.max_attempts - 1
        )
        if failures:
            eng.stats.exec_fallbacks += 1
            eng.metrics.counter_add("exec.fallbacks")
            eng.metrics.counter_add("exec.warnings")
            warnings.warn(
                f"chunk {task.site} recovered in-process after "
                f"{len(failures)} failed pool attempt(s): "
                f"{failures[-1].error}: {failures[-1].detail}",
                RuntimeWarning,
                stacklevel=5,
            )
        if (
            pool_attempts_spent
            and self.retry_policy.max_attempts > 1
            and not self._broken
            and task.key not in self._quarantined
        ):
            reason = (
                f"pool retry budget exhausted ({len(failures)} failure(s), "
                f"last: {failures[-1].error}: {failures[-1].detail})"
            )
            self._quarantined[task.key] = reason
            eng.stats.quarantined_chunks += 1
            eng.metrics.counter_add("exec.quarantines")
            eng.exec_incidents.append(
                ExecIncident(
                    kind="quarantine",
                    site=task.site,
                    reason=reason,
                    resolution="in-process",
                    attempts=list(sup.attempts),
                )
            )
        with eng.tracer.span(
            "chunk.inprocess", site=task.site, nets=len(task.nets), i=i
        ):
            self._sweep_serial(task.nets, i)
        if incident is not None:
            incident.resolution = "in-process"
            incident.attempts = list(sup.attempts)
            eng.exec_incidents.append(incident)

    def _note_heartbeat(self, result: Dict[str, Any]) -> None:
        self.health.note_success(
            result.get("worker", "?"),
            heartbeat=result.get("heartbeat"),
            busy_s=result.get("elapsed_s", 0.0),
        )

    def _merge(self, result: Dict[str, Any], i: int, submitted: float) -> None:
        eng = self.engine
        for net, out in result["results"].items():
            ctx = eng.contexts[net]
            ctx.ilists[i] = unpack_sets(out["ilist"])
            if "atoms1" in out:
                ctx.atoms1 = list(ctx.primaries) + unpack_sets(out["atoms1"])
        for name, delta in result["stats"].items():
            setattr(eng.stats, name, getattr(eng.stats, name) + delta)
        # The worker's metrics delta (phase seconds, histograms) folds
        # into the parent registry — phase_s totals therefore cover the
        # workers' compute, exactly as the old per-chunk accounting did.
        eng.metrics.merge(result["metrics"])
        if result.get("spans"):
            # Re-base the worker's epoch-relative spans onto the parent
            # clock, anchored at the chunk's submission instant, nested
            # under one "chunk" span inside the current wave span.
            received = time.perf_counter()
            with eng.tracer.span(
                "chunk",
                worker=result.get("worker", "?"),
                nets=len(result["results"]),
                i=i,
            ) as chunk_span:
                eng.tracer.adopt(
                    result["spans"], offset=submitted, parent=chunk_span
                )
            # The chunk's true interval is submission -> result pickup.
            chunk_span.t0 = submitted
            chunk_span.t1 = received
        for name, count in result["cache_hits"].items():
            eng._worker_cache_hits[name] = (
                eng._worker_cache_hits.get(name, 0) + count
            )
        for name, count in result["cache_misses"].items():
            eng._worker_cache_misses[name] = (
                eng._worker_cache_misses.get(name, 0) + count
            )
        if result["prunes"]:
            eng.prune_log.extend(result["prunes"])
        eng.monitor.note_frontier(result["frontier_bytes"])
