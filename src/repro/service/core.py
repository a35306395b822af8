"""The asyncio analysis service: queue, dispatch, store, provenance.

One :class:`AnalysisService` owns:

* a **priority FIFO queue** — jobs wait as ``(priority, seq)`` heap
  entries, so lower priority numbers run first and ties run in
  submission order;
* a **bounded worker-slot semaphore** — at most ``max_workers`` solves
  run concurrently, each on a thread of the service's executor (the
  solve itself is serial);
* the **persistent store** (:class:`~repro.service.store.ResultStore`)
  — results, certificates, memo snapshots, and resumable shards, keyed
  by content address;
* **single-flight deduplication** — when several queued jobs ask the
  byte-identical question, exactly one (the leader) solves; the others
  await it and then replay the published result from the store, which
  is what turns N identical jobs into 1 solve + N-1 store hits;
* **observability** — every job records a span tree on its own tracer
  (``job`` → ``build-design`` / ``store.get`` / ``solve`` /
  ``store.put``; ``build-design`` only on a job that builds its design,
  see :meth:`AnalysisService._build_design`), merged across jobs into
  one Chrome trace document, and the registry carries the
  ``service.*`` metrics (queue depth, jobs in flight, store hit rate);
* **bounded retention** — queued and running jobs are always kept, but
  only the :data:`MAX_FINISHED_JOBS` most recently finished ones are:
  past that, the oldest finished job (its record, result and tracer) is
  forgotten and its id answers :class:`NotFoundError`.

Cancellation is cooperative end to end: cancelling a queued job removes
it before it starts; cancelling a running job raises the budget's
cancel flag, the engine halts at its next cancellation checkpoint, and
the job's shard checkpoint (written at every completed cardinality
boundary) stays in the store — a resubmitted identical job resumes from
it instead of restarting (bit-exactly, see ``runtime/checkpoint.py``).
"""

from __future__ import annotations

import asyncio
import heapq
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, cast

from ..api import analyze
from ..circuit.design import Design
from ..core.report import TopKResult
from ..obs.export import combine_chrome
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from ..perf.memo import EnvelopeMemo
from ..runtime.errors import BudgetExceededError, CheckpointError, ReproError
from ..runtime.health import monotonic_s
from ..runtime.supervisor import ExecIncident
from .protocol import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobSpec,
    JobView,
    NotFoundError,
    ServiceError,
    job_id_for,
)
from .store import ResultStore, StoreCorruptError

#: Default bound on concurrently running solves.
DEFAULT_MAX_WORKERS = 2

#: Finished jobs the service remembers; past this, the oldest finished
#: one is forgotten.  Above the largest batch an in-repo client submits
#: before fetching results (the nightly soak holds 30 jobs, a perfbench
#: service 17).
MAX_FINISHED_JOBS = 64


@dataclass
class _Job:
    """Internal job record (the service's, not the wire's)."""

    job_id: str
    spec: JobSpec
    seq: int
    state: str = QUEUED
    store_key: str = ""
    design_key: str = ""
    store_hit: bool = False
    resumed: bool = False
    error: Optional[str] = None
    result: Optional[TopKResult] = None
    incidents: Tuple[ExecIncident, ...] = ()
    tracer: Tracer = field(default_factory=lambda: Tracer(worker="service"))
    #: Raised to make the running solve halt at its next checkpoint.
    cancel_flag: threading.Event = field(default_factory=threading.Event)
    #: Loop-side mirror of the flag, awaited by queued followers.
    cancel_event: asyncio.Event = field(default_factory=asyncio.Event)
    #: Set when the job reaches a terminal state.
    finished: asyncio.Event = field(default_factory=asyncio.Event)
    submitted_t: float = 0.0
    started_t: Optional[float] = None
    finished_t: Optional[float] = None

    def view(self) -> JobView:
        queue_end = self.started_t if self.started_t is not None else (
            self.finished_t if self.finished_t is not None else monotonic_s()
        )
        run_end = self.finished_t if self.finished_t is not None else (
            monotonic_s() if self.started_t is not None else None
        )
        return JobView(
            job_id=self.job_id,
            state=self.state,
            spec=self.spec,
            store_key=self.store_key,
            store_hit=self.store_hit,
            resumed=self.resumed,
            degraded=bool(self.result is not None and self.result.degraded),
            incidents=len(self.incidents),
            error=self.error,
            queue_wait_s=max(0.0, queue_end - self.submitted_t),
            run_s=(
                max(0.0, run_end - self.started_t)
                if self.started_t is not None and run_end is not None
                else 0.0
            ),
        )


class AnalysisService:
    """Long-running analysis front end over the solve pipeline.

    Construct, :meth:`start`, submit jobs, :meth:`close`.  All public
    coroutine methods must be called from the owning event loop; the
    blocking solver work runs on the service's thread pool.
    """

    def __init__(
        self,
        store_root: str,
        max_workers: int = DEFAULT_MAX_WORKERS,
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        self.store = ResultStore(store_root)
        self.metrics = MetricsRegistry()
        self.max_workers = max_workers
        #: Open jobs and retained finished ones, in submission order.
        self._jobs: Dict[str, _Job] = {}
        #: Ids of the retained finished jobs, oldest finish first.
        self._finished: Deque[str] = deque()
        self._seq = 0
        self._heap: List[Tuple[int, int, str]] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._tasks: "List[asyncio.Task[None]]" = []
        self._inflight: Dict[str, asyncio.Event] = {}
        #: (store_key, design_key) of every spec built so far; it grows
        #: with the distinct specs the service has seen.
        self._keys: Dict[JobSpec, Tuple[str, str]] = {}
        self._running = False

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Arm the queue and start the dispatcher."""
        if self._running:
            return
        self._wakeup = asyncio.Event()
        self._slots = asyncio.Semaphore(self.max_workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="svc-solve"
        )
        self._running = True
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def close(self, cancel_pending: bool = True) -> None:
        """Stop dispatching; optionally cancel whatever is still open."""
        self._running = False
        if cancel_pending:
            # Cancelling a queued job finishes it, which may forget an
            # older finished job: iterate the records, not their ids.
            for job in list(self._jobs.values()):
                if job.state not in TERMINAL_STATES:
                    await self.cancel(job.job_id)
        if self._wakeup is not None:
            self._wakeup.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        for task in self._tasks:
            await task
        self._tasks.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- submission ----------------------------------------------------
    async def submit(self, spec: JobSpec) -> JobView:
        """Queue one job; returns its initial (queued) view."""
        if not self._running:
            raise ServiceError("service is not running (call start())")
        assert self._wakeup is not None
        self._seq += 1
        job = _Job(
            job_id=job_id_for(self._seq),
            spec=spec,
            seq=self._seq,
            submitted_t=monotonic_s(),
        )
        self._jobs[job.job_id] = job
        heapq.heappush(self._heap, (spec.priority, job.seq, job.job_id))
        self.metrics.counter_add("service.jobs.submitted")
        self._refresh_gauges()
        self._wakeup.set()
        return job.view()

    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise NotFoundError(f"unknown job {job_id!r}")
        return job

    async def status(self, job_id: str) -> JobView:
        return self._job(job_id).view()

    async def jobs(self) -> List[JobView]:
        """Views of every retained job, in submission order."""
        return [job.view() for job in self._jobs.values()]

    async def result(self, job_id: str) -> Optional[TopKResult]:
        """The finished result, or None while the job is still open."""
        job = self._job(job_id)
        if job.state == FAILED:
            raise ServiceError(
                f"job {job_id} failed: {job.error}", job=job_id
            )
        return job.result

    async def wait(self, job_id: str) -> JobView:
        """Block until the job reaches a terminal state."""
        job = self._job(job_id)
        await job.finished.wait()
        return job.view()

    async def cancel(self, job_id: str) -> JobView:
        """Cancel a queued or running job (terminal jobs are left alone).

        A queued job is cancelled immediately; a running job halts at
        the engine's next cancellation checkpoint, leaving its shard
        checkpoint in the store so an identical resubmission resumes
        instead of restarting.
        """
        job = self._job(job_id)
        if job.state in TERMINAL_STATES:
            return job.view()
        job.cancel_flag.set()
        job.cancel_event.set()
        if job.state == QUEUED:
            self._finish(job, CANCELLED)
        return job.view()

    # -- dispatch ------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            while self._heap:
                _, _, job_id = heapq.heappop(self._heap)
                job = self._jobs.get(job_id)
                if job is None or job.state != QUEUED:
                    continue  # cancelled while queued (and maybe forgotten)
                task = asyncio.get_running_loop().create_task(
                    self._run_job(job)
                )
                self._tasks.append(task)
            if not self._running:
                return
            self._wakeup.clear()
            self._refresh_gauges()
            await self._wakeup.wait()

    async def _run_job(self, job: _Job) -> None:
        try:
            await self._run_job_inner(job)
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            self._finish(job, CANCELLED)
            raise
        except Exception as exc:  # lint: allow[RPR805] every failure ends FAILED
            # Any failure is terminal: an unmapped exception must not
            # leave the job open and its waiters blocked.
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, FAILED)

    async def _run_job_inner(self, job: _Job) -> None:
        spec = job.spec
        with job.tracer.span("job", job_id=job.job_id, k=spec.k, mode=spec.mode):
            design: Optional[Design] = None
            keys = self._keys.get(spec)
            if keys is None:
                design = await self._build_design(job)
            else:
                job.store_key, job.design_key = keys
            if job.cancel_flag.is_set():
                self._finish(job, CANCELLED)
                return
            if spec.use_store and await self._try_store_replay(job):
                return
            await self._solve_as_leader(job, design)

    async def _build_design(self, job: _Job) -> Design:
        """Build the job's design and fix its store and design keys.

        Both keys are pure functions of the spec, because the service
        only ever builds designs deterministically from the spec's
        source (``JobSpec._source_identity``).  The first build of a
        spec records them, so a repeated job probes the store without
        building its design; it builds only when it must solve.
        """
        spec = job.spec
        design = cast(
            Design, await self._in_thread(job, "build-design", spec.build_design)
        )
        keys = self._keys.get(spec)
        if keys is None:
            keys = (spec.store_key(design), spec.design_key(design))
            self._keys[spec] = keys
        job.store_key, job.design_key = keys
        return design

    async def _try_store_replay(self, job: _Job) -> bool:
        """Serve the job from the store, deduplicating against leaders.

        Returns True when the job finished (hit, or follower observed
        the leader's terminal state and replayed).  A corrupt entry is
        recorded as a ``store_corrupt`` incident and reported as a
        miss, sending this job down the cold-solve path.

        The in-flight table is consulted *before* the disk probe: while
        a leader is solving this key there is no point touching disk,
        and the store's hit/miss accounting then charges exactly one
        miss per cold key no matter how many identical jobs pile up.
        Leadership is claimed in the same event-loop tick as the check
        (no await between them), so exactly one job per key can win it;
        :meth:`_solve_as_leader` releases the claim when it finishes.
        """
        while True:
            leader_done = self._inflight.get(job.store_key)
            if leader_done is None:
                # Claim leadership atomically with the check, then look
                # at the disk; a hit releases the claim immediately.
                self._inflight[job.store_key] = asyncio.Event()
                try:
                    cached = await self._in_thread(
                        job, "store.get", self.store.get_result, job.store_key
                    )
                except StoreCorruptError as exc:
                    self._note_store_corrupt(job, exc)
                    return False  # cold solve, leadership kept
                except BaseException:
                    # A failed read ends this job: release the claim so
                    # the next identical job is not blocked behind it.
                    self._release_leadership(job.store_key)
                    raise
                if cached is not None:
                    self._release_leadership(job.store_key)
                    job.store_hit = True
                    job.result = self._with_incidents(cached, job.incidents)
                    self._finish(job, DONE)
                    return True
                return False  # miss: this job solves as the leader
            waiter = asyncio.ensure_future(leader_done.wait())
            canceller = asyncio.ensure_future(job.cancel_event.wait())
            try:
                await asyncio.wait(
                    {waiter, canceller},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                waiter.cancel()
                canceller.cancel()
                await asyncio.gather(waiter, canceller, return_exceptions=True)
            if job.cancel_flag.is_set():
                self._finish(job, CANCELLED)
                return True
            # Leader finished: loop to replay its published result (or
            # take over as the new leader if it failed/was cancelled).

    def _release_leadership(self, store_key: str) -> None:
        done = self._inflight.pop(store_key, None)
        if done is not None:
            done.set()

    async def _solve_as_leader(
        self, job: _Job, design: Optional[Design]
    ) -> None:
        """Solve for real; leadership was claimed in the replay check.

        A job whose keys were known probed the store without a design,
        so it builds one here, after the claim: a failed build releases
        the claim in the ``finally`` like any other failure.
        """
        assert self._slots is not None
        spec = job.spec
        publish = spec.use_store
        try:
            if design is None:
                design = await self._build_design(job)
            async with self._slots:
                if job.cancel_flag.is_set():
                    self._finish(job, CANCELLED)
                    return
                job.state = RUNNING
                job.started_t = monotonic_s()
                self.metrics.observe(
                    "service.queue_wait_s", job.started_t - job.submitted_t
                )
                self._refresh_gauges()
                memo: Optional[EnvelopeMemo] = None
                if publish:
                    snapshot = await self._in_thread(
                        job, "memo.load", self.store.get_memo, job.design_key
                    )
                    # Warm-start from the stored snapshot when there is
                    # one; otherwise hand the solve a fresh memo so its
                    # entries can be frozen and published afterwards.
                    memo = (
                        EnvelopeMemo.thaw(snapshot)
                        if snapshot is not None
                        else EnvelopeMemo()
                    )
                job.resumed = publish and self.store.has_shard(job.store_key)
                solve = self._solver_callable(job, design, memo, publish)
                try:
                    result = await self._solve(job, solve)
                except BudgetExceededError as exc:
                    if exc.context.get("reason") == "cancelled":
                        self._finish(job, CANCELLED)
                        return
                    raise
                if (
                    result.degraded
                    and result.degradation is not None
                    and result.degradation.reason == "cancelled"
                ):
                    # Degrade-mode cancellation: the shard stays for a
                    # future identical job to resume from.
                    self._finish(job, CANCELLED)
                    return
                result = self._with_incidents(result, job.incidents)
                job.result = result
                if publish and not result.degraded:
                    await self._publish(job, design, result, memo)
                self._finish(job, DONE)
        finally:
            if publish:
                self._release_leadership(job.store_key)

    async def _solve(self, job: _Job, solve: Callable[[], TopKResult]) -> TopKResult:
        """Run ``solve``; a shard it cannot resume from is set aside.

        A torn or malformed shard makes the engine raise
        :class:`CheckpointError` while loading it.  Like a corrupt
        result, the shard is quarantined (``*.corrupt``), a
        ``store_corrupt`` incident is recorded, and the job solves cold
        — otherwise every later identical job would fail the same way.
        """
        try:
            return cast(TopKResult, await self._in_thread(job, "solve", solve))
        except CheckpointError as exc:
            if not job.resumed or exc.phase != "checkpoint-load":
                raise
            self._note_store_corrupt(job, exc)
        self.store.quarantine_shard(job.store_key)
        job.resumed = False
        return cast(TopKResult, await self._in_thread(job, "solve", solve))

    def _note_store_corrupt(self, job: _Job, exc: ReproError) -> None:
        job.incidents = job.incidents + (
            ExecIncident(
                kind="store_corrupt",
                site=job.store_key[:12],
                reason=str(exc),
                resolution="in-process",
            ),
        )
        self.metrics.counter_add("service.store.corrupt")

    def _solver_callable(
        self,
        job: _Job,
        design: Design,
        memo: Optional[EnvelopeMemo],
        publish: bool,
    ) -> Callable[[], TopKResult]:
        spec = job.spec
        shard = self.store.shard_path(job.store_key) if publish else None

        def _solve() -> TopKResult:
            return analyze(
                design,
                spec.k,
                mode=spec.mode,
                config=spec.solver_config(),
                certify=spec.certify,
                deadline_s=spec.deadline_s,
                on_budget=spec.on_budget,
                checkpoint_path=shard,
                max_candidates=spec.max_candidates,
                memo=memo,
                cancel_check=job.cancel_flag.is_set,
            )

        return _solve

    async def _publish(
        self,
        job: _Job,
        design: Design,
        result: TopKResult,
        memo: Optional[EnvelopeMemo],
    ) -> None:
        def _put() -> None:
            self.store.put_result(job.store_key, result, design)
            self.store.clear_shard(job.store_key)

        await self._in_thread(job, "store.put", _put)
        # The memo the solve warmed (or built) is folded back for the
        # next job over the same design.  We cannot reach the engine's
        # memo through analyze(); instead the *warm-start* memo we
        # passed in was mutated in place by the solve, so freezing it
        # now captures both the old and the newly computed entries.
        if memo is not None:
            snapshot = memo.freeze()
            if snapshot.entry_count():
                await self._in_thread(
                    job,
                    "memo.save",
                    self.store.put_memo,
                    job.design_key,
                    snapshot,
                )

    async def _in_thread(
        self, job: _Job, span_name: str, fn: Callable[..., Any], *args: Any
    ) -> Any:
        assert self._executor is not None
        loop = asyncio.get_running_loop()
        with job.tracer.span(span_name):
            return await loop.run_in_executor(self._executor, fn, *args)

    # -- bookkeeping ---------------------------------------------------
    def _finish(self, job: _Job, state: str) -> None:
        if job.state in TERMINAL_STATES:
            return
        job.state = state
        job.finished_t = monotonic_s()
        job.finished.set()
        self._finished.append(job.job_id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self._jobs[self._finished.popleft()]
        key = {DONE: "completed", FAILED: "failed", CANCELLED: "cancelled"}[
            state
        ]
        self.metrics.counter_add(f"service.jobs.{key}")
        if job.store_hit:
            self.metrics.counter_add("service.jobs.store_hits")
        self._refresh_gauges()

    def _with_incidents(
        self, result: TopKResult, incidents: Tuple[ExecIncident, ...]
    ) -> TopKResult:
        if not incidents:
            return result
        return replace(
            result, exec_incidents=result.exec_incidents + incidents
        )

    def _refresh_gauges(self) -> None:
        queued = sum(1 for j in self._jobs.values() if j.state == QUEUED)
        running = sum(1 for j in self._jobs.values() if j.state == RUNNING)
        self.metrics.gauge_set("service.queue_depth", float(queued))
        self.metrics.gauge_set("service.jobs_inflight", float(running))
        stats = self.store.stats()
        self.metrics.gauge_set("service.store.hits", float(stats.hits))
        self.metrics.gauge_set("service.store.misses", float(stats.misses))
        self.metrics.gauge_set("service.store.hit_rate", stats.hit_rate)

    # -- observability -------------------------------------------------
    def merged_trace(self) -> Dict[str, Any]:
        """One Chrome trace document, one ``pid`` lane per job."""
        return combine_chrome(
            {job_id: job.tracer for job_id, job in self._jobs.items()}
        )

    def metrics_json(self) -> Dict[str, Any]:
        self._refresh_gauges()
        return self.metrics.to_json()
