"""The asyncio service: dedup, ordering, cancel/resume, provenance."""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.api import analyze
from repro.runtime.checkpoint import design_fingerprint
from repro.runtime.faultinject import FaultSpec, injected
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    JobSpec,
    NotFoundError,
    ServiceClient,
    ServiceError,
)
from repro.service import core as service_core
from repro.service.protocol import TERMINAL_STATES as TERMINAL
from repro.service.serialize import result_to_json, results_equal
from repro.service.store import PAYLOAD_SPLICE
from repro.verify import check_certificate

from .conftest import write_spliced

TINY = dict(gates=12, seed=3, k=2)


def _span_names(service, job_id):
    return {span.name for span in service._jobs[job_id].tracer.spans}


def _damage_entry(path, result, damage):
    """Damage a stored entry so that only decoding can tell."""
    if damage == "non_utf8":
        with open(path, "rb") as fh:
            data = fh.read()
        at = data.index(PAYLOAD_SPLICE.encode("ascii")) + len(PAYLOAD_SPLICE) + 5
        with open(path, "wb") as fh:
            fh.write(data[:at] + b"\xff" + data[at:])
        return
    # a number where ``stats`` must be an object, under a valid digest
    payload = json.loads(json.dumps(result_to_json(result)))
    payload["stats"] = 7
    write_spliced(path, payload)


def run(coro):
    return asyncio.run(coro)


async def _with_service(factory, fn, **kwargs):
    service = factory(**kwargs)
    await service.start()
    try:
        return await fn(service, ServiceClient(service))
    finally:
        await service.close()


class TestSingleFlight:
    def test_n_identical_concurrent_jobs_one_solve(self, service_factory):
        """The acceptance scenario: 11 identical jobs, 1 solve, 10 hits,
        bit-identical results, valid certificates, hit rate >= 0.9."""

        async def scenario(service, client):
            spec = JobSpec(certify=True, **TINY)
            # submitted back-to-back in one event-loop tick: all are
            # queued together, so the single-flight dedup must collapse
            # them onto one leader
            views = [await client.submit(spec) for _ in range(11)]
            finals = [await client.wait(v.job_id) for v in views]
            results = [await client.result(v.job_id) for v in finals]
            return spec, finals, results, service.store.stats(), (
                service.metrics_json()
            )

        spec, finals, results, stats, metrics = run(
            _with_service(service_factory, scenario)
        )
        assert all(v.state == DONE for v in finals)
        assert sum(1 for v in finals if not v.store_hit) == 1  # the leader
        assert sum(1 for v in finals if v.store_hit) == 10
        # one solve happened: one miss (the leader), one publication
        assert stats.misses == 1
        assert stats.puts == 1
        assert stats.hits == 10
        assert stats.hit_rate >= 0.9
        assert metrics["gauges"]["service.store.hit_rate"] >= 0.9
        # every job returned the bit-identical answer
        first = results[0]
        assert first is not None
        for other in results[1:]:
            assert other is not None
            assert results_equal(first, other)
        # certificates survived the store round trip and still check out
        design = spec.build_design()
        for result in results:
            assert result.certificate is not None
            report = check_certificate(result.certificate, design)
            assert report.ok, report.summary()

    def test_repeat_after_restart_hits_store(self, service_factory, tmp_path):
        """The store is persistent: a new service process sees it."""

        async def first(service, client):
            return await client.run(JobSpec(**TINY))

        async def second(service, client):
            result = await client.run(JobSpec(**TINY))
            view = (await client.jobs())[0]
            return result, view

        a = run(_with_service(service_factory, first))
        b, view = run(_with_service(service_factory, second))
        assert view.store_hit
        assert results_equal(a, b)

    def test_use_store_false_always_solves_cold(self, service_factory):
        async def scenario(service, client):
            spec = JobSpec(use_store=False, **TINY)
            a = await client.run(spec)
            b = await client.run(spec)
            return a, b, (await client.jobs()), service.store.stats()

        a, b, views, stats = run(_with_service(service_factory, scenario))
        assert results_equal(a, b)
        assert not any(v.store_hit for v in views)
        assert stats.puts == 0


class TestQueueOrder:
    def test_priority_fifo(self, service_factory):
        """Lower priority number runs first; ties run in submission order."""

        async def scenario(service, client):
            # all four land in the heap in one tick (submit never
            # suspends), so the dispatcher drains them by priority
            specs = [
                JobSpec(gates=12, seed=11, k=1, priority=5),
                JobSpec(gates=12, seed=12, k=1, priority=0),
                JobSpec(gates=12, seed=13, k=1, priority=0),
                JobSpec(gates=12, seed=14, k=1, priority=2),
            ]
            views = [await client.submit(s) for s in specs]
            for v in views:
                await client.wait(v.job_id)
            started = {
                v.job_id: service._jobs[v.job_id].started_t for v in views
            }
            return [v.job_id for v in views], started

        ids, started = run(
            _with_service(service_factory, scenario, max_workers=1)
        )
        order = sorted(ids, key=lambda job_id: started[job_id])
        # priority 0 pair first (FIFO between them), then 2, then 5
        assert order == [ids[1], ids[2], ids[3], ids[0]]


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, service_factory):
        async def scenario(service, client):
            blocker = await client.submit(JobSpec(gates=30, seed=5, k=2))
            victim = await client.submit(JobSpec(gates=30, seed=6, k=2))
            # victim is still queued (nothing has run yet this tick)
            cancelled = await client.cancel(victim.job_id)
            await client.wait(blocker.job_id)
            final = await client.wait(victim.job_id)
            result = await client.result(victim.job_id)
            return cancelled, final, result

        cancelled, final, result = run(
            _with_service(service_factory, scenario, max_workers=1)
        )
        assert cancelled.state == CANCELLED
        assert final.state == CANCELLED
        assert final.run_s == 0.0  # it never started
        assert result is None

    def test_cancel_running_job_halts_cooperatively(self, service_factory):
        async def scenario(service, client):
            view = await client.submit(JobSpec(gates=40, seed=5, k=3))
            while (await client.status(view.job_id)).state != RUNNING:
                await asyncio.sleep(0.001)
            await client.cancel(view.job_id)
            final = await client.wait(view.job_id)
            return final

        final = run(_with_service(service_factory, scenario))
        # the solve is ~200ms of engine ticks; the cancel flag lands at
        # the very start of it, so the engine halts at its next tick
        assert final.state == CANCELLED


class TestShardResume:
    def test_interrupted_job_resumes_bit_exact(self, service_factory):
        """A budget-halted job leaves its shard; the identical
        resubmission resumes from it and matches a clean solve."""
        spec = JobSpec(gates=30, seed=5, k=3, deadline_s=60.0)

        async def interrupted(service, client):
            with injected(FaultSpec("deadline", target="@k2")):
                view = await client.submit(spec)
                final = await client.wait(view.job_id)
                result = await client.result(view.job_id)
            design = spec.build_design()
            key = spec.store_key(design)
            return final, result, service.store.has_shard(key), (
                service.store.stats()
            )

        async def resumed(service, client):
            view = await client.submit(spec)
            final = await client.wait(view.job_id)
            result = await client.result(view.job_id)
            design = spec.build_design()
            key = spec.store_key(design)
            return final, result, service.store.has_shard(key)

        final1, result1, shard_after_halt, stats1 = run(
            _with_service(service_factory, interrupted)
        )
        # budget-exceeded provenance: degraded, reported, not published
        assert final1.state == DONE
        assert final1.degraded
        assert result1 is not None and result1.degraded
        assert result1.degradation is not None
        assert result1.degradation.reason == "deadline"
        assert stats1.puts == 0  # degraded answers are never published
        assert shard_after_halt  # the checkpoint stayed behind

        final2, result2, shard_after_done = run(
            _with_service(service_factory, resumed)
        )
        assert final2.state == DONE
        assert final2.resumed
        assert not final2.degraded
        assert not shard_after_done  # consumed and cleared on publish
        reference = analyze(
            spec.build_design(), spec.k, config=spec.solver_config()
        )
        assert result2 is not None
        assert results_equal(result2, reference)


class TestIncidents:
    def test_store_corruption_falls_back_to_cold_solve(self, service_factory):
        spec = JobSpec(**TINY)

        async def scenario(service, client):
            first = await client.run(spec)
            design = spec.build_design()
            key = spec.store_key(design)
            path = service.store.result_path(key)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"damaged": tru')  # torn file at rest
            second_view = await client.submit(spec)
            await client.wait(second_view.job_id)
            second = await client.result(second_view.job_id)
            final = await client.status(second_view.job_id)
            third = await client.run(spec)
            third_view = (await client.jobs())[-1]
            return first, second, final, third, third_view, path, (
                service.store.stats()
            )

        first, second, final, third, third_view, path, stats = run(
            _with_service(service_factory, scenario)
        )
        # the damaged entry forced a cold solve, recorded as an incident
        assert final.state == DONE
        assert not final.store_hit
        assert final.incidents == 1
        assert second is not None
        assert any(
            inc.kind == "store_corrupt" for inc in second.exec_incidents
        )
        assert results_equal(first, second)
        assert stats.corrupt == 1
        assert os.path.exists(path + ".corrupt")
        # the cold solve republished: the third job is a hit again
        assert third_view.store_hit
        assert results_equal(first, third)

    @pytest.mark.parametrize("damage", ["non_utf8", "stats_number"])
    def test_undecodable_entry_falls_back_to_cold_solve(
        self, service_factory, damage
    ):
        """An entry that parses or hashes but cannot be decoded (a byte
        that is not UTF-8, a wrongly typed section under a valid digest)
        is quarantined like a torn one, and the job solves cold."""
        spec = JobSpec(**TINY)

        async def scenario(service, client):
            first = await client.run(spec)
            path = service.store.result_path(spec.store_key(spec.build_design()))
            _damage_entry(path, first, damage)
            second = await client.run(spec)
            final = (await client.jobs())[-1]
            third = await client.run(spec)
            third_view = (await client.jobs())[-1]
            return first, second, final, third, third_view, path, (
                service.store.stats()
            )

        first, second, final, third, third_view, path, stats = run(
            _with_service(service_factory, scenario)
        )
        assert final.state == DONE
        assert not final.store_hit
        assert [inc.kind for inc in second.exec_incidents] == ["store_corrupt"]
        assert results_equal(first, second)
        assert stats.corrupt == 1
        assert os.path.exists(path + ".corrupt")
        assert third_view.store_hit
        assert results_equal(first, third)

    @pytest.mark.parametrize("damage", ["torn", "malformed"])
    def test_damaged_shard_is_quarantined_then_solved_cold(
        self, service_factory, damage
    ):
        """A shard the engine cannot resume from must not break its key
        for good: it is set aside, recorded, and the job solves cold."""
        spec = JobSpec(certify=True, **TINY)
        design = spec.build_design()

        async def scenario(service, client):
            path = service.store.shard_path(spec.store_key(design))
            with open(path, "w", encoding="utf-8") as fh:
                if damage == "torn":
                    fh.write('{"version": 1, "fingerprint": {"des')
                else:  # this job's snapshot identity, a malformed frontier
                    fingerprint = design_fingerprint(
                        design, spec.mode, spec.solver_config()
                    )
                    json.dump(
                        {"version": 1, "fingerprint": fingerprint,
                         "solved_upto": 1, "stats": {}, "nets": []},
                        fh,
                    )
            view = await client.submit(spec)
            final = await client.wait(view.job_id)
            result = await client.result(view.job_id)
            await client.run(spec)
            again = (await client.jobs())[-1]
            return path, final, result, again

        path, final, result, again = run(
            _with_service(service_factory, scenario)
        )
        assert final.state == DONE
        assert final.incidents == 1
        assert not final.resumed
        assert result is not None
        assert [inc.kind for inc in result.exec_incidents] == ["store_corrupt"]
        assert results_equal(
            result, analyze(design, spec.k, config=spec.solver_config())
        )
        assert os.path.exists(path + ".corrupt")
        assert not os.path.exists(path)
        # the cold solve published: the next identical job is a hit
        assert again.store_hit

    def test_failing_solve_marks_job_failed(self, service_factory):
        async def scenario(service, client):
            spec = JobSpec(
                gates=30, seed=5, k=3, deadline_s=60.0, on_budget="raise"
            )
            with injected(FaultSpec("deadline", target="@k2")):
                view = await client.submit(spec)
                final = await client.wait(view.job_id)
            with pytest.raises(ServiceError):
                await client.result(view.job_id)
            return final

        final = run(_with_service(service_factory, scenario))
        assert final.state == FAILED
        assert final.error is not None and "deadline" in final.error


class TestFailurePaths:
    """Every failure ends its job FAILED and frees whatever it claimed;
    a bounded wait turns a would-be hang into a test failure."""

    def test_failed_store_read_releases_the_claim(
        self, service_factory, monkeypatch
    ):
        spec = JobSpec(**TINY)

        async def scenario(service, client):
            real_get = service.store.get_result
            calls = []

            def flaky_get(key):
                calls.append(key)
                if len(calls) == 1:
                    raise OSError("disk went away")
                return real_get(key)

            monkeypatch.setattr(service.store, "get_result", flaky_get)
            first = await client.submit(spec)
            first_final = await asyncio.wait_for(client.wait(first.job_id), 20)
            leaked = dict(service._inflight)
            second = await client.submit(spec)
            second_final = await asyncio.wait_for(client.wait(second.job_id), 20)
            return first_final, leaked, second_final

        first, leaked, second = run(_with_service(service_factory, scenario))
        assert first.state == FAILED
        assert first.error == "OSError: disk went away"
        assert leaked == {}
        assert second.state == DONE and not second.store_hit

    @pytest.mark.parametrize("where", ["build_design", "solve"])
    def test_unmapped_exception_fails_the_job_and_frees_waiters(
        self, service_factory, monkeypatch, where
    ):
        def boom(*args, **kwargs):
            raise AttributeError("no such field")

        if where == "build_design":
            monkeypatch.setattr(JobSpec, "build_design", boom)
        else:
            monkeypatch.setattr("repro.service.core.analyze", boom)
        spec = JobSpec(**TINY)

        async def scenario(service, client):
            # two identical jobs: the second waits on the first as leader
            views = [await client.submit(spec) for _ in range(2)]
            finals = [
                await asyncio.wait_for(client.wait(v.job_id), 20) for v in views
            ]
            with pytest.raises(ServiceError, match="AttributeError"):
                await client.result(views[0].job_id)
            return finals, dict(service._inflight)

        finals, inflight = run(_with_service(service_factory, scenario))
        assert [v.state for v in finals] == [FAILED, FAILED]
        assert all(v.error == "AttributeError: no such field" for v in finals)
        assert inflight == {}


    def test_failed_build_after_the_claim_releases_it(
        self, service_factory, monkeypatch
    ):
        """A repeated job probes the store before it builds its design.
        When a quarantined entry sends it to a cold solve, it builds
        while it holds the single-flight claim; a failed build must
        release the claim and fail the waiting twin too."""
        spec = JobSpec(**TINY)

        def boom(*args, **kwargs):
            raise AttributeError("no such field")

        async def scenario(service, client):
            await client.run(spec)  # publishes and records the keys
            path = service.store.result_path(spec.store_key(spec.build_design()))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"damaged": tru')
            monkeypatch.setattr(JobSpec, "build_design", boom)
            views = [await client.submit(spec) for _ in range(2)]
            finals = [
                await asyncio.wait_for(client.wait(v.job_id), 20) for v in views
            ]
            return finals, dict(service._inflight), service.store.stats()

        finals, inflight, stats = run(_with_service(service_factory, scenario))
        assert [v.state for v in finals] == [FAILED, FAILED]
        assert all(v.error == "AttributeError: no such field" for v in finals)
        assert inflight == {}
        assert stats.corrupt == 1


class TestKeyMemo:
    """A spec's keys are fixed by its first build; repeats build nothing."""

    def test_repeated_job_builds_no_design(self, service_factory, monkeypatch):
        builds = []
        real_build = JobSpec.build_design

        def counting_build(self):
            builds.append(self)
            return real_build(self)

        monkeypatch.setattr(JobSpec, "build_design", counting_build)
        spec = JobSpec(**TINY)

        async def scenario(service, client):
            first = await client.run(spec)
            hits = [await client.run(spec) for _ in range(2)]
            views = await client.jobs()
            spans = [_span_names(service, v.job_id) for v in views]
            built_before_damage = len(builds)
            path = service.store.result_path(views[0].store_key)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"damaged": tru')
            cold = await client.run(spec)
            last = (await client.jobs())[-1]
            return (
                first, hits, views, spans, built_before_damage, cold, last,
                _span_names(service, last.job_id),
            )

        first, hits, views, spans, built, cold, last, last_spans = run(
            _with_service(service_factory, scenario)
        )
        assert built == 1
        assert [v.store_hit for v in views] == [False, True, True]
        assert len({v.store_key for v in views}) == 1
        assert all(results_equal(first, hit) for hit in hits)
        assert "build-design" in spans[0]
        assert all("build-design" not in names for names in spans[1:])
        assert all("store.get" in names for names in spans[1:])
        # the quarantined entry sends the next job to a cold solve, and
        # only that job builds the design again
        assert len(builds) == 2
        assert not last.store_hit and last.store_key == views[0].store_key
        assert "build-design" in last_spans and "solve" in last_spans
        assert results_equal(first, cold)


class TestObservability:
    def test_metrics_and_merged_trace(self, service_factory):
        async def scenario(service, client):
            await client.run(JobSpec(**TINY))
            await client.run(JobSpec(**TINY))
            return service.metrics_json(), service.merged_trace()

        metrics, trace = run(_with_service(service_factory, scenario))
        counters = metrics["counters"]
        assert counters["service.jobs.submitted"] == 2
        assert counters["service.jobs.completed"] == 2
        assert counters["service.jobs.store_hits"] == 1
        gauges = metrics["gauges"]
        assert gauges["service.queue_depth"] == 0
        assert gauges["service.jobs_inflight"] == 0
        events = trace["traceEvents"]
        names = {e.get("name") for e in events}
        # both jobs contributed span trees; only the leader solved
        assert "job" in names
        assert "solve" in names
        process_names = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "process_name"
        }
        assert process_names == {"job-000001", "job-000002"}


class TestRetention:
    def test_only_the_newest_finished_jobs_are_kept(
        self, service_factory, monkeypatch
    ):
        monkeypatch.setattr(service_core, "MAX_FINISHED_JOBS", 3)

        async def scenario(service, client):
            spec = JobSpec(**TINY)
            views, results = [], []
            for _ in range(5):
                view = await client.submit(spec)
                views.append(await client.wait(view.job_id))
                results.append(await client.result(view.job_id))
            listed = [v.job_id for v in await client.jobs()]
            lanes = {
                e["args"]["name"]
                for e in service.merged_trace()["traceEvents"]
                if e.get("name") == "process_name"
            }
            for view in views[:2]:
                for call in (
                    client.status, client.result, client.wait, client.cancel
                ):
                    with pytest.raises(NotFoundError):
                        await call(view.job_id)
            return views, results, listed, lanes

        views, results, listed, lanes = run(
            _with_service(service_factory, scenario)
        )
        ids = [v.job_id for v in views]
        assert listed == ids[2:]
        assert lanes == set(ids[2:])
        assert not views[0].store_hit and views[-1].store_hit
        assert results_equal(results[-1], results[0])

    def test_finished_job_tasks_are_dropped(self, service_factory):
        async def scenario(service, client):
            spec = JobSpec(**TINY)
            for _ in range(200):
                await client.run(spec)
            return len(service._tasks), service.max_workers

        held, max_workers = run(_with_service(service_factory, scenario))
        assert held <= max_workers

    def test_close_cancels_open_jobs_after_evictions(
        self, service_factory, monkeypatch
    ):
        # Cancelling the queued jobs at close finishes them, which
        # forgets older finished jobs still listed after them.
        monkeypatch.setattr(service_core, "MAX_FINISHED_JOBS", 1)
        solver_callable = service_core.AnalysisService._solver_callable

        def held_until_cancelled(self, job, design, memo, publish):
            solve = solver_callable(self, job, design, memo, publish)

            def _solve():
                job.cancel_flag.wait(30)
                return solve()

            return _solve

        monkeypatch.setattr(
            service_core.AnalysisService, "_solver_callable", held_until_cancelled
        )

        async def scenario(service, client):
            running = await client.submit(JobSpec(**TINY))
            while (await client.status(running.job_id)).state != RUNNING:
                await asyncio.sleep(0.01)
            queued = [
                await client.submit(JobSpec(gates=12, seed=seed, k=2))
                for seed in (4, 5)
            ]
            late = await client.submit(JobSpec(gates=12, seed=6, k=2))
            await client.cancel(late.job_id)
            await service.close()
            return [running.job_id] + [v.job_id for v in queued], late.job_id

        service = service_factory(max_workers=1)

        async def main():
            await service.start()
            return await scenario(service, ServiceClient(service))

        open_ids, late_id = run(main())
        # The held solve finishes last, once close cancelled it.
        kept = {job.job_id: job.state for job in service._jobs.values()}
        assert list(kept) == [open_ids[0]] and late_id not in kept
        assert kept[open_ids[0]] in TERMINAL

