"""The HTTP front end, exercised over real sockets like a caller would."""

from __future__ import annotations

import time

import pytest

from repro.service import JobSpec, ServiceError
from repro.service.client import HttpClient
from repro.service.serialize import results_equal

TINY = dict(gates=12, seed=3, k=2)


@pytest.fixture()
def client(http_server):
    return HttpClient("127.0.0.1", http_server.port, timeout_s=120)


class TestProtocol:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["ok"] is True
        assert payload["jobs"] == 0

    def test_submit_poll_result_round_trip(self, client):
        view = client.submit(JobSpec(**TINY))
        assert view.job_id == "job-000001"
        result = client.poll_result(view.job_id, timeout_s=120)
        final = client.status(view.job_id)
        assert final.state == "done"
        assert result.delay is not None
        # an identical second submission is served from the store and
        # returns the bit-identical result envelope
        second = client.submit(JobSpec(**TINY))
        result2 = client.poll_result(second.job_id, timeout_s=120)
        assert client.status(second.job_id).store_hit
        assert results_equal(result, result2)

    def test_jobs_listing(self, client):
        a = client.submit(JobSpec(**TINY))
        client.poll_result(a.job_id, timeout_s=120)
        views = client.jobs()
        assert [v.job_id for v in views] == [a.job_id]

    def test_cancel_endpoint(self, client):
        blocker = client.submit(JobSpec(gates=40, seed=5, k=3))
        victim = client.submit(JobSpec(gates=40, seed=6, k=3))
        view = client.cancel(victim.job_id)
        # queued -> cancelled instantly; running -> at the next tick
        assert view.state in ("cancelled", "queued", "running")
        client.poll_result(blocker.job_id, timeout_s=120)
        deadline = 200
        while client.status(victim.job_id).state == "running" and deadline:
            deadline -= 1
            time.sleep(0.05)
        assert client.status(victim.job_id).state == "cancelled"
        # a cancelled job's result endpoint answers 409
        with pytest.raises(ServiceError) as err:
            client.try_result(victim.job_id)
        assert err.value.context.get("status") == 409

    def test_result_is_202_while_open(self, client):
        view = client.submit(JobSpec(gates=40, seed=5, k=3))
        # the solve takes ~200ms of engine work; this request lands
        # while it is queued or running
        assert client.try_result(view.job_id) is None
        assert client.poll_result(view.job_id, timeout_s=120) is not None

    def test_metrics_store_and_trace_endpoints(self, client):
        view = client.submit(JobSpec(**TINY))
        client.poll_result(view.job_id, timeout_s=120)
        metrics = client.metrics()
        assert metrics["counters"]["service.jobs.submitted"] == 1
        store = client.store_summary()
        assert store["entries"]["results"] == 1
        trace = client.merged_trace()
        assert any(
            e.get("name") == "solve" for e in trace["traceEvents"]
        )


class TestErrors:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("job-999999")
        assert err.value.context.get("status") == 404

    def test_malformed_spec_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request(
                "POST", "/v1/jobs", body={"benchmark": "i1", "gates": 10}
            )
        assert err.value.context.get("status") == 400

    def test_out_of_range_knob_is_400_and_nothing_queued(self, client):
        for body in (
            {"benchmark": "i1", "k": 2, "grid_points": 4},
            {"benchmark": "i1", "k": 2, "max_candidates": -5},
            # Numbers that overflow a conversion: JSON 1e309 and 1e400
            # parse as infinity, and a 400-digit integer is no float.
            {"benchmark": "i1", "k": 1e309},
            {"benchmark": "i1", "k": float("inf")},
            {"benchmark": "i1", "priority": 1e400},
            {"benchmark": "i1", "deadline_s": 10**400},
            # Sizes over the spec's upper bounds.
            {"gates": 10**30},
            {"benchmark": "i1", "k": 10**30},
            {"benchmark": "i1", "grid_points": 10**12},
            {"benchmark": "i1", "parallelism": 10**6},
        ):
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/v1/jobs", body=body)
            assert err.value.context.get("status") == 400
        assert client.jobs() == []

    def test_wrongly_typed_field_is_400_and_nothing_queued(self, client):
        for body in (
            {"benchmark": "i1", "certify": "false"},
            {"benchmark": "i1", "use_store": "false"},
            {"benchmark": "i1", "k": 3.7},
            {"benchmark": "i1", "k": True},
        ):
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/v1/jobs", body=body)
            assert err.value.context.get("status") == 400
        assert client.jobs() == []

    def test_unexpected_exception_is_500_with_a_body(self, http_server, client):
        async def broken(job_id):
            raise RuntimeError("store is on fire")

        http_server.server.service.status = broken
        payload = client._request("GET", "/v1/jobs/job-000001", accept=(500,))
        assert payload["error"] == "RuntimeError: store is on fire"
        # the server keeps answering afterwards
        assert client.healthz()["ok"] is True

    def test_unknown_spec_field_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/v1/jobs", body={"bogus": 1})
        assert err.value.context.get("status") == 400

    def test_non_json_body_is_400(self, client):
        payload = client._request("POST", "/v1/jobs", accept=(400,))
        assert "JSON" in payload["error"]

    def test_unsupported_method_is_405(self, client):
        view = client.submit(JobSpec(**TINY))
        client.poll_result(view.job_id, timeout_s=120)
        payload = client._request(
            "POST", f"/v1/jobs/{view.job_id}", body={}, accept=(405,)
        )
        assert "unsupported" in payload["error"]

    def test_unknown_route_is_404(self, client):
        payload = client._request("GET", "/v1/nothing", accept=(404,))
        assert "no route" in payload["error"]
