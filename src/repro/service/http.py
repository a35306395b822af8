"""Minimal HTTP/1.1 JSON front end over :class:`AnalysisService`.

Stdlib-only (``asyncio.start_server``), close-delimited (every response
carries ``Connection: close``), JSON bodies both ways.  The protocol::

    POST /v1/jobs               submit   (body: JobSpec JSON) -> JobView
    GET  /v1/jobs               list every job                -> [JobView]
    GET  /v1/jobs/<id>          poll one job                  -> JobView
    GET  /v1/jobs/<id>/result   result envelope; 202 while open
    POST /v1/jobs/<id>/cancel   cooperative cancel            -> JobView
    GET  /v1/metrics            service metrics registry
    GET  /v1/store              persistent store summary
    GET  /v1/trace              merged Chrome trace (all jobs)
    GET  /v1/healthz            liveness probe

Every request gets an answer with a JSON body ``{"error": ...}`` on
failure, and the connection is always closed afterwards:

* 400 — a malformed request line, ``Content-Length`` or JSON body, an
  over-large body, or a job spec the service rejects: an unknown
  field, a value of the wrong JSON type (``"false"`` for a boolean,
  ``3.7`` or ``true`` for an integer; nothing is coerced), a number
  too large to convert, or a knob out of range.  Nothing is queued.
* 404 — an unknown job or route; 405 — an unsupported method on a job.
* 409 — the result of a failed or cancelled job (the job view carries
  the error string).
* 500 — any other exception while answering, named in the body.

This is an operational tool for a trusted network, not an
internet-facing server — there is no TLS and no auth, exactly like the
rest of the repro tooling.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from .core import AnalysisService
from .protocol import FAILED, TERMINAL_STATES, JobSpec, NotFoundError, ServiceError
from .serialize import result_to_json

#: Cap on accepted request bodies (a JobSpec is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


class ServiceServer:
    """One listening socket bound to one :class:`AnalysisService`."""

    def __init__(
        self, service: AnalysisService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Start the service and begin accepting connections."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    # -- plumbing ------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._respond(reader)
            body = json.dumps(payload).encode("utf-8")
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception as exc:  # lint: allow[RPR805] answered as a 500, never dropped
            status = 500
            body = json.dumps({"error": f"{type(exc).__name__}: {exc}"}).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("ascii")
        writer.write(head + body)
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, Any]]:
        request = await reader.readline()
        parts = request.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "malformed content-length"}
        if content_length > MAX_BODY_BYTES:
            return 400, {"error": "request body too large"}
        raw = b""
        if content_length:
            raw = await reader.readexactly(content_length)
        try:
            return await self._route(method, path, raw)
        except NotFoundError as exc:
            return 404, {"error": str(exc)}
        except ServiceError as exc:
            return 400, {"error": str(exc)}

    # -- routing -------------------------------------------------------
    async def _route(
        self, method: str, path: str, raw: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        svc = self.service
        if path == "/v1/jobs" and method == "POST":
            spec = JobSpec.from_json(_parse_body(raw))
            view = await svc.submit(spec)
            return 200, view.to_json()
        if path == "/v1/jobs" and method == "GET":
            views = await svc.jobs()
            return 200, {"jobs": [v.to_json() for v in views]}
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            if rest.endswith("/result") and method == "GET":
                return await self._result(rest[: -len("/result")])
            if rest.endswith("/cancel") and method == "POST":
                view = await svc.cancel(rest[: -len("/cancel")])
                return 200, view.to_json()
            if "/" not in rest and method == "GET":
                view = await svc.status(rest)
                return 200, view.to_json()
            return 405, {"error": f"unsupported {method} on {path}"}
        if path == "/v1/metrics" and method == "GET":
            return 200, svc.metrics_json()
        if path == "/v1/store" and method == "GET":
            return 200, svc.store.summary()
        if path == "/v1/trace" and method == "GET":
            return 200, svc.merged_trace()
        if path == "/v1/healthz" and method == "GET":
            views = await svc.jobs()
            open_jobs = sum(
                1 for v in views if v.state not in TERMINAL_STATES
            )
            return 200, {"ok": True, "jobs": len(views), "open": open_jobs}
        return 404, {"error": f"no route for {method} {path}"}

    async def _result(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        view = await self.service.status(job_id)
        if view.state == FAILED:
            return 409, {"state": view.state, "error": view.error}
        if view.state not in TERMINAL_STATES:
            return 202, {"state": view.state}
        result = await self.service.result(job_id)
        if result is None:  # cancelled before producing anything
            return 409, {"state": view.state, "error": "job was cancelled"}
        payload = result_to_json(result)
        payload["job"] = view.to_json()
        return 200, payload


def _parse_body(raw: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    return payload


async def serve(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8787,
    max_workers: int = 2,
) -> ServiceServer:
    """Construct, start, and return a ready server (caller owns close)."""
    service = AnalysisService(store_root, max_workers=max_workers)
    server = ServiceServer(service, host=host, port=port)
    await server.start()
    return server
