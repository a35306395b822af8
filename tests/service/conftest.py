"""Fixtures for the analysis-service tier.

The suite drives the asyncio service two ways:

* in-process — ``run_async`` executes a coroutine on a fresh event
  loop (the repo has no pytest-asyncio; plain ``asyncio.run`` keeps
  the tests dependency-free);
* over the wire — ``http_server`` runs a real :class:`ServiceServer`
  on an ephemeral port with its loop on a background thread, so the
  blocking :class:`HttpClient` exercises it like an external caller.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading

import pytest

from repro.service import AnalysisService, ServiceServer
from repro.service.store import PAYLOAD_SPLICE


def canonical_text(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_spliced(path, payload):
    """Write ``payload`` in ``put_result``'s layout, with a matching digest."""
    text = canonical_text(payload)
    header = json.dumps({
        "version": 1,
        "payload_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    })
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header[:-1]}{PAYLOAD_SPLICE}{text}}}")


def run_async(coro):
    """Run a coroutine to completion on a fresh event loop."""
    return asyncio.run(coro)


@pytest.fixture()
def service_factory(tmp_path):
    """Callable creating an (unstarted) service over a temp store."""

    def _make(max_workers: int = 2, subdir: str = "store") -> AnalysisService:
        return AnalysisService(str(tmp_path / subdir), max_workers=max_workers)

    return _make


class HttpFixture:
    """A live HTTP server plus the loop thread that runs it."""

    def __init__(self, store_root: str, max_workers: int = 2) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.server = self.call(self._boot(store_root, max_workers))
        self.port = self.server.port

    async def _boot(self, store_root: str, max_workers: int) -> ServiceServer:
        service = AnalysisService(store_root, max_workers=max_workers)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        await server.start()
        return server

    def call(self, coro):
        """Run a coroutine on the server's loop from the test thread."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout=120)

    def close(self) -> None:
        self.call(self.server.close())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture()
def http_server(tmp_path):
    fixture = HttpFixture(str(tmp_path / "store"))
    yield fixture
    fixture.close()
