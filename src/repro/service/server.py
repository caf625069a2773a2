"""Asyncio HTTP front end for the simulation service (stdlib only).

A deliberately small HTTP/1.1 server over :func:`asyncio.start_server`
streams — one request per connection, JSON in and out:

========================  ==================================================
``POST /jobs``            submit a point; 201 with the job status (which may
                          already be ``done`` on a store hit), 400 on a bad
                          payload, 429 when the queue is full, 503 while
                          draining.
``GET /jobs/<id>``        job status document.
``GET /jobs/<id>/result`` terminal document: the canonical result record
                          (:meth:`SimResult.as_record` + ``elapsed_s``) for
                          ``done`` jobs, the structured error for ``failed``
                          ones; 409 while the job is still in flight.
``GET /metrics``          queue depth, in-flight, cache hit rate, jobs/sec,
                          latency p50/p95, and every scheduler counter.
``GET /campaigns``        live per-campaign analytics: the service's
                          submitted/completed/failed counters merged with
                          the warehouse's completion counts and rolling
                          metric summaries (see :mod:`repro.warehouse`).
``GET /healthz``          liveness (+ ``draining`` flag).
========================  ==================================================

On SIGTERM/SIGINT the server stops accepting jobs (503), lets the
scheduler drain queued and in-flight work (bounded by
``drain_timeout_s``, after which outstanding jobs fail with a
``shutdown`` error), then closes the listener and returns — a clean
exit 0 for supervisors.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Optional, Tuple

from repro.harness.cache import get_store
from repro.service.jobs import JobQueue, JobSpec
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import BatchScheduler

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: request body cap — a full inline config is ~2 KB; 1 MB is generous.
MAX_BODY = 1 << 20


class ServiceServer:
    """The queue + scheduler + HTTP listener, wired together."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 1, batch_size: int = 4,
                 max_inflight: Optional[int] = None,
                 max_retries: int = 2, retry_backoff_s: float = 0.25,
                 default_timeout_s: Optional[float] = None,
                 max_queue_depth: int = 1024,
                 drain_timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.max_queue_depth = max_queue_depth
        self.drain_timeout_s = drain_timeout_s
        self.metrics = ServiceMetrics()
        self.queue = JobQueue(store=get_store(),
                              on_finish=self.metrics.job_finished)
        self.scheduler = BatchScheduler(
            self.queue, metrics=self.metrics, workers=workers,
            batch_size=batch_size, max_inflight=max_inflight,
            max_retries=max_retries, retry_backoff_s=retry_backoff_s,
            default_timeout_s=default_timeout_s)
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the scheduler thread."""
        self._loop = asyncio.get_running_loop()
        self.scheduler.start()
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin graceful drain; safe to call from any thread, and a
        no-op once the server has already drained and its loop closed."""
        if self._loop is None or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(self._begin_drain)
        except RuntimeError:
            pass  # loop closed between the check and the call

    def _begin_drain(self) -> None:
        self.draining = True
        self._shutdown.set()

    async def wait_closed(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and close."""
        await self._shutdown.wait()
        self.draining = True
        deadline = asyncio.get_running_loop().time() + self.drain_timeout_s
        while not self.scheduler.idle and \
                asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.05)
        # drained (or out of patience): a hard scheduler stop is now
        # either a no-op or the documented drain-timeout failure path.
        # stop() joins the scheduler thread — blocking, so off-loop.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.scheduler.stop(drain=False, timeout=5.0))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._respond(reader)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.TimeoutError, UnicodeDecodeError, ValueError):
            status, payload = 400, {"error": "malformed request"}
        body = json.dumps(payload).encode()
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        try:
            writer.write(head + body)
            await asyncio.wait_for(writer.drain(), 10.0)
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError, asyncio.TimeoutError):
            pass  # client went away or stopped reading; nothing to salvage

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Tuple[int, dict]:
        request_line = await asyncio.wait_for(reader.readline(), 10.0)
        parts = request_line.decode("ascii").split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await asyncio.wait_for(reader.readline(), 10.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length > MAX_BODY:
            return 413, {"error": "request body too large"}
        body = await asyncio.wait_for(reader.readexactly(content_length),
                                      10.0) if content_length else b""
        return self._route(method, path, body)

    # -- routing -----------------------------------------------------------

    def _route(self, method: str, path: str, body: bytes
               ) -> Tuple[int, dict]:
        if path == "/healthz" and method == "GET":
            return 200, {"status": "draining" if self.draining else "ok"}
        if path == "/metrics" and method == "GET":
            return 200, self.metrics.snapshot(
                self.queue, self.scheduler.inflight,
                draining=self.draining)
        if path == "/campaigns" and method == "GET":
            return 200, self._campaigns()
        if path == "/jobs" and method == "POST":
            return self._submit(body)
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.queue.get(job_id)
            if job is None:
                return 404, {"error": f"no such job {job_id!r}"}
            if tail == "":
                return 200, job.status()
            if tail == "result":
                return self._result(job)
            return 404, {"error": f"no such endpoint {path!r}"}
        return 404, {"error": f"no such endpoint {path!r}"}

    def _campaigns(self) -> dict:
        """The ``GET /campaigns`` document: this process's per-campaign
        submission counters merged with the warehouse's durable
        completion counts and rolling metric summaries."""
        counters = self.metrics.campaign_counters()
        statuses = {}
        store = self.queue.store
        wh = store.warehouse() if store is not None else None
        if wh is not None:
            from repro.warehouse import WAREHOUSE_ERRORS
            try:
                statuses = {s["name"]: s for s in wh.campaign_status()}
            except WAREHOUSE_ERRORS:
                statuses = {}
        campaigns = []
        for name in sorted(set(counters) | set(statuses)):
            campaigns.append({"name": name,
                              "service": counters.get(name),
                              **(statuses.get(name) or {})})
        return {"campaigns": campaigns}

    def _submit(self, body: bytes) -> Tuple[int, dict]:
        if self.draining:
            return 503, {"error": "service is draining"}
        if self.queue.depth >= self.max_queue_depth:
            return 429, {"error": "queue full",
                         "queue_depth": self.queue.depth}
        try:
            payload = json.loads(body.decode() or "{}")
            spec = JobSpec.from_wire(payload)
            priority = int(payload.get("priority", 0))
            timeout_s = payload.get("timeout_s")
            timeout_s = float(timeout_s) if timeout_s is not None else None
            campaign = payload.get("campaign")
            campaign = str(campaign) if campaign is not None else None
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            return 400, {"error": str(exc)}
        self.metrics.inc("jobs_submitted")
        if campaign is not None:
            self.metrics.campaign_submitted(campaign)
        job = self.queue.submit(spec, priority=priority,
                                timeout_s=timeout_s, campaign=campaign)
        self.scheduler.kick()
        return 201, job.status()

    @staticmethod
    def _result(job) -> Tuple[int, dict]:
        if not job.finished:
            return 409, {"error": "job not finished", "state": job.state}
        if job.result is None:
            return 200, {"job_id": job.job_id, "state": job.state,
                         "error": job.error}
        record = dict(job.result.as_record())
        record["elapsed_s"] = job.elapsed_s
        return 200, {"job_id": job.job_id, "state": job.state,
                     "cached": job.cached, "record": record}


async def run_server(**kwargs) -> int:
    """Start a server, install signal-driven drain, serve until stopped."""
    server = ServiceServer(**kwargs)
    await server.start()
    loop = asyncio.get_running_loop()
    for signame in ("SIGTERM", "SIGINT"):
        if hasattr(signal, signame):
            loop.add_signal_handler(getattr(signal, signame),
                                    server._begin_drain)
    print(f"repro service listening on "
          f"http://{server.host}:{server.port} "
          f"(workers={server.scheduler.workers}, "
          f"batch={server.scheduler.batch_size}, "
          f"window={server.scheduler.max_inflight})", flush=True)
    await server.wait_closed()
    print("repro service drained, exiting", flush=True)
    return 0


def serve(**kwargs) -> int:
    """Blocking entry point used by ``python -m repro serve``."""
    return asyncio.run(run_server(**kwargs))
