"""Batching scheduler: feeds queued jobs to a worker process fleet.

The :class:`BatchScheduler` owns a spawn-context
:class:`~concurrent.futures.ProcessPoolExecutor` and runs a small
control loop on a background thread:

1. **batching** — compatible pending jobs (same priority and timeout,
   see :meth:`repro.service.jobs.JobQueue.take_batch`) are coalesced
   into one worker task, amortizing submit/pickle round trips and the
   spawn-import cost of cold workers;
2. **backpressure** — at most ``max_inflight`` batches are outstanding
   at once; everything else stays in the queue, visible as
   ``queue_depth``, so a burst of submissions can never oversubscribe
   the pool;
3. **timeouts** — each point runs under a ``SIGALRM`` interval timer in
   the worker; a point exceeding its budget fails with a structured
   ``{"type": "timeout"}`` error while the rest of its batch proceeds;
4. **retry with backoff** — a crashed worker (the pool reports
   :class:`~concurrent.futures.process.BrokenProcessPool`) fails only
   the affected batch: the pool is rebuilt and the batch's jobs are
   requeued after an exponential backoff, up to ``max_retries`` per job.

Workers simulate through
:func:`repro.harness.executor.execute_wire_batch`, so every completed
point lands in the persistent result store and is a
disk hit for every later request, service-side or not.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Set, Tuple

import multiprocessing

from repro import envvars
from repro.core.gang import gang_enabled
# PointTimeout and _alarm moved to the executor with the batch body;
# re-exported here because they are part of this module's historic API.
from repro.harness.executor import (PointTimeout, _alarm,  # noqa: F401
                                    execute_wire_batch, terminate_workers)
from repro.service.jobs import Job, JobQueue
from repro.service.metrics import ServiceMetrics

#: test-only fault injection: a path; when the file exists, the next
#: worker batch deletes it and kills its process with ``os._exit(3)``,
#: exercising the BrokenProcessPool retry path end to end.  Declared in
#: :mod:`repro.envvars` like every other ``REPRO_*`` knob.
CRASH_ONCE_ENV = "REPRO_SERVICE_CRASH_ONCE"


def _maybe_crash() -> None:
    token = envvars.raw(CRASH_ONCE_ENV)
    if token and os.path.exists(token):
        try:
            os.unlink(token)
        except OSError:
            pass
        os._exit(3)


def run_batch(wire_specs: List[dict]) -> List[dict]:
    """Worker entry point: simulate a batch of points.

    The execution body lives in
    :func:`repro.harness.executor.execute_wire_batch` (shared with the
    fleet worker's lease loop); this wrapper adds the service pool's
    crash-injection hook and keeps the historic
    ``repro.service.scheduler.run_batch`` name the spawn pool pickles.
    See :func:`~repro.harness.executor.execute_wire_batch` for the
    outcome-dict contract and the gang fast path.
    """
    _maybe_crash()
    return execute_wire_batch(wire_specs)


class BatchScheduler:
    """Pulls jobs off a :class:`JobQueue` and runs them on a process
    pool with batching, a bounded in-flight window, per-point timeouts,
    and crash retry.  Start with :meth:`start`; stop with :meth:`stop`.
    """

    def __init__(self, queue: JobQueue,
                 metrics: Optional[ServiceMetrics] = None,
                 workers: int = 1, batch_size: int = 4,
                 max_inflight: Optional[int] = None,
                 max_retries: int = 2, retry_backoff_s: float = 0.25,
                 default_timeout_s: Optional[float] = None,
                 poll_s: float = 0.02) -> None:
        if workers <= 0:
            workers = os.cpu_count() or 1
        self.queue = queue
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.workers = workers
        self.batch_size = max(1, batch_size)
        self.max_inflight = max_inflight if max_inflight else 2 * workers
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.default_timeout_s = default_timeout_s
        self.poll_s = poll_s
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[object, List[Job]] = {}
        self._deadlines: Dict[object, float] = {}
        self._abandoned: Set[object] = set()
        self._delayed: List[Tuple[float, int, Job]] = []
        self._delay_seq = itertools.count()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._drain = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-service-scheduler",
                                        daemon=True)
        self._thread.start()

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> bool:
        """Stop the control loop.

        ``drain=True`` finishes every queued and in-flight job first;
        ``drain=False`` fails outstanding jobs with a ``shutdown`` error
        and cancels whatever the pool has not started.  Returns whether
        the loop exited within *timeout*.
        """
        self._drain = drain
        self._stop.set()
        self._wake.set()
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def kick(self) -> None:
        """Wake the control loop early (called on submission)."""
        self._wake.set()

    @property
    def inflight(self) -> int:
        """Points currently running or pending inside the pool."""
        return sum(len(jobs) for fut, jobs in self._inflight.items()
                   if fut not in self._abandoned)

    @property
    def idle(self) -> bool:
        """No work anywhere — including jobs already popped from the
        queue but not yet registered in the in-flight table, which
        ``queue.active`` still counts (they hold their digest until
        resolved).  Drain decisions must use this, not queue depth."""
        return not self._inflight and not self._delayed and \
            self.queue.active == 0

    # -- pool management ---------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            ctx = multiprocessing.get_context("spawn")
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=ctx)
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            # terminate before shutdown(): shutdown nulls the pool's
            # process table, after which the workers can't be reached.
            terminate_workers(self._pool)
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        # abandoned futures belonged to the dead pool; forget them.
        self._abandoned.clear()

    # -- control loop ------------------------------------------------------

    def _loop(self) -> None:
        while True:
            self._reap()
            self._requeue_ready()
            if self._stop.is_set():
                if not self._drain or self.idle:
                    break
            self._fill()
            self._wake.wait(self.poll_s)
            self._wake.clear()
        self._finalize()

    def _finalize(self) -> None:
        if not self._drain:
            shutdown_error = {"type": "shutdown",
                              "message": "service stopped before the job "
                                         "finished"}
            for fut, jobs in list(self._inflight.items()):
                for job in jobs:
                    self.queue.fail(job, shutdown_error)
            self._inflight.clear()
            for _, _, job in self._delayed:
                self.queue.fail(job, shutdown_error)
            self._delayed.clear()
            for job in iter(lambda: self.queue.take_batch(64), []):
                for j in job:
                    self.queue.fail(j, shutdown_error)
        if self._pool is not None:
            if not self._drain:
                terminate_workers(self._pool)
            self._pool.shutdown(wait=self._drain, cancel_futures=True)
            self._pool = None

    def _fill(self) -> None:
        # gang=True biases each batch toward one trace signature so the
        # worker-side gang path gets whole gangs, not fragments.
        gang = gang_enabled()
        while len(self._inflight) < self.max_inflight:
            batch = self.queue.take_batch(self.batch_size, gang=gang)
            if not batch:
                return
            self._submit(batch)

    def _submit(self, batch: List[Job]) -> None:
        wire = []
        deadline = None
        for job in batch:
            timeout_s = job.timeout_s if job.timeout_s is not None \
                else self.default_timeout_s
            wire.append({**job.spec.to_wire(), "_timeout_s": timeout_s})
            if timeout_s is not None:
                budget = timeout_s * len(batch)
                deadline = time.monotonic() + budget + 5.0
        try:
            future = self._ensure_pool().submit(run_batch, wire)
        except (BrokenProcessPool, RuntimeError):
            # pool died between batches: rebuild once and retry the
            # submission; a second failure crashes the batch path below.
            self._discard_pool()
            future = self._ensure_pool().submit(run_batch, wire)
        self.metrics.inc("batches")
        self._inflight[future] = batch
        if deadline is not None:
            self._deadlines[future] = deadline

    def _reap(self) -> None:
        now = time.monotonic()
        for future, jobs in list(self._inflight.items()):
            if not future.done():
                deadline = self._deadlines.get(future)
                if deadline is not None and now > deadline and \
                        future not in self._abandoned:
                    # the in-worker alarm failed to fire (blocked signal,
                    # platform without SIGALRM): fail the jobs but leave
                    # the still-running future to finish into the void.
                    for job in jobs:
                        self.metrics.inc("timeouts")
                        self.queue.fail(job, {
                            "type": "timeout",
                            "message": "worker missed its deadline"})
                    self._abandoned.add(future)
                continue
            batch = self._inflight.pop(future)
            self._deadlines.pop(future, None)
            if future in self._abandoned:
                self._abandoned.discard(future)
                continue
            try:
                outcomes = future.result()
            except BrokenProcessPool:
                self._discard_pool()
                self.metrics.inc("worker_crashes")
                for job in batch:
                    self._retry_or_fail(job)
                continue
            # service boundary: an unexpected worker exception must become
            # a structured job failure, never kill the scheduler thread.
            except Exception as exc:  # repro-lint: disable=DET104
                for job in batch:
                    self.queue.fail(job, {"type": "worker-error",
                                          "message": repr(exc)})
                continue
            for job, outcome in zip(batch, outcomes):
                if outcome["ok"]:
                    if outcome["store_hit"]:
                        self.metrics.inc("worker_store_hits")
                    else:
                        self.metrics.inc("executed_points")
                    self.queue.complete(job, outcome["result"],
                                        outcome["elapsed_s"])
                else:
                    if outcome["error"].get("type") == "timeout":
                        self.metrics.inc("timeouts")
                    self.queue.fail(job, outcome["error"])

    def _retry_or_fail(self, job: Job) -> None:
        job.attempts += 1
        if job.attempts > self.max_retries:
            self.queue.fail(job, {
                "type": "worker-crash",
                "message": f"worker died {job.attempts} time(s); "
                           f"retries exhausted"})
            return
        self.metrics.inc("retries")
        delay = self.retry_backoff_s * (2 ** (job.attempts - 1))
        heapq.heappush(self._delayed,
                       (time.monotonic() + delay, next(self._delay_seq),
                        job))

    def _requeue_ready(self) -> None:
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            _, _, job = heapq.heappop(self._delayed)
            self.queue.requeue(job)
