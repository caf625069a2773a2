"""Work-stealing fleet dispatcher: locality routing, bounded leases,
exactly-once re-queue.

The :class:`FleetDispatcher` replaces the local
:class:`~repro.service.scheduler.BatchScheduler` inside a coordinator
(``repro serve --fleet``).  Instead of a process pool it feeds
registered worker nodes through a **pull** protocol:

1. **routing** — a pump thread drains the central
   :class:`~repro.service.jobs.JobQueue` into per-node queues, keyed by
   each job's locality key (trace signature) under rendezvous hashing
   (:meth:`NodeRegistry.route`): grid neighbours land on the same node,
   keeping its trace memo warm.  Routed jobs stay in
   the QUEUED state — they are *waiting at a node*, not running.
2. **leasing** — a worker's ``POST /fleet/lease`` takes a batch from
   its own queue; an idle worker **steals from the tail of the deepest
   other queue** (the tail is the cold end — the owner consumes from
   the head, so stolen work is the least locality-profitable).  Leased
   jobs go RUNNING under a deadline of ``lease_s × points`` plus a
   heartbeat of margin.
3. **completion** — ``POST /fleet/complete`` resolves each job.  The
   worker has already written every simulated result into the shared
   sharded store, so the coordinator reads blobs *through the store*
   (read-through replication); a wire-borne pickle is only a fallback.
   Reports for jobs that already finished elsewhere are counted as
   stale and dropped — never double-completed.
4. **failure** — a lease whose deadline passes, or whose node dies
   (three missed heartbeats), is revoked: the lease is popped *first*,
   then its unfinished jobs are re-queued — the pop is what makes the
   re-queue exactly-once, because expiry, node death, and late
   completion all race for the same lease entry and only one can win.

The surface (``start``/``stop``/``kick``/``inflight``/``idle``) matches
the local scheduler, so :class:`~repro.service.server.ServiceServer`
swaps one for the other and every HTTP endpoint behaves identically.
"""

from __future__ import annotations

import base64
import itertools
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.service.jobs import Job, JobQueue
from repro.service.metrics import ServiceMetrics
from repro.fleet.registry import NodeRegistry, lease_budget

#: slack added to every lease deadline, so a healthy worker is never
#: revoked over scheduling jitter on the last point of its batch.
LEASE_MARGIN_S = 1.0


@dataclass
class Lease:
    """One outstanding batch of jobs at one worker node."""

    lease_id: str
    node_id: str
    jobs: List[Job] = field(repr=False, default_factory=list)
    deadline: float = 0.0
    created_at: float = 0.0


class FleetDispatcher:
    """Routes queued jobs to worker nodes and polices their leases."""

    def __init__(self, queue: JobQueue,
                 registry: Optional[NodeRegistry] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 batch_size: int = 4, max_retries: int = 2,
                 lease_s: Optional[float] = None,
                 poll_s: float = 0.05) -> None:
        self.queue = queue
        self.registry = registry if registry is not None else NodeRegistry()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.batch_size = max(1, batch_size)
        self.max_retries = max_retries
        self.lease_s = lease_s if lease_s is not None else lease_budget()
        self.poll_s = poll_s
        self._routed: Dict[str, Deque[Job]] = {}
        self._leases: Dict[str, Lease] = {}
        self._lease_seq = itertools.count(1)
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._drain = False
        self._thread: Optional[threading.Thread] = None

    # -- scheduler-compatible surface --------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("dispatcher already started")
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-fleet-dispatcher",
                                        daemon=True)
        self._thread.start()

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> bool:
        """Stop the pump.  ``drain=True`` waits for outstanding work;
        ``drain=False`` fails every queued, routed, and leased job with
        a ``shutdown`` error.  Returns whether the pump thread exited
        within *timeout*."""
        self._drain = drain
        self._stop.set()
        self._wake.set()
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def kick(self) -> None:
        self._wake.set()

    @property
    def inflight(self) -> int:
        """Points currently leased to worker nodes."""
        with self._lock:
            return sum(len(lease.jobs) for lease in self._leases.values())

    @property
    def routed(self) -> int:
        """Points routed to a node queue but not yet leased."""
        with self._lock:
            return sum(len(dq) for dq in self._routed.values())

    @property
    def idle(self) -> bool:
        with self._lock:
            if self._leases or any(self._routed.values()):
                return False
        return self.queue.active == 0

    #: the local scheduler reports its pool width here; a fleet's width
    #: is however many nodes are alive right now.
    @property
    def workers(self) -> int:
        return max(1, len(self.registry))

    # -- pump thread -------------------------------------------------------

    def _loop(self) -> None:
        while True:
            self._police()
            self._route_pending()
            if self._stop.is_set():
                if not self._drain or self.idle:
                    break
            self._wake.wait(self.poll_s)
            self._wake.clear()
        self._finalize()

    def _police(self) -> None:
        """Reap dead nodes and expired leases; re-queue their jobs."""
        dead = self.registry.reap()
        now = time.monotonic()
        revoked: List[Lease] = []
        orphaned: List[Job] = []
        with self._lock:
            for info in dead:
                self.metrics.inc("fleet_node_failures")
                dq = self._routed.pop(info.node_id, None)
                if dq:
                    orphaned.extend(dq)
                for lease_id, lease in list(self._leases.items()):
                    if lease.node_id == info.node_id:
                        revoked.append(self._leases.pop(lease_id))
            for lease_id, lease in list(self._leases.items()):
                if now > lease.deadline:
                    self.metrics.inc("fleet_leases_expired")
                    revoked.append(self._leases.pop(lease_id))
        # routed-but-unleased jobs were never running: straight back to
        # the central heap for re-routing, no attempt charged.
        for job in orphaned:
            if not job.finished:
                self.queue.requeue(job)
        for lease in revoked:
            self._requeue_lease(lease)

    def _requeue_lease(self, lease: Lease) -> None:
        """Re-queue a revoked lease's unfinished jobs — exactly once,
        because the caller already popped the lease entry and every
        revocation path goes through that pop."""
        for job in lease.jobs:
            if job.finished:
                continue
            job.attempts += 1
            if job.attempts > self.max_retries:
                self.queue.fail(job, {
                    "type": "worker-crash",
                    "message": f"fleet lease revoked {job.attempts} "
                               f"time(s); retries exhausted"})
                continue
            self.metrics.inc("fleet_requeued")
            self.queue.requeue(job)

    def _route_pending(self) -> None:
        """Drain the central heap into per-node queues by locality."""
        if not self.registry.alive_ids():
            return  # no fleet yet; jobs wait in the central heap
        while True:
            batch = self.queue.take_batch(self.batch_size,
                                          mark_running=False)
            if not batch:
                return
            with self._lock:
                for job in batch:
                    if job.finished:
                        continue  # resolved while waiting (e.g. shutdown)
                    node_id = self.registry.route(job.spec.locality_key())
                    if node_id is None:
                        self.queue.requeue(job)
                        return
                    self._routed.setdefault(node_id,
                                            deque()).append(job)

    # -- worker protocol ---------------------------------------------------

    def lease(self, node_id: str,
              max_points: Optional[int] = None) -> Optional[dict]:
        """Serve a worker's lease request: own queue first, then steal
        from the tail of the deepest other queue.  Returns the wire
        lease document, or None when there is nothing to run."""
        if self.registry.get(node_id) is None:
            raise KeyError(node_id)
        self.registry.touch(node_id)
        self._route_pending()
        max_points = max_points or self.batch_size
        with self._lock:
            jobs = self._take_routed(node_id, max_points)
            if not jobs:
                jobs = self._steal(node_id, max_points)
            if not jobs:
                return None
            self.queue.mark_running(jobs)
            now = time.monotonic()
            budget = self.lease_s * len(jobs) + LEASE_MARGIN_S
            lease = Lease(lease_id=f"L{next(self._lease_seq):06d}",
                          node_id=node_id, jobs=jobs,
                          deadline=now + budget, created_at=now)
            self._leases[lease.lease_id] = lease
        self.metrics.inc("fleet_dispatched", len(jobs))
        return {
            "lease_id": lease.lease_id,
            "lease_s": self.lease_s,
            "jobs": [{"job_id": job.job_id,
                      "_timeout_s": job.timeout_s,
                      **job.spec.to_wire()} for job in jobs],
        }

    def _take_routed(self, node_id: str, max_points: int) -> List[Job]:
        dq = self._routed.get(node_id)
        jobs: List[Job] = []
        while dq and len(jobs) < max_points:
            job = dq.popleft()
            if not job.finished:
                jobs.append(job)
        return jobs

    def _steal(self, node_id: str, max_points: int) -> List[Job]:
        victim = None
        for other_id, dq in sorted(self._routed.items()):
            if other_id != node_id and dq and \
                    (victim is None or len(dq) > len(victim)):
                victim = dq
        if victim is None:
            return []
        self.metrics.inc("fleet_steals")
        jobs: List[Job] = []
        while victim and len(jobs) < max_points:
            job = victim.pop()  # tail: the cold end of the owner's queue
            if not job.finished:
                jobs.append(job)
        return jobs

    def complete(self, node_id: str, lease_id: str,
                 outcomes: List[dict]) -> dict:
        """Apply a worker's completion report.

        Every outcome names its job; a job that already reached a
        terminal state (its lease expired and a retry won the race) is
        counted as stale and left untouched.  Successful outcomes
        resolve with the result read through the sharded store —
        falling back to the wire pickle only if the blob is not (yet)
        visible."""
        self.registry.touch(node_id)
        with self._lock:
            lease = self._leases.pop(lease_id, None)
        if lease is None:
            self.metrics.inc("fleet_stale_reports")
        info = self.registry.get(node_id)
        applied = stale = 0
        for outcome in outcomes:
            job = self.queue.get(str(outcome.get("job_id")))
            if job is None or job.finished:
                stale += 1
                continue
            if outcome.get("ok"):
                result = self._load_result(job, outcome)
                if result is None:
                    self.queue.fail(job, {
                        "type": "fleet-lost-result",
                        "message": "worker reported success but the "
                                   "result is in no shard"})
                    continue
                if outcome.get("store_hit"):
                    self.metrics.inc("worker_store_hits")
                else:
                    self.metrics.inc("executed_points")
                self.queue.complete(job, result,
                                    float(outcome.get("elapsed_s", 0.0)))
                applied += 1
                if info is not None:
                    info.completed += 1
            else:
                error = outcome.get("error") or {
                    "type": "worker-error", "message": "unspecified"}
                if error.get("type") == "timeout":
                    self.metrics.inc("timeouts")
                self.queue.fail(job, error)
                if info is not None:
                    info.failed += 1
        if stale:
            self.metrics.inc("fleet_stale_reports", stale)
        self.kick()
        return {"applied": applied, "stale": stale}

    def _load_result(self, job: Job, outcome: dict):
        store = self.queue.store
        if store is not None:
            result = store.get(job.digest)
            if result is not None:
                return result
        blob = outcome.get("result_b64")
        if blob:
            try:
                return pickle.loads(base64.b64decode(blob))
            except (pickle.UnpicklingError, ValueError, EOFError,
                    TypeError):
                return None
        return None

    # -- shutdown ----------------------------------------------------------

    def _finalize(self) -> None:
        if self._drain:
            return
        shutdown_error = {"type": "shutdown",
                          "message": "service stopped before the job "
                                     "finished"}
        with self._lock:
            leased = [job for lease in self._leases.values()
                      for job in lease.jobs]
            self._leases.clear()
            routed = [job for dq in self._routed.values() for job in dq]
            self._routed.clear()
        for job in leased + routed:
            if not job.finished:
                self.queue.fail(job, shutdown_error)
        for batch in iter(lambda: self.queue.take_batch(64), []):
            for job in batch:
                if not job.finished:
                    self.queue.fail(job, shutdown_error)

    # -- reporting ---------------------------------------------------------

    def status(self) -> dict:
        """The ``GET /fleet/nodes`` document (also feeds the
        dashboard): per-node liveness, queue depths, leases."""
        with self._lock:
            depths = {nid: len(dq) for nid, dq in self._routed.items()}
            leases = [{"lease_id": lease.lease_id,
                       "node_id": lease.node_id,
                       "points": len(lease.jobs),
                       "age_s": round(time.monotonic() - lease.created_at,
                                      3)}
                      for lease in self._leases.values()]
        nodes = self.registry.snapshot()
        for node in nodes:
            node["routed"] = depths.get(node["node_id"], 0)
            node["leased"] = sum(entry["points"] for entry in leases
                                 if entry["node_id"] == node["node_id"])
        return {"nodes": nodes, "leases": leases,
                "routed_total": sum(depths.values())}
