"""Job model and queue for the simulation service.

A :class:`JobSpec` is one simulation point in wire form — the same
(config, benchmarks, length, seed, stop) tuple the harness executor
runs, (de)serializable to JSON so it can cross the HTTP boundary and be
pickled into spawn workers.  A :class:`Job` wraps a spec with service
state: identity, priority, retry/timeout bookkeeping, and the final
result or structured error.

The :class:`JobQueue` orders jobs by priority (lower number first) and
FIFO within a priority, and deduplicates aggressively *before any worker
is touched*:

* **store dedup** — a point already in the persistent result store
  (:mod:`repro.harness.cache`) completes instantly as a cache hit;
* **in-flight dedup** — a point identical (same content digest) to a
  queued or running job becomes a *follower* of that primary job and is
  resolved, success or failure, the moment the primary is.

Digests are :func:`repro.harness.cache.point_digest` — the same digests
the store itself is keyed by, so service dedup, worker-side store
lookups, and direct ``runner`` invocations all agree on point identity.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import CoreConfig
from repro.core.stats import SimResult
from repro.harness.cache import ResultStore, point_digest
from repro.harness.configs import (base64_config, base128_config,
                                   shelf_config)
from repro.memory.hierarchy import HierarchyConfig
from repro.trace import BENCHMARK_NAMES

#: wire names accepted for the ``config`` field of a job payload.
NAMED_CONFIGS = ("base64", "shelf64", "base128")

_STOP_MODES = ("first", "all")


def config_from_wire(payload: dict) -> CoreConfig:
    """Build a :class:`CoreConfig` from a job payload.

    The ``config`` field is either a name from :data:`NAMED_CONFIGS`
    (modified by the optional ``threads``, ``steering``, ``optimistic``
    and ``memory_model`` fields, mirroring the ``run`` CLI) or a full
    ``dataclasses.asdict(CoreConfig)`` mapping as produced by
    :func:`config_to_wire`.  Raises :class:`ValueError` on anything
    malformed — the server maps that to HTTP 400.
    """
    value = payload.get("config", "shelf64")
    if isinstance(value, str):
        threads = int(payload.get("threads", 4))
        if value == "base64":
            cfg = base64_config(threads)
        elif value == "base128":
            cfg = base128_config(threads)
        elif value == "shelf64":
            cfg = shelf_config(
                threads, steering=payload.get("steering", "practical"),
                optimistic=bool(payload.get("optimistic", False)))
        else:
            raise ValueError(f"unknown config name {value!r} "
                             f"(expected one of {', '.join(NAMED_CONFIGS)})")
        memory_model = payload.get("memory_model", "relaxed")
        if memory_model != cfg.memory_model:
            cfg = replace(cfg, memory_model=memory_model)
        return cfg
    if isinstance(value, dict):
        fields = dict(value)
        hier = fields.pop("hierarchy", None)
        try:
            hierarchy = HierarchyConfig(**hier) if hier is not None \
                else HierarchyConfig()
            return CoreConfig(**fields, hierarchy=hierarchy)
        except TypeError as exc:
            raise ValueError(f"bad config fields: {exc}") from None
    raise ValueError("config must be a name or a config mapping")


def config_to_wire(config: CoreConfig) -> dict:
    """Full-fidelity wire form of a config (``asdict`` round trip)."""
    return asdict(config)


@dataclass(frozen=True)
class JobSpec:
    """One simulation point, in the exact shape the executor runs."""

    config: CoreConfig
    benchmarks: Tuple[str, ...]
    length: int
    seed: int = 0
    stop: str = "first"

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("need at least one benchmark")
        unknown = [b for b in self.benchmarks if b not in BENCHMARK_NAMES]
        if unknown:
            raise ValueError(f"unknown benchmark(s) {', '.join(unknown)}")
        if len(self.benchmarks) != self.config.num_threads:
            raise ValueError(
                f"{self.config.num_threads} thread(s) need "
                f"{self.config.num_threads} benchmark(s), "
                f"got {len(self.benchmarks)}")
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.stop not in _STOP_MODES:
            raise ValueError(f"stop must be one of {_STOP_MODES}, "
                             f"got {self.stop!r}")

    def point(self) -> Tuple[CoreConfig, Tuple[str, ...], int, int, str]:
        """The executor's ``PointSpec`` tuple."""
        return (self.config, self.benchmarks, self.length, self.seed,
                self.stop)

    def digest(self) -> str:
        """Content digest — identical to a direct store/runner digest."""
        return point_digest(*self.point())

    def point_key(self) -> str:
        """Warehouse point identity (salt-robust, unlike the digest)."""
        from repro.warehouse.index import point_key
        return point_key(self.config.label(), "+".join(self.benchmarks),
                         self.length, self.seed, self.stop)

    def to_wire(self) -> dict:
        return {
            "config": config_to_wire(self.config),
            "benchmarks": list(self.benchmarks),
            "length": self.length,
            "seed": self.seed,
            "stop": self.stop,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError("job payload must be a JSON object")
        benchmarks = payload.get("benchmarks")
        if isinstance(benchmarks, str):
            benchmarks = benchmarks.split(",")
        if not isinstance(benchmarks, (list, tuple)):
            raise ValueError("benchmarks must be a list (or a "
                             "comma-separated string)")
        try:
            length = int(payload.get("length", 4000))
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError):
            raise ValueError("length and seed must be integers") from None
        return cls(config=config_from_wire(payload),
                   benchmarks=tuple(str(b) for b in benchmarks),
                   length=length, seed=seed,
                   stop=str(payload.get("stop", "first")))


class JobState:
    """Job lifecycle states (plain strings — they go over the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One submitted job: a spec plus service-side state."""

    job_id: str
    spec: JobSpec
    digest: str
    priority: int = 0
    timeout_s: Optional[float] = None
    campaign: Optional[str] = None  #: analytics tag; not part of identity
    state: str = JobState.QUEUED
    attempts: int = 0           #: completed attempts that crashed a worker
    cached: bool = False        #: served from the store, no execution
    dedup_of: Optional[str] = None  #: primary job this one followed
    result: Optional[SimResult] = field(default=None, repr=False)
    elapsed_s: float = 0.0      #: worker simulation time (0 for cache hits)
    error: Optional[dict] = None
    submitted_at: float = 0.0   #: time.monotonic() stamps
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    followers: List["Job"] = field(default_factory=list, repr=False)
    done: threading.Event = field(default_factory=threading.Event,
                                  repr=False)

    @property
    def finished(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def status(self) -> dict:
        """JSON-safe status document (the ``GET /jobs/<id>`` body)."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "digest": self.digest,
            "priority": self.priority,
            "timeout_s": self.timeout_s,
            "campaign": self.campaign,
            "attempts": self.attempts,
            "cached": self.cached,
            "dedup_of": self.dedup_of,
            "error": self.error,
            "latency_s": self.latency_s,
        }

    def _finish(self, result: SimResult, elapsed: float,
                now: float) -> None:
        self.result = result
        self.elapsed_s = elapsed
        self.state = JobState.DONE
        self.finished_at = now
        self.done.set()

    def _fail(self, error: dict, now: float) -> None:
        self.error = error
        self.state = JobState.FAILED
        self.finished_at = now
        self.done.set()


class JobQueue:
    """Priority + FIFO job queue with digest dedup.

    Thread-safe: the HTTP handlers submit and read, the scheduler thread
    takes batches and resolves completions.  ``on_finish`` (if set) is
    invoked for *every* job reaching a terminal state — primaries,
    followers, and instant cache hits — and is the metrics hook.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 on_finish: Optional[Callable[["Job"], None]] = None) -> None:
        self.store = store
        self.on_finish = on_finish
        self._lock = threading.Lock()
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self.jobs: Dict[str, Job] = {}
        self._active_by_digest: Dict[str, Job] = {}
        self.cache_hits = 0   #: submissions served straight from the store
        self.dedup_hits = 0   #: submissions folded into an in-flight job

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec, priority: int = 0,
               timeout_s: Optional[float] = None,
               campaign: Optional[str] = None) -> Job:
        """Enqueue a spec; may complete it instantly (store hit) or fold
        it into an identical in-flight job (returned job is a follower).

        *campaign* is a pure analytics tag: completed jobs carrying one
        are marked under it in the warehouse index, so ``/campaigns``
        (and ``repro query --campaign``) can watch a sweep progress.  It
        never affects identity — two submissions of the same point under
        different campaigns still dedup to one simulation, and each is
        marked under its own tag.
        """
        digest = spec.digest()
        now = time.monotonic()
        with self._lock:
            job = Job(job_id=f"j{next(self._ids):06d}", spec=spec,
                      digest=digest, priority=priority, timeout_s=timeout_s,
                      campaign=campaign, submitted_at=now)
            self.jobs[job.job_id] = job
            primary = self._active_by_digest.get(digest)
            if primary is not None and not primary.finished:
                job.dedup_of = primary.job_id
                primary.followers.append(job)
                self.dedup_hits += 1
                return job
            if self.store is not None:
                cached = self.store.get(digest)
                if cached is not None:
                    job.cached = True
                    job._finish(cached, 0.0, now)
                    self.cache_hits += 1
                else:
                    self._active_by_digest[digest] = job
                    heapq.heappush(self._heap,
                                   (priority, next(self._seq), job))
            else:
                self._active_by_digest[digest] = job
                heapq.heappush(self._heap, (priority, next(self._seq), job))
        if job.finished:
            self._notify(job)
        return job

    def requeue(self, job: Job) -> None:
        """Put a job back (retry after a worker crash): same priority,
        new FIFO slot."""
        with self._lock:
            job.state = JobState.QUEUED
            heapq.heappush(self._heap,
                           (job.priority, next(self._seq), job))

    # -- consumption -------------------------------------------------------

    def take_batch(self, max_n: int) -> List[Job]:
        """Pop up to *max_n* compatible jobs and mark them running.

        Compatibility: identical priority and per-job timeout, so one
        worker batch has a single well-defined deadline and never mixes
        priorities.  Returns ``[]`` when the queue is empty.
        """
        now = time.monotonic()
        with self._lock:
            if not self._heap:
                return []
            batch = [heapq.heappop(self._heap)[2]]
            while self._heap and len(batch) < max_n:
                head = self._heap[0][2]
                if head.priority != batch[0].priority or \
                        head.timeout_s != batch[0].timeout_s:
                    break
                batch.append(heapq.heappop(self._heap)[2])
            for job in batch:
                job.state = JobState.RUNNING
                job.started_at = now
        return batch

    # -- resolution --------------------------------------------------------

    def complete(self, job: Job, result: SimResult,
                 elapsed: float) -> None:
        """Resolve a running job and all its followers with *result*."""
        now = time.monotonic()
        with self._lock:
            job._finish(result, elapsed, now)
            self._release(job)
            finished = [job] + self._resolve_followers(
                job, lambda f: f._finish(result, elapsed, now))
        for j in finished:
            self._notify(j)

    def fail(self, job: Job, error: dict) -> None:
        """Resolve a running job and all its followers with *error*."""
        now = time.monotonic()
        with self._lock:
            job._fail(error, now)
            self._release(job)
            finished = [job] + self._resolve_followers(
                job, lambda f: f._fail(error, now))
        for j in finished:
            self._notify(j)

    def _release(self, job: Job) -> None:
        if self._active_by_digest.get(job.digest) is job:
            del self._active_by_digest[job.digest]

    @staticmethod
    def _resolve_followers(job: Job, resolve) -> List[Job]:
        followers = list(job.followers)
        for f in followers:
            resolve(f)
        job.followers.clear()
        return followers

    def _notify(self, job: Job) -> None:
        self._mark_campaign(job)
        if self.on_finish is not None:
            self.on_finish(job)

    def _mark_campaign(self, job: Job) -> None:
        """Record a successfully finished job under its campaign tag in
        the warehouse (best-effort — analytics never fail a job)."""
        if job.campaign is None or job.state != JobState.DONE or \
                self.store is None:
            return
        wh = self.store.warehouse()
        if wh is None:
            return
        from repro.warehouse import WAREHOUSE_ERRORS
        try:
            wh.campaign_mark(job.campaign, job.digest,
                             key=job.spec.point_key())
        except WAREHOUSE_ERRORS:
            self.store.index_errors += 1

    # -- introspection -----------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self.jobs.get(job_id)

    @property
    def depth(self) -> int:
        """Jobs waiting for a worker (excludes running and followers)."""
        with self._lock:
            return len(self._heap)

    @property
    def active(self) -> int:
        """Primary jobs not yet terminal: queued, staged into a batch,
        running, or awaiting a retry.  (Followers resolve with their
        primary, so they never need counting separately.)"""
        with self._lock:
            return len(self._active_by_digest)
