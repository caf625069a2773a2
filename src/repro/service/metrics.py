"""Service observability: counters, rates, and latency quantiles.

One :class:`ServiceMetrics` instance is shared by the queue, the
scheduler, and the HTTP layer; :meth:`snapshot` renders the
``GET /metrics`` document.  Latency quantiles come from a bounded
reservoir of the most recent job latencies (submit → terminal state),
and ``jobs_per_sec`` is measured over a sliding window so an idle
service decays to zero instead of averaging over its whole uptime.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Optional

from repro.service.jobs import Job, JobQueue, JobState


def _quantile(sorted_values, q: float) -> Optional[float]:
    """Nearest-rank quantile of an ascending list (None when empty)."""
    if not sorted_values:
        return None
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


class ServiceMetrics:
    """Thread-safe counters and derived rates for the service."""

    def __init__(self, window_s: float = 60.0,
                 reservoir: int = 1024) -> None:
        self.window_s = window_s
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        self.counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "executed_points": 0,    #: simulations actually run by workers
            "worker_store_hits": 0,  #: points a worker served from disk
            "batches": 0,
            "retries": 0,
            "worker_crashes": 0,
            "timeouts": 0,
        }
        self._latencies: deque = deque(maxlen=reservoir)
        self._completions: deque = deque()  #: monotonic finish stamps
        #: per-campaign {submitted, completed, failed} counters, keyed
        #: by the analytics tag riding on submissions (see Job.campaign).
        self._campaigns: Dict[str, Dict[str, int]] = {}

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def _campaign(self, name: str) -> Dict[str, int]:
        return self._campaigns.setdefault(
            name, {"submitted": 0, "completed": 0, "failed": 0})

    def campaign_submitted(self, name: str) -> None:
        with self._lock:
            self._campaign(name)["submitted"] += 1

    def campaign_counters(self) -> Dict[str, Dict[str, int]]:
        """Copy of the per-campaign counters (the ``/campaigns`` feed)."""
        with self._lock:
            return {name: dict(c) for name, c in self._campaigns.items()}

    def job_finished(self, job: Job) -> None:
        """Record a job reaching a terminal state (the queue's
        ``on_finish`` hook)."""
        now = time.monotonic()
        with self._lock:
            if job.state == JobState.DONE:
                self.counters["jobs_completed"] += 1
            else:
                self.counters["jobs_failed"] += 1
            if job.campaign is not None:
                key = "completed" if job.state == JobState.DONE \
                    else "failed"
                self._campaign(job.campaign)[key] += 1
            if job.latency_s is not None:
                self._latencies.append(job.latency_s)
            self._completions.append(now)
            cutoff = now - self.window_s
            while self._completions and self._completions[0] < cutoff:
                self._completions.popleft()

    def snapshot(self, queue: JobQueue, inflight: int,
                 draining: bool = False) -> dict:
        """The ``GET /metrics`` document."""
        now = time.monotonic()
        with self._lock:
            counters = dict(self.counters)
            latencies = sorted(self._latencies)
            cutoff = now - self.window_s
            recent = sum(1 for t in self._completions if t >= cutoff)
            campaigns_tracked = len(self._campaigns)
        uptime = now - self.started_at
        window = min(self.window_s, uptime) or 1e-9
        submitted = counters["jobs_submitted"]
        served_from_cache = queue.cache_hits + queue.dedup_hits + \
            counters["worker_store_hits"]
        return {
            "uptime_s": uptime,
            "draining": draining,
            "queue_depth": queue.depth,
            "inflight": inflight,
            "jobs_per_sec": recent / window,
            "cache_hits": queue.cache_hits,
            "dedup_hits": queue.dedup_hits,
            "cache_hit_rate": (served_from_cache / submitted)
            if submitted else 0.0,
            "latency_p50_s": _quantile(latencies, 0.50),
            "latency_p95_s": _quantile(latencies, 0.95),
            "campaigns_tracked": campaigns_tracked,
            **counters,
        }
