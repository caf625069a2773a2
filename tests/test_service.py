"""Tests for the simulation service layer (queue, scheduler, server,
client).

Scheduler and server tests spawn real worker processes; each test gets
its own throwaway persistent store via ``REPRO_CACHE_DIR`` so nothing
leaks between tests (or into the developer's real store).
"""

import asyncio
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core.pipeline import Pipeline
from repro.harness.cache import get_store, point_digest, reset_store
from repro.harness.campaign import standard_campaign
from repro.harness.configs import base64_config, shelf_config
from repro.harness.executor import simulate_point
from repro.service.client import ServiceClient, ServiceError, backoff_delay
from repro.service.jobs import (JobQueue, JobSpec, JobState,
                                config_from_wire, config_to_wire)
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import CRASH_ONCE_ENV, BatchScheduler, run_batch
from repro.service.server import ServiceServer
from repro.trace import generate
from repro.trace.mixes import balanced_random_mixes

needs_sigalrm = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"),
    reason="per-point timeouts need SIGALRM")


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """A throwaway persistent store, inherited by spawn workers."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    reset_store()
    yield get_store()
    reset_store()


def _spec(benchmark="ilp.int4", length=400, seed=0, threads=1,
          config=None):
    cfg = config if config is not None else shelf_config(threads)
    return JobSpec(config=cfg, benchmarks=(benchmark,) * threads,
                   length=length, seed=seed)


def _direct_record(spec: JobSpec) -> dict:
    """Reference record: a plain Pipeline run — no store, no service."""
    traces = [generate(b, spec.length, spec.seed + i)
              for i, b in enumerate(spec.benchmarks)]
    return Pipeline(spec.config, traces).run(stop=spec.stop).as_record()


class _Service:
    """A ServiceServer on an ephemeral port, driven from a thread."""

    def __init__(self, **kw):
        kw.setdefault("workers", 1)
        self.server = ServiceServer(port=0, **kw)
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.started = threading.Event()

    def _run(self):
        async def go():
            await self.server.start()
            self.started.set()
            await self.server.wait_closed()

        asyncio.run(go())

    def __enter__(self) -> ServiceClient:
        self.thread.start()
        assert self.started.wait(10), "server did not start"
        return ServiceClient(f"http://127.0.0.1:{self.server.port}")

    def __exit__(self, *exc):
        self.server.request_shutdown()
        self.thread.join(60)
        assert not self.thread.is_alive(), "server did not drain"


# ---------------------------------------------------------------------------
# JobSpec / wire format
# ---------------------------------------------------------------------------

class TestJobSpec:
    def test_wire_roundtrip_inline_config(self):
        spec = _spec(threads=2, config=shelf_config(2, steering="oracle"))
        again = JobSpec.from_wire(spec.to_wire())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_digest_matches_store_digest(self):
        spec = _spec()
        assert spec.digest() == point_digest(*spec.point())

    def test_named_configs(self):
        cfg = config_from_wire({"config": "base64", "threads": 2})
        assert cfg == base64_config(2)
        cfg = config_from_wire({"config": "shelf64", "threads": 1,
                                "steering": "oracle", "optimistic": True})
        assert cfg.steering == "oracle" and cfg.shelf_same_cycle_issue
        cfg = config_from_wire({"config": "base128", "threads": 4,
                                "memory_model": "tso"})
        assert cfg.rob_entries == 128 and cfg.memory_model == "tso"

    @pytest.mark.parametrize("payload", [
        {"config": "nope", "benchmarks": ["ilp.int4"], "length": 100},
        {"config": "base64", "threads": 1, "benchmarks": ["spec.gcc"],
         "length": 100},
        {"config": "base64", "threads": 1, "benchmarks": [], "length": 100},
        {"config": "base64", "threads": 2, "benchmarks": ["ilp.int4"],
         "length": 100},
        {"config": "base64", "threads": 1, "benchmarks": ["ilp.int4"],
         "length": -5},
        {"config": "base64", "threads": 1, "benchmarks": ["ilp.int4"],
         "length": 100, "stop": "sometimes"},
        {"config": {"rob_entries": "lots"},
         "benchmarks": ["ilp.int4"], "length": 100},
        "not even an object",
    ])
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            JobSpec.from_wire(payload)


# ---------------------------------------------------------------------------
# JobQueue
# ---------------------------------------------------------------------------

class TestJobQueue:
    def test_priority_then_fifo(self):
        q = JobQueue()
        late = q.submit(_spec(seed=1), priority=5)
        first = q.submit(_spec(seed=2), priority=0)
        second = q.submit(_spec(seed=3), priority=0)
        batch = q.take_batch(8)
        # same priority batches together, FIFO; priority 5 stays queued
        assert [j.job_id for j in batch] == [first.job_id, second.job_id]
        assert q.take_batch(8) == [late]
        assert q.take_batch(8) == []

    def test_batch_splits_on_timeout(self):
        q = JobQueue()
        a = q.submit(_spec(seed=1), timeout_s=1.0)
        b = q.submit(_spec(seed=2), timeout_s=2.0)
        assert q.take_batch(8) == [a]
        assert q.take_batch(8) == [b]

    def test_inflight_dedup_resolves_followers(self):
        q = JobQueue()
        primary = q.submit(_spec())
        follower = q.submit(_spec())
        assert follower.dedup_of == primary.job_id
        assert q.depth == 1 and q.dedup_hits == 1
        [taken] = q.take_batch(8)
        result = object()
        q.complete(taken, result, 0.5)
        assert primary.state == JobState.DONE
        assert follower.state == JobState.DONE
        assert follower.result is result

    def test_failure_cascades_to_followers(self):
        q = JobQueue()
        q.submit(_spec())
        follower = q.submit(_spec())
        [taken] = q.take_batch(8)
        q.fail(taken, {"type": "worker-crash", "message": "boom"})
        assert follower.state == JobState.FAILED
        assert follower.error["type"] == "worker-crash"

    def test_store_hit_completes_instantly(self, fresh_store):
        spec = _spec()
        simulate_point(*spec.point())  # populate the store
        q = JobQueue(store=fresh_store)
        job = q.submit(spec)
        assert job.state == JobState.DONE and job.cached
        assert q.cache_hits == 1 and q.depth == 0


# ---------------------------------------------------------------------------
# Scheduler (worker pool, no HTTP)
# ---------------------------------------------------------------------------

class TestScheduler:
    def _scheduler(self, **kw):
        metrics = ServiceMetrics()
        queue = JobQueue(store=get_store(), on_finish=metrics.job_finished)
        kw.setdefault("workers", 1)
        kw.setdefault("retry_backoff_s", 0.05)
        return queue, BatchScheduler(queue, metrics=metrics, **kw), metrics

    def test_dedup_one_execution_bit_identical(self, fresh_store):
        """Two identical jobs -> one simulation, two results, both
        bit-identical to a direct Pipeline invocation of the point."""
        queue, sched, metrics = self._scheduler()
        spec = _spec(length=500)
        j1 = queue.submit(spec)
        j2 = queue.submit(spec)
        sched.start()
        try:
            assert j1.done.wait(120) and j2.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert j1.state == JobState.DONE and j2.state == JobState.DONE
        assert metrics.counters["executed_points"] == 1
        assert queue.dedup_hits == 1
        direct = _direct_record(spec)
        assert j1.result.as_record() == direct
        assert j2.result.as_record() == direct

    def test_worker_crash_retried_with_backoff(self, fresh_store,
                                               tmp_path, monkeypatch):
        token = tmp_path / "crash-once"
        token.touch()
        monkeypatch.setenv(CRASH_ONCE_ENV, str(token))
        queue, sched, metrics = self._scheduler()
        job = queue.submit(_spec(length=300))
        sched.start()
        try:
            assert job.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert job.state == JobState.DONE
        assert job.attempts == 1
        assert metrics.counters["worker_crashes"] >= 1
        assert metrics.counters["retries"] >= 1
        assert not token.exists()

    def test_crash_retries_exhausted_fails_job(self, fresh_store,
                                               tmp_path, monkeypatch):
        token = tmp_path / "crash-once"
        token.touch()
        monkeypatch.setenv(CRASH_ONCE_ENV, str(token))
        # zero retries: the single injected crash exhausts the budget
        queue, sched, metrics = self._scheduler(max_retries=0)
        job = queue.submit(_spec(length=300))
        sched.start()
        try:
            assert job.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert job.state == JobState.FAILED
        assert job.error["type"] == "worker-crash"

    def test_crash_mid_batch_loses_and_repeats_no_job(
            self, fresh_store, tmp_path, monkeypatch):
        """Six points over one mix in batches of four: the injected
        crash kills the first batch's worker mid-flight, yet every job
        finishes exactly once, byte-identical to a direct run."""
        token = tmp_path / "crash-once"
        token.touch()
        monkeypatch.setenv(CRASH_ONCE_ENV, str(token))
        queue, sched, metrics = self._scheduler(batch_size=4)
        finished = []

        def on_finish(job, record=queue.on_finish):
            finished.append(job.job_id)
            record(job)

        queue.on_finish = on_finish
        base = shelf_config(2)
        specs = [JobSpec(config=replace(base, rob_entries=32 + 8 * i),
                         benchmarks=("ilp.int4", "pchase.l2"), length=300)
                 for i in range(6)]
        jobs = [queue.submit(spec) for spec in specs]
        sched.start()
        try:
            for job in jobs:
                assert job.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert not token.exists()
        assert all(job.state == JobState.DONE for job in jobs)
        assert sorted(finished) == sorted(job.job_id for job in jobs)
        assert metrics.counters["jobs_completed"] == 6
        assert metrics.counters["jobs_failed"] == 0
        assert metrics.counters["worker_crashes"] >= 1
        assert metrics.counters["retries"] >= 1
        for job, spec in zip(jobs, specs):
            traces = [generate(b, spec.length, spec.seed + i)
                      for i, b in enumerate(spec.benchmarks)]
            direct = Pipeline(spec.config, traces).run(stop=spec.stop)
            assert pickle.dumps(job.result) == pickle.dumps(direct)

    @needs_sigalrm
    def test_timeout_surfaces_structured_error(self, fresh_store):
        queue, sched, metrics = self._scheduler()
        # far more work than 0.15s allows; the in-worker alarm aborts it
        slow = _spec(benchmark="pchase.mem", length=2_000_000)
        job = queue.submit(slow, timeout_s=0.15)
        ok = queue.submit(_spec(length=300))
        sched.start()
        try:
            assert job.done.wait(120) and ok.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert job.state == JobState.FAILED
        assert job.error["type"] == "timeout"
        assert metrics.counters["timeouts"] >= 1
        # the timed-out point must not poison the queue or the store
        assert ok.state == JobState.DONE
        assert fresh_store.get(slow.digest()) is None

    def test_batching_coalesces_points(self, fresh_store):
        queue, sched, metrics = self._scheduler(batch_size=4)
        jobs = [queue.submit(_spec(length=300, seed=s)) for s in range(4)]
        sched.start()
        try:
            for job in jobs:
                assert job.done.wait(120)
        finally:
            assert sched.stop(drain=True, timeout=30)
        assert all(j.state == JobState.DONE for j in jobs)
        # 4 distinct points, batch size 4, one worker: fewer batches
        # than points proves coalescing happened.
        assert metrics.counters["batches"] < 4
        assert metrics.counters["executed_points"] == 4

    def test_run_batch_mixed_outcomes(self, fresh_store):
        """One batch of untimed points, a timed point and a bad spec:
        every spec gets its own outcome, in order, and every result is
        byte-identical to a solo run."""
        base = shelf_config(1, steering="practical")
        wires = []
        for i in range(3):                   # untimed, one trace signature
            wires.append({"config": config_to_wire(
                replace(base, rob_entries=64 + 16 * i)),
                "benchmarks": ["ilp.int8"], "length": 120, "seed": 0,
                "stop": "first"})
        wires.append({"config": config_to_wire(base),  # another signature
                      "benchmarks": ["mixed.int"], "length": 120,
                      "seed": 0, "stop": "first"})
        wires.append({"config": config_to_wire(base),  # timed
                      "benchmarks": ["ilp.int8"], "length": 120, "seed": 3,
                      "stop": "first", "_timeout_s": 60.0})
        wires.append({"config": config_to_wire(base),  # bad spec
                      "benchmarks": ["no.such.bench"], "length": 120,
                      "seed": 0, "stop": "first"})

        out = run_batch(wires)
        assert len(out) == len(wires)
        for o in out[:5]:
            assert o["ok"], o
        assert not out[5]["ok"] and out[5]["error"]["type"] == "bad-spec"
        for o, wire in zip(out[:5], wires[:5]):
            solo = Pipeline(JobSpec.from_wire(wire).config,
                            [generate(wire["benchmarks"][0], wire["length"],
                                      wire["seed"])]).run(stop=wire["stop"])
            assert pickle.dumps(o["result"]) == pickle.dumps(solo)


# ---------------------------------------------------------------------------
# HTTP server + client
# ---------------------------------------------------------------------------

class TestServer:
    def test_end_to_end_submit_and_result(self, fresh_store):
        spec = _spec(length=500)
        with _Service() as client:
            assert client.healthz()["status"] == "ok"
            doc = client.run(spec.to_wire(), wait_timeout_s=120)
            assert doc["state"] == "done"
            record = dict(doc["record"])
            record.pop("elapsed_s")
            assert record == _direct_record(spec)
            # identical resubmission: served from the store, same record
            again = client.run(spec.to_wire(), wait_timeout_s=120)
            assert again["cached"]
            assert {k: v for k, v in again["record"].items()
                    if k != "elapsed_s"} == record
            metrics = client.metrics()
        assert metrics["jobs_submitted"] == 2
        assert metrics["executed_points"] == 1
        assert metrics["cache_hits"] == 1
        assert metrics["cache_hit_rate"] == 0.5
        assert metrics["jobs_per_sec"] > 0
        assert metrics["latency_p50_s"] is not None
        assert metrics["queue_depth"] == 0 and metrics["inflight"] == 0

    def test_validation_and_unknown_routes(self, fresh_store):
        with _Service() as client:
            with pytest.raises(ServiceError) as err:
                client.submit({"config": "base64", "threads": 1,
                               "benchmarks": ["spec.gcc"], "length": 100})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/jobs", payload=[1, 2, 3])
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.status("j999999")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/nope")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("PUT", "/jobs/j000001")
            assert err.value.status == 405

    def test_result_conflict_while_running(self, fresh_store):
        with _Service() as client:
            jid = client.submit(
                _spec(benchmark="pchase.mem", length=30_000).to_wire()
            )["job_id"]
            # asking for the result races the worker: either the job is
            # still in flight (409) or it already finished (200).
            try:
                doc = client.result(jid)
                assert doc["state"] == "done"
            except ServiceError as err:
                assert err.status == 409
            client.wait(jid, timeout_s=120)

    def test_drain_finishes_inflight_and_refuses_new(self, fresh_store):
        service = _Service()
        with service as client:
            jid = client.submit(
                _spec(benchmark="pchase.mem", length=60_000).to_wire()
            )["job_id"]
            service.server.request_shutdown()
            deadline = time.monotonic() + 5.0
            while not service.server.draining and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            assert client.healthz()["status"] == "draining"
            with pytest.raises(ServiceError) as err:
                client.submit(_spec(length=300, seed=9).to_wire())
            assert err.value.status == 503
        # __exit__ waited for the drain: the in-flight job finished
        # rather than being dropped.
        job = service.server.queue.get(jid)
        assert job.state == JobState.DONE

    def test_campaign_via_service(self, fresh_store, tmp_path):
        mixes = balanced_random_mixes()[:1]
        with _Service(workers=2, batch_size=2) as client:
            via = standard_campaign(tmp_path / "svc.jsonl", mixes,
                                    300).run(service=client)
        local = standard_campaign(tmp_path / "local.jsonl", mixes,
                                  300).run()

        def strip(records):
            return {k: {kk: vv for kk, vv in r.items() if kk != "elapsed_s"}
                    for k, r in records.items()}

        assert strip(via) == strip(local)
        # the service-side checkpoint file reloads cleanly
        reloaded = standard_campaign(tmp_path / "svc.jsonl", mixes, 300)
        assert reloaded.pending == []


# ---------------------------------------------------------------------------
# campaign analytics (warehouse integration)
# ---------------------------------------------------------------------------

class TestCampaignAnalytics:
    def test_campaign_tag_tracked_end_to_end(self, fresh_store):
        with _Service(workers=1) as client:
            jid = client.submit_point(shelf_config(1), ("ilp.int4",), 300,
                                      campaign="svc-sweep")
            client.wait(jid, timeout_s=120)
            status = client.status(jid)
            assert status["campaign"] == "svc-sweep"
            campaigns = client.campaigns()
            assert [c["name"] for c in campaigns] == ["svc-sweep"]
            doc = campaigns[0]
            assert doc["service"] == {"submitted": 1, "completed": 1,
                                      "failed": 0}
            assert doc["marked"] == 1 and doc["indexed"] == 1
            assert doc["mean_ipc"] > 0
            assert client.metrics()["campaigns_tracked"] == 1
        # the marks are durable: the warehouse remembers after shutdown
        wh = fresh_store.warehouse()
        assert len(wh.campaign_digests("svc-sweep")) == 1

    def test_cache_hit_still_marked(self, fresh_store):
        spec = _spec(length=300)
        simulate_point(*spec.point())  # pre-populate the store
        with _Service(workers=1) as client:
            jid = client.submit(spec.to_wire(), campaign="warm")["job_id"]
            client.wait(jid, timeout_s=60)
        wh = fresh_store.warehouse()
        assert wh.campaign_digests("warm") == [spec.digest()]

    def test_campaign_never_affects_identity(self, fresh_store):
        queue = JobQueue(store=fresh_store)
        spec = _spec(length=300)
        a = queue.submit(spec, campaign="one")
        b = queue.submit(spec, campaign="two")
        assert a.digest == b.digest
        assert b.dedup_of == a.job_id  # still dedups across campaigns

    def test_untagged_jobs_report_no_campaigns(self, fresh_store):
        with _Service(workers=1) as client:
            jid = client.submit_point(shelf_config(1), ("ilp.int4",), 300)
            client.wait(jid, timeout_s=120)
            assert client.campaigns() == []


# ---------------------------------------------------------------------------
# client backoff (deterministic jitter)
# ---------------------------------------------------------------------------

class TestClientBackoff:
    def test_backoff_deterministic_and_exponential(self):
        a = [backoff_delay(0.1, k, "w1") for k in range(5)]
        b = [backoff_delay(0.1, k, "w1") for k in range(5)]
        assert a == b
        for k, delay in enumerate(a):
            assert 0.05 * 2 ** k <= delay < 0.1 * 2 ** k

    def test_backoff_spreads_across_keys(self):
        delays = {backoff_delay(0.1, 3, f"w{i}") for i in range(8)}
        assert len(delays) == 8  # distinct keys -> distinct jitter

    def test_client_retries_connection_failures(self):
        client = ServiceClient("http://127.0.0.1:1", timeout_s=0.2,
                               retries=2, backoff_s=0.01)
        with pytest.raises(ServiceError):
            client.healthz()
        assert len(client.retry_log) == 2
        assert client.retry_log[1] > client.retry_log[0]

    def test_http_errors_never_retry(self, fresh_store):
        with _Service(workers=1) as client:
            client.retries = 3
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/no-such-endpoint")
            assert err.value.status == 404
            assert client.retry_log == []


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

def test_store_lookup_imports_no_service(tmp_path):
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "store"),
               PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys\n"
            "from repro.harness.cache import get_store\n"
            "assert get_store() is not None\n"
            "loaded = [m for m in sys.modules\n"
            "          if m.split('.')[:2] == ['repro', 'service']]\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
