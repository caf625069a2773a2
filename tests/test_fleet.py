"""Tests for the sharded multi-node fleet (store shards, registry,
dispatcher, worker protocol, fault injection).

Every test mounts a throwaway sharded store via ``REPRO_FLEET_DIR`` so
routing, replication, and dedup are exercised against real shard
directories; the end-to-end tests run a real coordinator (asyncio HTTP
server) and real workers (in-process threads or ``python -m repro
worker`` subprocesses).
"""

import asyncio
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.pipeline import Pipeline
from repro.harness.cache import ResultStore, get_store, reset_store
from repro.harness.configs import shelf_config
from repro.harness.executor import execute_wire_batch, simulate_point
from repro.service.client import ServiceClient, ServiceError, backoff_delay
from repro.service.jobs import JobQueue, JobSpec, JobState
from repro.service.metrics import ServiceMetrics
from repro.service.server import ServiceServer
from repro.trace import generate
from repro.fleet import (FleetDispatcher, NodeRegistry, ShardedStore,
                         shard_index)
from repro.fleet.worker import WorkerNode

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fleet_store(tmp_path, monkeypatch):
    """A throwaway 3-shard fleet store mounted process-wide."""
    monkeypatch.setenv("REPRO_FLEET_DIR", str(tmp_path / "fleet"))
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "3")
    reset_store()
    yield get_store()
    reset_store()


def _spec(benchmark="ilp.int4", length=400, seed=0, threads=1,
          config=None):
    cfg = config if config is not None else shelf_config(threads)
    return JobSpec(config=cfg, benchmarks=(benchmark,) * threads,
                   length=length, seed=seed)


def _direct_record(spec: JobSpec) -> dict:
    traces = [generate(b, spec.length, spec.seed + i)
              for i, b in enumerate(spec.benchmarks)]
    return Pipeline(spec.config, traces).run(stop=spec.stop).as_record()


def _grid(n=6, length=400):
    """n grid points over one mix: shared traces, distinct configs."""
    specs = []
    for rob in range(32, 32 + 8 * n, 8):
        cfg = shelf_config(2)
        cfg = type(cfg)(**{**cfg.__dict__, "rob_entries": rob})
        specs.append(JobSpec(config=cfg,
                             benchmarks=("ilp.int4", "pchase.l2"),
                             length=length))
    return specs[:n]


# ---------------------------------------------------------------------------
# sharded store
# ---------------------------------------------------------------------------

class TestShardedStore:
    def test_get_store_mounts_sharded(self, fleet_store):
        assert isinstance(fleet_store, ShardedStore)
        assert len(fleet_store.shards) == 3

    def test_blob_on_exactly_one_shard(self, fleet_store):
        spec = _spec()
        result = simulate_point(*spec.point())
        digest = spec.digest()
        owners = [i for i, shard in enumerate(fleet_store.shards)
                  if digest in shard]
        assert owners == [shard_index(digest, 3)]
        assert fleet_store.get(digest).as_record() == result.as_record()

    def test_index_row_replicated_to_every_shard(self, fleet_store):
        spec = _spec()
        simulate_point(*spec.point())
        for shard in fleet_store.shards:
            wh = shard.warehouse()
            assert wh is not None and wh.row_count() == 1

    def test_bit_identical_to_flat_store(self, fleet_store, tmp_path):
        spec = _spec(benchmark="branchy.hard", length=500)
        via_fleet = simulate_point(*spec.point()).as_record()
        assert via_fleet == _direct_record(spec)
        # and the same digest keys both stores
        flat = ResultStore(tmp_path / "flat")
        flat.put(spec.digest(), fleet_store.get(spec.digest()))
        assert spec.digest() in flat

    def test_meta_routed(self, fleet_store):
        spec = _spec()
        simulate_point(*spec.point())
        meta = fleet_store.meta(spec.digest())
        assert meta is not None and meta["length"] == spec.length

    def test_gc_invalidates_every_replica(self, fleet_store):
        for seed in range(4):
            simulate_point(*_spec(seed=seed).point())
        assert len(fleet_store) == 4
        result = fleet_store.gc(0)
        assert result.removed == 4 and len(fleet_store) == 0
        for shard in fleet_store.shards:
            assert shard.warehouse().row_count() == 0

    def test_fleet_warehouse_broadcast_mark(self, fleet_store):
        spec = _spec()
        simulate_point(*spec.point())
        wh = fleet_store.warehouse()
        wh.campaign_begin("sweep", total=1)
        wh.campaign_mark("sweep", spec.digest())
        for shard in fleet_store.shards:
            status = shard.warehouse().campaign_status("sweep")
            assert status and status[0]["marked"] == 1

    def test_counters_aggregate(self, fleet_store):
        spec = _spec()
        assert fleet_store.get(spec.digest()) is None
        simulate_point(*spec.point())
        fleet_store.get(spec.digest())
        assert fleet_store.misses >= 1 and fleet_store.hits >= 1
        assert fleet_store.stats["disk_hits"] == fleet_store.hits


# ---------------------------------------------------------------------------
# registry + rendezvous routing
# ---------------------------------------------------------------------------

class TestNodeRegistry:
    def test_register_and_heartbeat(self):
        reg = NodeRegistry(heartbeat_s=10.0)
        info = reg.register("w1", jobs=2)
        assert reg.heartbeat(info.node_id)
        assert not reg.heartbeat("node-999")
        assert len(reg) == 1

    def test_reap_after_missed_heartbeats(self):
        reg = NodeRegistry(heartbeat_s=0.05)
        info = reg.register("w1")
        assert reg.alive_ids() == [info.node_id]
        time.sleep(0.2)  # > 3 * 0.05
        dead = reg.reap()
        assert [n.node_id for n in dead] == [info.node_id]
        assert len(reg) == 0

    def test_route_deterministic_across_registries(self):
        a, b = NodeRegistry(heartbeat_s=10), NodeRegistry(heartbeat_s=10)
        for reg in (a, b):
            for name in ("w1", "w2", "w3"):
                reg.register(name)
        keys = [f"mix{k}|400|0|first" for k in range(40)]
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]

    def test_route_spreads_and_stays_stable_under_churn(self):
        reg = NodeRegistry(heartbeat_s=10)
        ids = [reg.register(f"w{i}").node_id for i in range(3)]
        keys = [f"mix{k}|400|0|first" for k in range(60)]
        before = {k: reg.route(k) for k in keys}
        assert set(before.values()) == set(ids)  # every node gets keys
        newcomer = reg.register("w3").node_id
        moved = [k for k in keys if reg.route(k) != before[k]]
        # rendezvous: keys only move *to* the newcomer, never between
        # the survivors
        assert all(reg.route(k) == newcomer for k in moved)
        assert len(moved) < len(keys)

    def test_route_empty_fleet(self):
        assert NodeRegistry(heartbeat_s=10).route("anything") is None


# ---------------------------------------------------------------------------
# dispatcher: locality, stealing, leases, exactly-once re-queue
# ---------------------------------------------------------------------------

def _dispatcher(store, heartbeat_s=10.0, lease_s=30.0, **kw):
    metrics = ServiceMetrics()
    queue = JobQueue(store=store, on_finish=metrics.job_finished)
    reg = NodeRegistry(heartbeat_s=heartbeat_s)
    disp = FleetDispatcher(queue, registry=reg, metrics=metrics,
                           lease_s=lease_s, **kw)
    return disp, queue, reg, metrics


def _complete_lease(disp, node_id, lease):
    outcomes = execute_wire_batch(lease["jobs"])
    report = [{"job_id": w["job_id"], "ok": o["ok"],
               "elapsed_s": o.get("elapsed_s", 0.0),
               "store_hit": o.get("store_hit", False),
               "error": o.get("error")}
              for w, o in zip(lease["jobs"], outcomes)]
    return disp.complete(node_id, lease["lease_id"], report)


class TestFleetDispatcher:
    def test_locality_routing_groups_by_trace_signature(self, fleet_store):
        disp, queue, reg, _ = _dispatcher(fleet_store)
        n1 = reg.register("w1").node_id
        n2 = reg.register("w2").node_id
        specs = [_spec(benchmark="ilp.int4", seed=s) for s in range(4)] \
            + [_spec(benchmark="branchy.hard", seed=s) for s in range(4)]
        for spec in specs:
            queue.submit(spec)
        disp._route_pending()
        routed = {nid: [j.spec.locality_key() for j in dq]
                  for nid, dq in disp._routed.items() if dq}
        # each locality key lives on exactly one node's queue
        key_homes = {}
        for nid, keys in routed.items():
            for key in keys:
                assert key_homes.setdefault(key, nid) == nid
        assert sum(len(k) for k in routed.values()) == len(specs)
        assert set(routed) <= {n1, n2}

    def test_lease_serves_own_queue_then_steals(self, fleet_store):
        disp, queue, reg, metrics = _dispatcher(fleet_store)
        n1 = reg.register("w1").node_id
        n2 = reg.register("w2").node_id
        # one locality key (shared trace signature, varying configs)
        # -> all jobs route to a single owner
        for rob in (32, 48, 64, 80, 96, 112):
            cfg = shelf_config(1)
            cfg = type(cfg)(**{**cfg.__dict__, "rob_entries": rob})
            queue.submit(_spec(config=cfg))
        disp._route_pending()
        owner = next(nid for nid, dq in disp._routed.items() if dq)
        thief = n2 if owner == n1 else n1
        stolen = disp.lease(thief, 2)
        assert stolen is not None and len(stolen["jobs"]) == 2
        assert metrics.counters["fleet_steals"] == 1
        own = disp.lease(owner, 4)
        assert own is not None and len(own["jobs"]) == 4
        assert metrics.counters["fleet_steals"] == 1  # no steal needed

    def test_complete_resolves_jobs_through_store(self, fleet_store):
        disp, queue, reg, metrics = _dispatcher(fleet_store)
        node = reg.register("w1").node_id
        jobs = [queue.submit(spec) for spec in _grid(3)]
        lease = disp.lease(node, 8)
        assert len(lease["jobs"]) == 3
        report = _complete_lease(disp, node, lease)
        assert report == {"applied": 3, "stale": 0}
        for job in jobs:
            assert job.state == JobState.DONE
            assert job.result.as_record() == _direct_record(job.spec)
        assert disp.idle

    def test_unknown_node_lease_raises(self, fleet_store):
        disp, queue, reg, _ = _dispatcher(fleet_store)
        with pytest.raises(KeyError):
            disp.lease("node-404", 1)

    def test_lease_expiry_requeues_exactly_once(self, fleet_store):
        disp, queue, reg, metrics = _dispatcher(fleet_store,
                                                lease_s=0.01)
        node = reg.register("w1").node_id
        job = queue.submit(_spec())
        lease = disp.lease(node, 1)
        assert job.state == JobState.RUNNING
        time.sleep(1.2)  # past lease_s * 1 + LEASE_MARGIN_S
        disp._police()
        assert metrics.counters["fleet_leases_expired"] == 1
        assert metrics.counters["fleet_requeued"] == 1
        assert job.state == JobState.QUEUED and job.attempts == 1
        disp._police()  # idempotent: the lease entry is gone
        assert metrics.counters["fleet_requeued"] == 1
        # the point is re-leased and completes normally
        retry = disp.lease(node, 1)
        assert [w["job_id"] for w in retry["jobs"]] == [job.job_id]
        _complete_lease(disp, node, retry)
        assert job.state == JobState.DONE
        # the original (expired) lease reports late: stale, no recount
        late = _complete_lease(disp, node, lease)
        assert late["applied"] == 0 and late["stale"] == 1
        assert metrics.counters["jobs_completed"] == 1

    def test_dead_node_jobs_requeued_and_rerouted(self, fleet_store):
        disp, queue, reg, metrics = _dispatcher(fleet_store,
                                                heartbeat_s=0.05)
        doomed = reg.register("doomed").node_id
        job = queue.submit(_spec())
        lease = disp.lease(doomed, 1)
        assert lease is not None
        time.sleep(0.25)  # doomed misses 3 heartbeats
        disp._police()
        assert metrics.counters["fleet_node_failures"] == 1
        assert job.state == JobState.QUEUED and job.attempts == 1
        survivor = reg.register("survivor").node_id
        retry = disp.lease(survivor, 1)
        _complete_lease(disp, survivor, retry)
        assert job.state == JobState.DONE
        assert metrics.counters["jobs_completed"] == 1

    def test_retries_exhausted_fails_job(self, fleet_store):
        disp, queue, reg, metrics = _dispatcher(fleet_store,
                                                lease_s=0.01,
                                                max_retries=0)
        node = reg.register("w1").node_id
        job = queue.submit(_spec())
        disp.lease(node, 1)
        time.sleep(1.2)
        disp._police()
        assert job.state == JobState.FAILED
        assert job.error["type"] == "worker-crash"


# ---------------------------------------------------------------------------
# end-to-end: coordinator + worker over HTTP
# ---------------------------------------------------------------------------

class _Coordinator:
    """A fleet-mode ServiceServer on an ephemeral port, in a thread."""

    def __init__(self, **kw):
        kw.setdefault("fleet", True)
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
        assert self.started.wait(10), "coordinator did not start"
        return ServiceClient(f"http://127.0.0.1:{self.server.port}")

    def __exit__(self, *exc):
        self.server.request_shutdown()
        self.thread.join(60)
        assert not self.thread.is_alive(), "coordinator did not drain"


class TestFleetEndToEnd:
    def test_campaign_through_fleet_is_bit_identical(self, fleet_store):
        specs = _grid(5)
        references = {s.digest(): _direct_record(s) for s in specs}
        with _Coordinator(dashboard=True) as client:
            url = f"http://127.0.0.1:{client.port}"
            node = WorkerNode(url, name="t-worker", max_points=3)
            runner = threading.Thread(
                target=lambda: node.run(idle_exit_s=1.0), daemon=True)
            runner.start()
            job_ids = [client.submit(s, campaign="fleet-e2e")["job_id"]
                       for s in specs]
            for job_id in job_ids:
                client.wait(job_id, timeout_s=60)
            for job_id, spec in zip(job_ids, specs):
                doc = client.result(job_id)
                record = dict(doc["record"])
                record.pop("elapsed_s")
                assert record == references[spec.digest()]
            metrics = client.metrics()
            assert metrics["fleet"]["nodes"] == 1
            assert metrics["fleet_dispatched"] >= 1
            nodes = client.fleet_nodes()["nodes"]
            assert nodes[0]["name"] == "t-worker"
            assert nodes[0]["completed"] >= 1
            campaigns = client.campaigns()
            mine = [c for c in campaigns if c["name"] == "fleet-e2e"]
            assert mine and mine[0]["service"]["completed"] == len(specs)
            # the warehouse aggregated the campaign fleet-wide
            assert mine[0].get("marked") == len(specs)
            node.stop()
            runner.join(10)
        # every result blob really landed in the sharded store
        for digest in references:
            assert fleet_store.get(digest) is not None

    def test_fleet_dedup_and_cache_hits(self, fleet_store):
        spec = _spec()
        simulate_point(*spec.point())  # pre-warm the sharded store
        with _Coordinator() as client:
            status = client.submit(spec)
            assert status["state"] == "done" and status["cached"]

    def test_dashboard_served(self, fleet_store):
        with _Coordinator(dashboard=True) as client:
            import http.client
            conn = http.client.HTTPConnection(client.host, client.port,
                                              timeout=10)
            conn.request("GET", "/dashboard")
            resp = conn.getresponse()
            body = resp.read().decode()
            assert resp.status == 200
            assert resp.getheader("Content-Type").startswith("text/html")
            assert "repro service dashboard" in body
            assert "/fleet/nodes" in body
            conn.close()

    def test_dashboard_absent_unless_enabled(self, fleet_store):
        with _Coordinator(dashboard=False) as client:
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/dashboard")
            assert err.value.status == 404

    def test_fleet_routes_404_without_fleet_mode(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        reset_store()
        try:
            with _Coordinator(fleet=False) as client:
                with pytest.raises(ServiceError) as err:
                    client.fleet_nodes()
                assert err.value.status == 404
        finally:
            reset_store()


# ---------------------------------------------------------------------------
# fault injection: kill a worker subprocess mid-batch
# ---------------------------------------------------------------------------

class TestWorkerKill:
    def _spawn_worker(self, url, name, env, crash_token=None):
        child_env = dict(env)
        if crash_token is not None:
            child_env["REPRO_FLEET_CRASH_ONCE"] = str(crash_token)
        else:
            child_env.pop("REPRO_FLEET_CRASH_ONCE", None)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect", url,
             "--name", name, "--max-points", "3", "--idle-exit", "1.5"],
            env=child_env, cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)

    def test_worker_killed_mid_batch_loses_no_jobs(self, fleet_store,
                                                   tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_HEARTBEAT_S", "0.2")
        monkeypatch.setenv("REPRO_FLEET_LEASE_S", "0.2")
        specs = _grid(4, length=300)
        references = {s.digest(): _direct_record(s) for s in specs}
        crash_token = tmp_path / "crash-once"
        crash_token.write_text("boom")
        env = {**os.environ,
               "PYTHONPATH": str(REPO_ROOT / "src"),
               "REPRO_FLEET_HEARTBEAT_S": "0.2",
               "REPRO_FLEET_LEASE_S": "0.2"}
        with _Coordinator() as client:
            url = f"http://127.0.0.1:{client.port}"
            job_ids = [client.submit(s, campaign="kill-test")["job_id"]
                       for s in specs]
            doomed = self._spawn_worker(url, "doomed", env,
                                        crash_token=crash_token)
            assert doomed.wait(timeout=60) == 3  # died via os._exit(3)
            assert not crash_token.exists()
            rescuer = self._spawn_worker(url, "rescuer", env)
            try:
                for job_id in job_ids:
                    client.wait(job_id, timeout_s=90)
            finally:
                rescuer.wait(timeout=60)
            # zero jobs lost, zero double counts, results bit-identical
            for job_id, spec in zip(job_ids, specs):
                doc = client.result(job_id)
                record = dict(doc["record"])
                record.pop("elapsed_s")
                assert record == references[spec.digest()]
            metrics = client.metrics()
            assert metrics["jobs_completed"] == len(specs)
            assert metrics["jobs_failed"] == 0
            # /metrics attributes the failure to the fleet
            assert metrics["fleet_requeued"] >= 1
            assert metrics["fleet_node_failures"] + \
                metrics["fleet_leases_expired"] >= 1


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

    def test_http_errors_never_retry(self, fleet_store):
        with _Coordinator() as client:
            client.retries = 3
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/no-such-endpoint")
            assert err.value.status == 404
            assert client.retry_log == []
