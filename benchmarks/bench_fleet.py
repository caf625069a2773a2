"""Fleet bench: a cold-store grid campaign across 1 vs 3 worker nodes.

Runs the same 16-point campaign (4 mixes x 4 configs — four locality
keys, so the rendezvous router actually spreads work) four ways:

* ``local`` — serial in-process pipeline runs; the bit-identity
  reference and the no-service cost of the batch.
* ``pool`` — :func:`repro.harness.executor.run_points` with
  ``jobs=3`` from a cold store, pool spawn included: the local
  process-pool baseline the fleet has to beat.
* ``fleet1`` — an in-process fleet coordinator with one
  ``python -m repro worker`` subprocess, cold sharded store.
* ``fleet3`` — the same campaign against three worker subprocesses,
  again from a cold store.

A fifth round re-runs the campaign while the first worker is killed
mid-batch (``REPRO_FLEET_CRASH_ONCE``) and a rescuer finishes the
queue: the bench asserts zero lost jobs and at least one re-queue.

All rounds must produce bit-identical records (modulo ``elapsed_s``).
The 3-vs-1 speedup floor (``MIN_FLEET_SPEEDUP``) is only asserted on
machines with >= 3 CPUs at non-smoke scales — worker processes cannot
beat one worker on a single core, they can only pay extra HTTP and
process-scheduling overhead, so single-core runs gate correctness
(identity, zero loss) and record ``cpus`` in the report for
``scripts/check_fleet_regression.py`` to interpret.

Writes ``BENCH_fleet.json`` at the repo root.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.core.pipeline import Pipeline
from repro.harness import executor, runner
from repro.harness.cache import reset_store
from repro.harness.configs import shelf_config
from repro.service.jobs import JobSpec
from repro.trace import generate

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_service import _Service  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Four distinct trace signatures so the locality router has real work.
_MIXES = (("ilp.int8", "mixed.int"), ("branchy.hard", "pchase.l2"),
          ("stream.copy", "ilp.int4"), ("gather.small", "mixed.fp"))
_CONFIGS_PER_MIX = 4

#: 3-worker-vs-1-worker floor, asserted only with >= 3 CPUs at
#: non-smoke scales (see module docstring).
MIN_FLEET_SPEEDUP = 2.4
MIN_CPUS_FOR_SPEEDUP = 3

#: worker processes in the ``pool`` round (as many as the 3-node fleet).
POOL_JOBS = 3


def _grid(length):
    specs = []
    for m, mix in enumerate(_MIXES):
        for i in range(_CONFIGS_PER_MIX):
            cfg = replace(shelf_config(len(mix)),
                          rob_entries=64 + 16 * i)
            specs.append(JobSpec(config=cfg, benchmarks=mix,
                                 length=length, seed=7 + m))
    return specs


def _reference_records(specs):
    out = {}
    for spec in specs:
        traces = [generate(b, spec.length, spec.seed + i)
                  for i, b in enumerate(spec.benchmarks)]
        out[spec.digest()] = Pipeline(spec.config,
                                      traces).run(stop=spec.stop) \
            .as_record()
    return out


def _strip(record):
    return {k: v for k, v in record.items() if k != "elapsed_s"}


def _pool_round(store_dir, specs, monkeypatch):
    """The campaign through the local process pool from a cold store,
    pool spawn included; returns (elapsed_s, records)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(store_dir))
    monkeypatch.delenv("REPRO_FLEET_DIR", raising=False)
    runner.clear_cache()
    t0 = time.perf_counter()
    results = executor.map_points([spec.point() for spec in specs],
                                  jobs=POOL_JOBS)
    elapsed = time.perf_counter() - t0
    records = {spec.digest(): _strip(result.as_record())
               for spec, result in zip(specs, results)}
    return elapsed, records


def _spawn_worker(url, name, crash_token=None):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    if crash_token is not None:
        env["REPRO_FLEET_CRASH_ONCE"] = str(crash_token)
    else:
        env.pop("REPRO_FLEET_CRASH_ONCE", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", url,
         "--name", name, "--max-points", "4"],
        env=env, cwd=str(REPO_ROOT),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _wait_nodes(client, n, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        alive = [node for node in client.fleet_nodes()["nodes"]
                 if node["alive"]]
        if len(alive) >= n:
            return
        time.sleep(0.05)
    raise TimeoutError(f"{n} workers never registered")


def _fleet_round(store_dir, specs, n_workers, monkeypatch,
                 crash_token=None):
    """One cold-store campaign; returns (elapsed_s, records, metrics)."""
    monkeypatch.setenv("REPRO_FLEET_DIR", str(store_dir))
    reset_store()
    workers = []
    try:
        with _Service(fleet=True) as client:
            url = f"http://127.0.0.1:{client.port}"
            if crash_token is not None:
                # jobs first, so the doomed worker leases a real batch
                job_ids = [client.submit(s)["job_id"] for s in specs]
                doomed = _spawn_worker(url, "doomed",
                                       crash_token=crash_token)
                assert doomed.wait(timeout=120) == 3, \
                    "crash worker did not die via REPRO_FLEET_CRASH_ONCE"
                workers.append(_spawn_worker(url, "rescuer"))
                _wait_nodes(client, 1)
                t0 = time.perf_counter()
            else:
                workers = [_spawn_worker(url, f"w{i}")
                           for i in range(n_workers)]
                _wait_nodes(client, n_workers)
                t0 = time.perf_counter()
                job_ids = [client.submit(s)["job_id"] for s in specs]
            for job_id in job_ids:
                client.wait(job_id, timeout_s=600)
            elapsed = time.perf_counter() - t0
            records = {}
            for job_id, spec in zip(job_ids, specs):
                doc = client.result(job_id)
                records[spec.digest()] = _strip(doc["record"])
            metrics = client.metrics()
    finally:
        for proc in workers:
            proc.send_signal(signal.SIGTERM)
        for proc in workers:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
        reset_store()
    return elapsed, records, metrics


def test_fleet_campaign_scaling(benchmark, scale, tmp_path, monkeypatch):
    length = scale.instructions_per_thread
    specs = _grid(length)
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "4")
    monkeypatch.setenv("REPRO_FLEET_HEARTBEAT_S", "0.5")

    t0 = time.perf_counter()
    references = {d: _strip(r)
                  for d, r in _reference_records(specs).items()}
    local_s = time.perf_counter() - t0

    pool_s, pool_records = _pool_round(tmp_path / "pool", specs,
                                       monkeypatch)
    assert pool_records == references, "local pool diverged from local"

    fleet1_s, records1, _ = _fleet_round(tmp_path / "fleet1", specs, 1,
                                         monkeypatch)

    holder = {}

    def fleet3():
        holder["out"] = _fleet_round(tmp_path / "fleet3", specs, 3,
                                     monkeypatch)
        return holder["out"][1]

    benchmark.pedantic(fleet3, rounds=1, iterations=1)
    fleet3_s, records3, metrics3 = holder["out"]

    assert records1 == references, "1-worker fleet diverged from local"
    assert records3 == references, "3-worker fleet diverged from local"

    # fault-injection round: kill a worker mid-batch, lose nothing
    monkeypatch.setenv("REPRO_FLEET_LEASE_S", "0.5")
    crash_token = tmp_path / "crash-once"
    crash_token.write_text("boom")
    _, kill_records, kill_metrics = _fleet_round(
        tmp_path / "fleet-kill", specs, 1, monkeypatch,
        crash_token=crash_token)
    assert kill_records == references, "post-crash records diverged"
    jobs_lost = len(specs) - kill_metrics["jobs_completed"]
    assert jobs_lost == 0 and kill_metrics["jobs_failed"] == 0
    assert kill_metrics["fleet_requeued"] >= 1, \
        "the killed worker's lease was never re-queued"

    cpus = os.cpu_count() or 1
    speedup = round(fleet1_s / fleet3_s, 2)
    report = {
        "scale": scale.name,
        "cpus": cpus,
        "grid_points": len(specs),
        "instructions_per_thread": length,
        "mixes": ["+".join(m) for m in _MIXES],
        "local_s": round(local_s, 4),
        "pool_jobs": POOL_JOBS,
        "pool_s": round(pool_s, 4),
        "fleet1_s": round(fleet1_s, 4),
        "fleet3_s": round(fleet3_s, 4),
        "speedup_3v1": speedup,
        "bit_identical": True,
        "fleet3_dispatched": metrics3["fleet_dispatched"],
        "fleet3_steals": metrics3["fleet_steals"],
        "kill_jobs_lost": jobs_lost,
        "kill_requeued": kill_metrics["fleet_requeued"],
        "kill_node_failures": kill_metrics["fleet_node_failures"],
        "kill_leases_expired": kill_metrics["fleet_leases_expired"],
    }
    (REPO_ROOT / "BENCH_fleet.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nfleet campaign ({len(specs)} points, {cpus} cpus): "
          f"local {local_s:.2f}s, pool({POOL_JOBS}) {pool_s:.2f}s, "
          f"1 worker {fleet1_s:.2f}s, "
          f"3 workers {fleet3_s:.2f}s ({speedup:.2f}x 3v1); "
          f"kill round lost {jobs_lost} jobs, "
          f"requeued {kill_metrics['fleet_requeued']}")

    if scale.name != "smoke" and cpus >= MIN_CPUS_FOR_SPEEDUP:
        assert speedup >= MIN_FLEET_SPEEDUP, \
            f"3-worker speedup {speedup}x below the " \
            f"{MIN_FLEET_SPEEDUP}x bar on a {cpus}-cpu machine"
