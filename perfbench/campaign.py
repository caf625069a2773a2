"""One measured repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, so every repetition pays
interpreter start, imports, the simulator salt and opening the store, as
a user's ``repro experiments fig10`` does.  Modes:

* ``setup``: get ready to dispatch, then exit (extra ``setup_s`` samples);
* ``run``:   get ready, run the workload once, check its records;
* ``trace``: the per-layer run (see :func:`traced_run`).

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import grid  # noqa: E402  (needs the paths above)

WORKLOADS = ("fig10-cold", "fig10-warm", "fig10-service")


# -- getting ready ------------------------------------------------------------

class InProcessService:
    """A :class:`~repro.service.ServiceServer` on an ephemeral port, its
    event loop on a thread of this process."""

    def __init__(self, workers: int) -> None:
        from repro.service import ServiceServer
        self.server = ServiceServer(port=0, workers=workers)
        self.started = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self) -> None:
        import asyncio

        async def go():
            await self.server.start()
            self.started.set()
            await self.server.wait_closed()

        asyncio.run(go())

    def start(self):
        from repro.service import ServiceClient
        self.thread.start()
        if not self.started.wait(30):
            raise RuntimeError("service did not start")
        client = ServiceClient(f"http://127.0.0.1:{self.server.port}")
        client.healthz()
        return client

    def stop(self) -> None:
        self.server.request_shutdown()
        self.thread.join(60)


def get_ready(workload: str, jobs: int, seed: int):
    """Everything before the first point is dispatched: imports, the
    salt, the store and its warehouse, and for the service its server.
    Returns ``(mixes, service-or-None, client-or-None)``."""
    from repro.experiments import fig10_stp
    from repro.harness import cache, executor
    mixes = grid.mixes_for_seed(seed)
    # the program's Fig. 10 takes its mixes from this module attribute.
    fig10_stp.balanced_random_mixes = lambda *a, **k: list(mixes)
    cache.simulator_salt()
    store = cache.get_store()
    if store is not None:
        store.warehouse()
    executor.set_default_jobs(jobs)
    service = client = None
    if workload == "fig10-service":
        service = InProcessService(jobs)
        client = service.start()
    return mixes, service, client


# -- running the grid ---------------------------------------------------------

def run_fig10(mixes):
    """``fig10_stp.run`` on the default scale; returns (records, stp_err)
    with records read back through the runner's memo."""
    from repro.experiments import fig10_stp
    from repro.harness import runner
    result = fig10_stp.run(grid.SCALE)
    records = {}
    for point in grid.grid_points(mixes):
        config, benchmarks, length, seed, stop = point
        sim = runner.run_benchmark(config, benchmarks[0], length, seed) \
            if stop == "all" else \
            runner.run_mix(config, benchmarks, length, seed)
        records[grid.point_label(point)] = sim.as_record()
    return records, grid.stp_err_pp(result.findings)


#: the :meth:`SimResult.as_record` fields of a service result document.
RECORD_KEYS = ("cycles", "ipc", "threads", "events", "steering",
               "bpred_accuracy", "occupancy")


def run_service(mixes, client, store_dir: Path):
    """The grid as a :class:`~repro.harness.campaign.Campaign` through
    the service; returns (records, per-point elapsed seconds)."""
    from repro.harness.campaign import Campaign, CampaignPoint
    points = [CampaignPoint(grid.config_name(p[0]), *p)
              for p in grid.grid_points(mixes)]
    campaign = Campaign(store_dir / "campaign.jsonl", points,
                        tag="perfbench")
    done = campaign.run(service=client)
    records, elapsed = {}, []
    for point in points:
        rec = done[point.key]
        elapsed.append(rec.get("elapsed_s", 0.0))
        records[point.key] = {k: rec[k] for k in RECORD_KEYS}
    return records, elapsed


def run_workload(workload: str, mixes, client, store_dir: Path):
    if workload == "fig10-service":
        records, _ = run_service(mixes, client, store_dir)
        return records, grid.stp_err_from_records(mixes, records)
    return run_fig10(mixes)


# -- checking -----------------------------------------------------------------

def digest(records: dict) -> str:
    blob = json.dumps(sorted(records.items()), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def bad_points(records: dict, mixes) -> list:
    """Labels of grid points whose record is missing or malformed."""
    bad = []
    for point in grid.grid_points(mixes):
        label = grid.point_label(point)
        rec = records.get(label)
        ok = rec is not None and rec["cycles"] > 0 and \
            len(rec["threads"]) == len(point[1]) and \
            all(math.isfinite(t["cpi"]) and t["cpi"] > 0
                for t in rec["threads"])
        if ok and point[4] == "all":
            ok = all(t["retired"] == grid.LENGTH for t in rec["threads"])
        elif ok:
            ok = any(t["retired"] == grid.LENGTH for t in rec["threads"])
        if not ok:
            bad.append(label)
    return bad


def same(a: dict, b: dict) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def store_mismatches(records: dict, mixes) -> list:
    """Labels whose record differs from the result blob the store holds
    for the point -- for the service, a check of everything between the
    worker's result and the client's JSON document."""
    from repro.harness.cache import get_store, point_digest
    store = get_store()
    wrong = []
    for point in grid.grid_points(mixes):
        label = grid.point_label(point)
        blob = store.get(point_digest(*point))
        if blob is None or not same(blob.as_record(), records[label]):
            wrong.append(label)
    return wrong


def spot_check(records: dict, mixes) -> list:
    """Re-simulate the shortest mix point and the shortest reference
    point with a plain solo :class:`Pipeline` (no store, no pool, no
    gang) and return the labels whose records differ."""
    from repro.core.pipeline import Pipeline
    from repro.trace import generate
    points = {grid.point_label(p): p for p in grid.grid_points(mixes)}
    picks = [min((label for label in records if points[label][4] == stop),
                 key=lambda label: (records[label]["cycles"], label))
             for stop in ("first", "all")]
    wrong = []
    for label in picks:
        config, benchmarks, length, seed, stop = points[label]
        traces = [generate(b, length, seed + i)
                  for i, b in enumerate(benchmarks)]
        fresh = Pipeline(config, traces).run(stop=stop).as_record()
        if not same(fresh, records[label]):
            wrong.append(label)
    return wrong


def store_snapshot(store_dir: Path) -> dict:
    """(inode, mtime) of every result blob: a re-written blob means the
    point was simulated, not served from the store."""
    out = {}
    for path in store_dir.glob("*/*.pkl"):
        st = path.stat()
        out[str(path)] = (st.st_ino, st.st_mtime_ns)
    return out


def reap_workers(deadline_s: float = 30.0) -> None:
    """Wait for every worker process this interpreter started, so their
    CPU time and peak memory land in ``RUSAGE_CHILDREN``."""
    end = time.monotonic() + deadline_s
    while multiprocessing.active_children() and time.monotonic() < end:
        time.sleep(0.02)


def usage() -> tuple:
    """(CPU seconds, peak RSS MiB) of this process and its reaped
    workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def environment(args) -> dict:
    from repro.harness.cache import simulator_salt
    return {"nproc": os.cpu_count(), "jobs": args.jobs,
            "python": sys.version.split()[0], "commit": args.commit,
            "seed": args.seed, "salt": simulator_salt()}


# -- modes --------------------------------------------------------------------

def measured_run(args) -> dict:
    mixes, service, client = get_ready(args.workload, args.jobs, args.seed)
    out = {"ready_at": time.time()}
    store_dir = Path(os.environ["REPRO_CACHE_DIR"])
    if args.mode == "setup":
        if service is not None:
            service.stop()
        return out
    before = store_snapshot(store_dir) if args.expect_hits else None
    t0 = time.perf_counter()
    try:
        records, stp_err = run_workload(args.workload, mixes, client,
                                        store_dir)
        out["campaign_s"] = time.perf_counter() - t0
    finally:
        # a service outlives its campaigns: stopping it is not timed.
        if service is not None:
            service.stop()
    reap_workers()
    out["cpu_s"], out["peak_rss_mb"] = usage()
    failed = {label: "malformed record"
              for label in bad_points(records, mixes)}
    for label in store_mismatches(records, mixes):
        failed.setdefault(label, "differs from the store")
    if args.spot_check:
        for label in spot_check(records, mixes):
            failed.setdefault(label, "differs from a fresh solo simulation")
    notes = [f"{label}: {why}" for label, why in failed.items()]
    n_failed = len(failed)
    if before is not None:
        after = store_snapshot(store_dir)
        simulated = sum(after.get(k) != v for k, v in before.items()) + \
            len(after.keys() - before.keys())
        if simulated:
            notes.append(f"{simulated} points simulated, not store hits")
            n_failed += simulated
    if args.workload != "fig10-service":
        again = grid.stp_err_from_records(mixes, records)
        if abs(again - stp_err) > 1e-9:
            notes.append(f"stp_err_pp from records {again} != {stp_err}")
            n_failed += 1
    out.update(digest=digest(records), stp_err_pp=stp_err,
               attempted=len(records), failed=min(n_failed, len(records)),
               notes=notes, env=environment(args))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--commit", default="unknown")
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--scratch", type=Path)
    ap.add_argument("--expect-hits", action="store_true")
    ap.add_argument("--spot-check", action="store_true")
    args = ap.parse_args()
    if args.mode == "trace":
        import traced
        out = traced.traced_run(args)
    else:
        out = measured_run(args)
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
