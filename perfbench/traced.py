"""The per-layer run: one workload, traced, in one process.

Wrappers cannot reach spawned workers, so the traced pass runs the grid
with one job in this process (for ``fig10-service``: one service worker,
so only the client and server side are visible).  Three passes, each on
its own store and with every in-process cache cleared first:

1. *pool*: the workload as measured, with ``nproc`` jobs and only the
   executor's dispatch loop wrapped -- gives ``executor.busy_frac`` and
   ``executor.overhead_s``, the share of the pool's wall time spent
   outside point work (spawn, pickling, polling);
2. *traced*: one job, every layer hook installed;
3. *untraced*: the same one-job grid again -- the tracing overhead is
   the traced pass's wall time over this one's.

``fig10-warm`` runs all three against one store that an untraced pool
run filled first.  Records of all passes must be identical.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import campaign
import grid
from layers import Tracer


def clear_caches(store: Path) -> None:
    """Point this process at *store* and forget every in-process result
    and trace: the runner's memo, the executor's trace memo (both via
    ``clear_cache``) and ``trace.generate``'s own LRU cache."""
    from repro import trace
    from repro.harness import runner
    os.environ["REPRO_CACHE_DIR"] = str(store)
    runner.clear_cache()
    cache_clear = getattr(trace.generate, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


def run_pass(workload: str, mixes, jobs: int, store: Path):
    """One grid on *store* with *jobs* workers; returns
    (records, wall seconds, per-point elapsed or None, service /metrics)."""
    from repro.harness import executor
    executor.set_default_jobs(jobs)
    service = client = None
    if workload == "fig10-service":
        service = campaign.InProcessService(jobs)
        client = service.start()
    elapsed = metrics = None
    t0 = time.perf_counter()
    try:
        if service is None:
            records, _ = campaign.run_fig10(mixes)
        else:
            records, elapsed = campaign.run_service(mixes, client, store)
            metrics = client.metrics()
    finally:
        wall = time.perf_counter() - t0
        if service is not None:
            service.stop()
    campaign.reap_workers()
    return records, wall, elapsed, metrics


class CoreCounts:
    """Sums over every result the core layer returned in this pass."""

    def __init__(self) -> None:
        self.n = dict(instructions=0, cycles=0, fetches=0, squashed=0,
                      shelf=0, iq=0, l1d_hits=0, l1d_misses=0,
                      mshr_full=0)

    def add(self, _args, result) -> None:
        for sim in result if isinstance(result, list) else [result]:
            n, ev, cs = self.n, sim.events, sim.cache_stats
            n["instructions"] += sim.total_retired
            n["cycles"] += sim.cycles
            n["fetches"] += ev.fetches
            n["squashed"] += ev.squashed_instrs
            n["shelf"] += ev.renames_shelf
            n["iq"] += ev.renames_iq
            n["l1d_hits"] += cs["l1d"]["hits"]
            n["l1d_misses"] += cs["l1d"]["misses"]
            n["mshr_full"] += cs.get("l1d_mshr_full", 0)


def install_hooks(tracer: Tracer, core: CoreCounts, hits: list) -> None:
    """Wrap each layer's public entry points.  Targets that do not exist
    in this version of the program are skipped (``tracer.missing``)."""
    label = lambda args: grid.point_label(args)  # noqa: E731
    gang_label = lambda args: ";".join(  # noqa: E731
        grid.point_label(p) for p in args[0])
    w = tracer.wrap
    w("repro.experiments.fig10_stp:run", "experiments.run")
    w("repro.experiments.fig10_stp:mix_stp", "experiments.analysis")
    for module in ("repro.harness.executor", "repro.harness.runner"):
        w(f"{module}:simulate_point", "executor.point", point_of=label)
    w("repro.harness.executor:simulate_gang", "executor.gang",
      point_of=gang_label)
    for target in ("repro.harness.executor:generate", "repro.trace:generate",
                   "repro.trace.workloads:generate"):
        w(target, "trace.generate")
    w("repro.core.pipeline:Pipeline.run", "core.simulate", after=core.add)
    w("repro.core.gang:GangEngine.run", "core.simulate", after=core.add)
    for method in ("access_data", "access_inst"):
        w(f"repro.memory.hierarchy:MemoryHierarchy.{method}",
          "memory.access", keep=False)
    for method in ("lookup", "allocate"):
        w(f"repro.memory.mshr:MSHRFile.{method}", "memory.mshr",
          keep=False)
    w("repro.harness.cache:ResultStore.get", "cache.get",
      after=lambda _a, result: hits.append(result is not None))
    w("repro.harness.cache:ResultStore.put", "cache.put")
    w("repro.warehouse.index:Warehouse.ingest", "warehouse.ingest")
    w("repro.warehouse.index:Warehouse.campaign_mark", "warehouse.mark")
    w("repro.harness.campaign:Campaign.run", "service.campaign")
    w("repro.service.client:ServiceClient.submit_point", "service.submit")
    w("repro.service.client:ServiceClient.status", "service.poll")
    w("repro.service.client:ServiceClient.result", "service.result")


def traced_run(args) -> dict:
    workload, seed, nproc = args.workload, args.seed, args.jobs
    mixes, _, _ = campaign.get_ready("fig10-cold", nproc, seed)
    scratch = args.scratch
    stores = [scratch / name for name in ("pool", "traced", "untraced")]
    notes = []
    if workload == "fig10-warm":
        clear_caches(scratch / "warm")
        run_pass("fig10-cold", mixes, nproc, scratch / "warm")
        stores = [scratch / "warm"] * 3

    # 1. pool pass
    clear_caches(stores[0])
    pool = Tracer()
    point_s = []
    for module in ("repro.harness.runner", "repro.harness.executor"):
        pool.wrap_generator(f"{module}:run_points", "executor.run_points",
                            on_item=lambda item: point_s.append(item[2]))
    try:
        records, pool_wall, elapsed, _ = run_pass(workload, mixes, nproc,
                                                  stores[0])
    finally:
        pool.uninstall()
    if elapsed is None:
        elapsed, pool_wall = point_s, pool.total["executor.run_points"]
    reference = campaign.digest(records)

    # 2. traced pass
    clear_caches(stores[1])
    tracer, core, hits = Tracer(), CoreCounts(), []
    install_hooks(tracer, core, hits)
    try:
        records, traced_s, _, metrics = run_pass(workload, mixes, 1,
                                                 stores[1])
    finally:
        tracer.uninstall()
    if campaign.digest(records) != reference:
        notes.append("traced pass records differ from the pool pass")
    from repro import trace
    info = getattr(trace.generate, "cache_info", lambda: None)()

    # 3. untraced pass
    clear_caches(stores[2])
    records, untraced_s, _, _ = run_pass(workload, mixes, 1, stores[2])
    if campaign.digest(records) != reference:
        notes.append("untraced pass records differ from the pool pass")

    t, n = tracer, core.n
    unique = len(grid.unique_traces(mixes))
    if workload == "fig10-cold":
        if t.calls["trace.generate"] != unique:
            notes.append(f"trace.generate ran {t.calls['trace.generate']}"
                         f" times, the grid has {unique} unique traces")
        if info is not None and info.hits:
            notes.append(f"trace.generate's LRU served {info.hits} hits")
    if workload == "fig10-warm":
        if t.calls["core.simulate"] or not all(hits):
            notes.append(f"warm pass simulated: "
                         f"{t.calls['core.simulate']} core calls, "
                         f"{hits.count(False)} store misses")

    def ratio(a, b):
        return a / b if b else 0.0

    core_s = t.total["core.simulate"]
    jobs = min(nproc, len(elapsed)) or 1
    metrics = metrics or {}
    layer = {
        "trace.generate_s": t.total["trace.generate"],
        "trace.generate_calls": t.calls["trace.generate"],
        "core.simulate_s": core_s,
        "core.self_s": t.self_time["core.simulate"],
        "core.kips": ratio(n["instructions"], core_s) / 1000.0,
        "core.sim_cycles": n["cycles"],
        "core.squash_ratio": ratio(n["squashed"], n["fetches"]),
        "core.shelf_fraction": ratio(n["shelf"], n["shelf"] + n["iq"]),
        "memory.access_s": t.total["memory.access"],
        "memory.access_calls": t.calls["memory.access"],
        "memory.mshr_s": t.total["memory.mshr"],
        "memory.l1d_hit_ratio": ratio(n["l1d_hits"],
                                      n["l1d_hits"] + n["l1d_misses"]),
        "memory.mshr_full_retries": n["mshr_full"],
        "cache.get_s": t.total["cache.get"],
        "cache.get_calls": t.calls["cache.get"],
        "cache.hit_ratio": ratio(sum(hits), len(hits)),
        "cache.put_s": t.total["cache.put"],
        "cache.put_calls": t.calls["cache.put"],
        "warehouse.ingest_s": t.total["warehouse.ingest"],
        "warehouse.ingest_calls": t.calls["warehouse.ingest"],
        "warehouse.mark_s": t.total["warehouse.mark"],
        "executor.busy_frac": ratio(sum(elapsed), jobs * pool_wall),
        "executor.overhead_s": max(pool_wall - sum(elapsed) / jobs, 0.0),
        "service.submit_s": t.total["service.submit"],
        "service.polls_per_point": ratio(t.calls["service.poll"],
                                         len(records)),
        "service.latency_p50_s": metrics.get("latency_p50_s") or 0.0,
        "service.wait_s": t.self_time["service.campaign"],
        "experiments.analysis_s": t.total["experiments.analysis"],
        "tracing.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
    }
    env = campaign.environment(args)
    if args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        with args.spans.open("w") as fh:
            tracer.write_spans(fh, {"workload": workload, **env,
                                    "missing_hooks": tracer.missing})
    return {"layer": layer, "rollup": tracer.rollup(), "notes": notes,
            "attempted": len(records), "digest": reference, "env": env,
            "traced_s": traced_s, "untraced_s": untraced_s,
            "missing_hooks": tracer.missing}
