"""Sharded multi-node fleet over the simulation service.

The fleet subsystem scales the single-server service layer
(:mod:`repro.service`) across worker nodes, stdlib-only:

* :mod:`repro.fleet.shards` — the content-addressed store sharded by
  digest prefix (:class:`ShardedStore`), with warehouse index rows
  replicated to every shard while blobs stay on exactly one;
* :mod:`repro.fleet.registry` — worker registration, heartbeats, and
  salt-stable rendezvous routing (:class:`NodeRegistry`);
* :mod:`repro.fleet.dispatch` — the coordinator's work-stealing
  dispatcher (:class:`FleetDispatcher`): locality routing to per-node
  queues, bounded leases, exactly-once re-queue of dead workers' jobs;
* :mod:`repro.fleet.worker` — the worker node process
  (:class:`WorkerNode`, ``repro worker --connect HOST:PORT``);
* :mod:`repro.fleet.dashboard` — the polling browser dashboard served
  at ``GET /dashboard`` (``repro serve --dashboard``).

Fleet topology is pure deployment state: results are bit-identical to
local runs, digests never see any ``REPRO_FLEET_*`` knob, and
dedup-by-digest holds fleet-wide because every node mounts the same
sharded store.
"""

from repro.fleet.dispatch import FleetDispatcher
from repro.fleet.registry import NodeInfo, NodeRegistry
from repro.fleet.shards import (FleetWarehouse, ShardedStore,
                                fleet_shard_count, shard_index)
from repro.harness.cache import fleet_dir
from repro.fleet.worker import WorkerNode

__all__ = [
    "FleetDispatcher",
    "FleetWarehouse",
    "NodeInfo",
    "NodeRegistry",
    "ShardedStore",
    "WorkerNode",
    "fleet_dir",
    "fleet_shard_count",
    "shard_index",
]
