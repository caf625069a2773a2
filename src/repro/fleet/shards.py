"""Digest-prefix store sharding with read-through index replication.

A :class:`ShardedStore` presents the exact :class:`~repro.harness.cache.
ResultStore` surface over N shard directories (``<root>/shard-00`` ...),
so the queue, the scheduler, spawn workers, and the warehouse CLI all
work unchanged on a fleet store:

* **blobs stay on their shard** — ``get``/``put``/``meta`` route by the
  leading byte of the content digest (``shard = int(digest[:2], 16) %
  n``), so each node's shard holds a disjoint slice of the fleet's
  results and dedup-by-digest holds fleet-wide;
* **index rows go everywhere** — every ``put`` ingests the warehouse
  row (tiny: a few hundred bytes of columns) into *all* shard
  warehouses, so any node — the coordinator included — can answer
  ``GET /campaigns``, ``repro query``, and STP/ANTT joins from its
  local replica without touching a remote pickle;
* **reads route through** — a ``get`` for a digest another node wrote
  simply loads the blob from the owning shard directory (the fleet
  shares the store root), which is what makes a point simulated by any
  node a store hit for every other node.

The wrapper is selected by ``$REPRO_FLEET_DIR`` (parsed by
:func:`repro.harness.cache.fleet_dir`, see
:func:`~repro.harness.cache.get_store`); shard count comes from
``$REPRO_FLEET_SHARDS`` and must be consistent fleet-wide.  Both are
deployment knobs: they never reach a digest (DIG501) and results are
bit-identical to a flat-store run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import envvars
from repro.core.stats import SimResult
from repro.harness.cache import GCResult, ResultStore, digest_config_dict


def fleet_shard_count() -> int:
    """Shard count from ``$REPRO_FLEET_SHARDS`` (default 4, floor 1)."""
    raw = (envvars.raw("REPRO_FLEET_SHARDS") or "4").strip()
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"bad REPRO_FLEET_SHARDS value {raw!r}") from None


def shard_index(digest: str, shards: int) -> int:
    """Owning shard of a digest: leading byte of the hex digest, modulo
    the shard count.  Deterministic across processes and nodes — the
    only property routing needs."""
    return int(digest[:2], 16) % shards


class FleetWarehouse:
    """The fleet view of the warehouse index: broadcast writes,
    primary reads.

    Because :meth:`ShardedStore.put` replicates every result row to
    every shard, each shard's warehouse converges on the full fleet
    index; reads (campaign status, queries, derived-metric joins) are
    answered by the primary replica (shard 0), and writes that do not
    ride on a ``put`` — campaign marks, gc invalidation, clears — are
    broadcast so the replicas stay in step.  Unavailable replicas are
    skipped (analytics never break a simulation); the primary must be
    open for the handle to exist at all.
    """

    def __init__(self, primary, replicas: List) -> None:
        self.primary = primary
        #: every open shard warehouse, primary included.
        self.replicas = replicas
        self.path = primary.path

    # -- broadcast writes --------------------------------------------------

    def _broadcast(self, method: str, *args, **kwargs) -> None:
        from repro.warehouse import WAREHOUSE_ERRORS
        for wh in self.replicas:
            try:
                getattr(wh, method)(*args, **kwargs)
            except WAREHOUSE_ERRORS:
                continue  # a lagging replica heals on its next rebuild

    def ingest(self, digest: str, result: SimResult,
               meta: Optional[dict] = None,
               created_at: Optional[float] = None) -> None:
        self._broadcast("ingest", digest, result, meta=meta,
                        created_at=created_at)

    def campaign_begin(self, name: str, total: Optional[int] = None) -> None:
        self._broadcast("campaign_begin", name, total=total)

    def campaign_mark(self, name: str, digest: str,
                      key: Optional[str] = None) -> None:
        self._broadcast("campaign_mark", name, digest, key=key)

    def delete(self, digests) -> int:
        digests = list(digests)
        self._broadcast("delete", digests)
        return len(digests)

    def clear(self) -> None:
        self._broadcast("clear")

    def rebuild(self, store) -> int:
        """Rebuild every replica from the union of the shards' blobs
        (*store* is the :class:`ShardedStore`, whose ``entries()`` spans
        all shards); returns the primary's row count."""
        count = 0
        from repro.warehouse import WAREHOUSE_ERRORS
        for wh in self.replicas:
            try:
                rows = wh.rebuild(store)
            except WAREHOUSE_ERRORS:
                continue
            if wh is self.primary:
                count = rows
        return count

    # -- primary reads -----------------------------------------------------

    def refresh_derived(self, reference_label: Optional[str] = None) -> int:
        return self.primary.refresh_derived(reference_label)

    def campaign_digests(self, name: str) -> List[str]:
        return self.primary.campaign_digests(name)

    def campaign_status(self, name: Optional[str] = None) -> List[dict]:
        return self.primary.campaign_status(name)

    def row_count(self) -> int:
        return self.primary.row_count()

    def size_bytes(self) -> int:
        return self.primary.size_bytes()

    def execute(self, sql: str, args=()) -> list:
        return self.primary.execute(sql, args)

    def close(self) -> None:
        for wh in self.replicas:
            wh.close()

    def __enter__(self) -> "FleetWarehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedStore:
    """Digest-prefix-sharded drop-in for :class:`ResultStore`.

    One :class:`ResultStore` per shard directory; routing is
    :func:`shard_index` on the content digest.  Counter attributes
    (``hits``/``misses``/...) aggregate across shards so
    ``cache_stats()`` and ``/metrics`` report fleet-wide numbers.
    """

    def __init__(self, root, shards: Optional[int] = None) -> None:
        self.root = Path(root)
        n = shards if shards is not None else fleet_shard_count()
        self.shards: List[ResultStore] = [
            ResultStore(self.root / f"shard-{i:02d}") for i in range(n)]
        #: flat-store interface: the "directory" is the fleet root.
        self.directory = self.root
        self._warehouse: Optional[FleetWarehouse] = None
        self._warehouse_resolved = False

    # -- routing -----------------------------------------------------------

    def shard_for(self, digest: str) -> ResultStore:
        return self.shards[shard_index(digest, len(self.shards))]

    def shard_of(self, digest: str) -> int:
        return shard_index(digest, len(self.shards))

    # -- blob surface ------------------------------------------------------

    def get(self, digest: str) -> Optional[SimResult]:
        return self.shard_for(digest).get(digest)

    def put(self, digest: str, result: SimResult,
            point: Optional[Tuple] = None) -> None:
        """Write the blob (and sidecar) to the owning shard, then
        replicate the warehouse index row to every *other* shard.

        The owning shard's own ingest hook fires inside
        :meth:`ResultStore.put` exactly as on a flat store; replication
        re-ingests the same row into the remaining replicas (idempotent:
        rows are keyed by digest)."""
        owner = self.shard_for(digest)
        owner.put(digest, result, point=point)
        self._replicate(owner, digest, result, point)

    def _replicate(self, owner: ResultStore, digest: str,
                   result: SimResult, point: Optional[Tuple]) -> None:
        from repro import warehouse as _warehouse
        if not _warehouse.ingest_enabled():
            return
        meta = None
        if point is not None:
            config, benchmarks, length, seed, stop = point
            meta = {"config": digest_config_dict(config),
                    "benchmarks": list(benchmarks),
                    "length": length, "seed": seed, "stop": stop}
        for shard in self.shards:
            if shard is owner:
                continue
            wh = shard.warehouse()
            if wh is None:
                continue
            try:
                wh.ingest(digest, result, meta)
            except _warehouse.WAREHOUSE_ERRORS:
                shard.index_errors += 1

    def meta(self, digest: str) -> Optional[Dict[str, object]]:
        return self.shard_for(digest).meta(digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self.shard_for(digest)

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    # -- maintenance -------------------------------------------------------

    def entries(self) -> List[Tuple[Path, int, float]]:
        out: List[Tuple[Path, int, float]] = []
        for shard in self.shards:
            out.extend(shard.entries())
        out.sort(key=lambda e: str(e[0]))
        return out

    def clear(self) -> int:
        removed = sum(s.clear() for s in self.shards)
        return removed

    def gc(self, max_bytes: int) -> GCResult:
        """Evict oldest entries fleet-wide down to *max_bytes* total.

        The budget is split evenly across shards (digest routing keeps
        them balanced); evicted digests are invalidated in *every*
        warehouse replica, not just the owning shard's."""
        per_shard = max_bytes // len(self.shards)
        removed = freed = 0
        digests: List[str] = []
        for shard in self.shards:
            result = shard.gc(per_shard)
            removed += result.removed
            freed += result.freed_bytes
            digests.extend(result.digests)
        if digests:
            wh = self.warehouse()
            if wh is not None:
                wh.delete(digests)
        return GCResult(removed, freed, digests)

    def disk_stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "entries": 0, "bytes": 0,
            "index_present": False, "index_rows": 0, "index_bytes": 0,
            "shards": len(self.shards),
        }
        for shard in self.shards:
            shard_stats = shard.disk_stats()
            stats["entries"] += shard_stats["entries"]
            stats["bytes"] += shard_stats["bytes"]
        wh = self.warehouse()
        if wh is not None:
            from repro.warehouse import WAREHOUSE_ERRORS
            try:
                stats["index_rows"] = wh.row_count()
                stats["index_bytes"] = wh.size_bytes()
                stats["index_present"] = True
            except WAREHOUSE_ERRORS:
                pass
        return stats

    # -- warehouse ---------------------------------------------------------

    def warehouse(self) -> Optional[FleetWarehouse]:
        """The fleet warehouse handle: shard 0's replica for reads,
        every open replica for writes.  ``None`` when the warehouse is
        disabled or the primary cannot be opened."""
        if not self._warehouse_resolved:
            self._warehouse_resolved = True
            replicas = [s.warehouse() for s in self.shards]
            replicas = [wh for wh in replicas if wh is not None]
            primary = self.shards[0].warehouse()
            if primary is not None:
                self._warehouse = FleetWarehouse(primary, replicas)
        return self._warehouse

    def close(self) -> None:
        """Close every shard's warehouse connection (if opened)."""
        for shard in self.shards:
            wh = shard.warehouse()
            if wh is not None:
                wh.close()

    # -- aggregated counters ----------------------------------------------

    def _total(self, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.shards)

    @property
    def hits(self) -> int:
        return self._total("hits")

    @property
    def misses(self) -> int:
        return self._total("misses")

    @property
    def errors(self) -> int:
        return self._total("errors")

    @property
    def evictions(self) -> int:
        return self._total("evictions")

    @property
    def index_errors(self) -> int:
        return self._total("index_errors")

    @index_errors.setter
    def index_errors(self, value: int) -> None:
        # callers (the queue's campaign-mark path) increment the counter
        # on analytics failures; attribute the delta to the primary.
        self.shards[0].index_errors += value - self.index_errors

    @property
    def stats(self) -> Dict[str, int]:
        return {"disk_hits": self.hits, "disk_misses": self.misses,
                "disk_errors": self.errors,
                "disk_evictions": self.evictions,
                "index_errors": self.index_errors}
