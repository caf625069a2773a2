"""Worker registration, heartbeats, and salt-stable node routing.

The coordinator tracks its fleet in a :class:`NodeRegistry`: workers
self-register with a capability report (local job slots and the store
shards they front), then heartbeat on a fixed interval.  A
node that misses three consecutive intervals is reaped — the dispatcher
re-queues its leased jobs exactly once (see
:mod:`repro.fleet.dispatch`).

Routing is rendezvous (highest-random-weight) hashing over the alive
set: ``route(key)`` picks, for a job's *locality key* (the trace
signature — benchmarks/length/seed/stop), the node with the highest
``sha256(key | node_id)``.  The properties that matter:

* **deterministic** — every process that sees the same alive set routes
  the same key to the same node, with no shared state;
* **local** — grid neighbours (same traces, different configs) share a
  locality key, so they land on the same node, keeping its trace memo
  warm;
* **stable under churn** — when a node joins or dies, only the keys
  whose argmax involved that node move; everything else stays put.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import envvars

#: heartbeats a node may miss before it is declared dead.
MISSED_HEARTBEAT_LIMIT = 3


def heartbeat_interval() -> float:
    """Fleet heartbeat interval from ``$REPRO_FLEET_HEARTBEAT_S``."""
    raw = (envvars.raw("REPRO_FLEET_HEARTBEAT_S") or "2").strip()
    try:
        return max(0.05, float(raw))
    except ValueError:
        raise ValueError(
            f"bad REPRO_FLEET_HEARTBEAT_S value {raw!r}") from None


def lease_budget() -> float:
    """Per-point lease budget from ``$REPRO_FLEET_LEASE_S``."""
    raw = (envvars.raw("REPRO_FLEET_LEASE_S") or "60").strip()
    try:
        return max(0.1, float(raw))
    except ValueError:
        raise ValueError(f"bad REPRO_FLEET_LEASE_S value {raw!r}") from None


@dataclass
class NodeInfo:
    """One registered worker node."""

    node_id: str
    #: human label (``$REPRO_FLEET_NODE`` or host-pid derived).
    name: str
    #: local simulation job slots the node runs leases with.
    jobs: int = 1
    #: store shards the node fronts (informational; every node can
    #: reach every shard through the shared fleet dir).
    shards: List[int] = field(default_factory=list)
    registered_at: float = 0.0
    last_heartbeat: float = 0.0
    #: lifetime completion counters, reported for /fleet/nodes.
    completed: int = 0
    failed: int = 0

    def alive(self, now: float, interval: float) -> bool:
        return (now - self.last_heartbeat
                < MISSED_HEARTBEAT_LIMIT * interval)

    def to_wire(self, now: float, interval: float) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "name": self.name,
            "jobs": self.jobs,
            "shards": list(self.shards),
            "alive": self.alive(now, interval),
            "age_s": round(now - self.registered_at, 3),
            "heartbeat_age_s": round(now - self.last_heartbeat, 3),
            "completed": self.completed,
            "failed": self.failed,
        }


def _weight(key: str, node_id: str) -> int:
    """Rendezvous weight of *node_id* for *key* (first 8 bytes of a
    sha256 as a big-endian int — plenty of spread, fully portable)."""
    payload = f"{key}|{node_id}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class NodeRegistry:
    """Thread-safe registry of fleet workers.

    The server's asyncio loop and the dispatcher's pump thread both
    touch it, so every method takes the lock; all are O(nodes), and
    fleets are small (tens of nodes, not thousands).
    """

    def __init__(self, heartbeat_s: Optional[float] = None) -> None:
        self.heartbeat_s = (heartbeat_s if heartbeat_s is not None
                            else heartbeat_interval())
        self._nodes: Dict[str, NodeInfo] = {}
        self._lock = threading.Lock()
        self._counter = 0

    # -- membership --------------------------------------------------------

    def register(self, name: str, jobs: int = 1,
                 shards: Optional[List[int]] = None) -> NodeInfo:
        """Admit a worker; returns its :class:`NodeInfo` (the node_id in
        it is what the worker must present on every later call)."""
        now = time.monotonic()
        with self._lock:
            self._counter += 1
            node_id = f"node-{self._counter:03d}"
            info = NodeInfo(node_id=node_id, name=name,
                            jobs=max(1, int(jobs)),
                            shards=list(shards or []),
                            registered_at=now, last_heartbeat=now)
            self._nodes[node_id] = info
            return info

    def heartbeat(self, node_id: str) -> bool:
        """Refresh a node's liveness; False for unknown (reaped) nodes —
        the worker should re-register."""
        with self._lock:
            info = self._nodes.get(node_id)
            if info is None:
                return False
            info.last_heartbeat = time.monotonic()
            return True

    def touch(self, node_id: str) -> None:
        """Any authenticated traffic (lease, completion report) counts
        as liveness, so a busy worker never needs a separate beat."""
        self.heartbeat(node_id)

    def get(self, node_id: str) -> Optional[NodeInfo]:
        with self._lock:
            return self._nodes.get(node_id)

    def reap(self) -> List[NodeInfo]:
        """Remove nodes past :data:`MISSED_HEARTBEAT_LIMIT` missed
        heartbeats; returns the corpses (the dispatcher re-queues their
        leases)."""
        now = time.monotonic()
        with self._lock:
            dead = [info for info in self._nodes.values()
                    if not info.alive(now, self.heartbeat_s)]
            for info in dead:
                del self._nodes[info.node_id]
            return dead

    def alive_ids(self) -> List[str]:
        now = time.monotonic()
        with self._lock:
            return sorted(node_id for node_id, info in self._nodes.items()
                          if info.alive(now, self.heartbeat_s))

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    # -- routing -----------------------------------------------------------

    def route(self, key: str) -> Optional[str]:
        """The alive node owning locality key *key* under rendezvous
        hashing, or None when the fleet is empty."""
        candidates = self.alive_ids()
        if not candidates:
            return None
        return max(candidates, key=lambda node_id: _weight(key, node_id))

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> List[Dict[str, object]]:
        now = time.monotonic()
        with self._lock:
            return [info.to_wire(now, self.heartbeat_s)
                    for _, info in sorted(self._nodes.items())]
