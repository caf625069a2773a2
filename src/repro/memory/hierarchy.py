"""Two-level cache hierarchy with a flat-latency main memory.

Latency composition follows the usual trace-driven convention: a miss at a
level adds that level's latency plus the latency of wherever the line is
found.  Lines are installed (tag state) at access time; the *timing* of the
fill is carried by the returned latency and by the MSHR file, which merges
requests to in-flight lines so back-to-back misses to one line observe the
single fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.cache import Cache
from repro.memory.mshr import MSHRFile


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache hierarchy parameters (defaults = paper Table I at 2 GHz)."""

    line_size: int = 64
    l1i_size: int = 32 * 1024
    l1i_assoc: int = 2
    l1i_latency: int = 1
    l1d_size: int = 32 * 1024
    l1d_assoc: int = 2
    l1d_latency: int = 2
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 8
    l2_latency: int = 32
    mem_latency: int = 200  #: 100 ns at 2 GHz
    l1d_mshrs: int = 16
    l2_mshrs: int = 32
    #: L1D prefetcher: 'none' (paper baseline), 'next-line', or 'stride'.
    l1d_prefetch: str = "none"


class MemoryHierarchy:
    """L1I + L1D backed by a unified L2 and flat-latency memory.

    The L1s are shared by all SMT threads of the core, as in the paper's
    gem5 configuration.
    """

    def __init__(self, config: HierarchyConfig = HierarchyConfig()) -> None:
        self.config = config
        c = config
        self.l1i = Cache("L1I", c.l1i_size, c.l1i_assoc, c.line_size,
                         c.l1i_latency)
        self.l1d = Cache("L1D", c.l1d_size, c.l1d_assoc, c.line_size,
                         c.l1d_latency)
        self.l2 = Cache("L2", c.l2_size, c.l2_assoc, c.line_size,
                        c.l2_latency)
        self.l1d_mshrs = MSHRFile(c.l1d_mshrs)
        self.l2_mshrs = MSHRFile(c.l2_mshrs)
        from repro.memory.prefetch import make_prefetcher
        self.prefetcher = make_prefetcher(c.l1d_prefetch)
        self.prefetches_issued = 0
        self.prefetches_useful = 0
        self._prefetched_lines: set = set()

    # -- data side ----------------------------------------------------------

    def access_data(self, addr: int, is_write: bool,
                    cycle: int) -> Optional[int]:
        """Access the data path; return total latency in cycles.

        Returns ``None`` when no L1D MSHR is available (structural hazard;
        the pipeline replays the access at :meth:`replay_cycle`).
        """
        c = self.config
        line = self.l1d.line_addr(addr)
        if self.prefetcher is not None and line in self._prefetched_lines:
            self._prefetched_lines.discard(line)
            self.prefetches_useful += 1
        if self.l1d.lookup(addr, is_write):
            # Tag state fills at request time; an in-flight MSHR for the
            # line means the data itself is still on its way — a secondary
            # (merged) miss observes the remaining fill latency.
            inflight = self.l1d_mshrs.lookup(line, cycle)
            if inflight is not None:
                self.l1d_mshrs.merges += 1
                return max(inflight - cycle, c.l1d_latency)
            return c.l1d_latency
        # L1D miss: find the line below.
        l2_line = self.l2.line_addr(addr)
        if self.l2.lookup(addr):
            l2_inflight = self.l2_mshrs.lookup(l2_line, cycle)
            if l2_inflight is not None:
                self.l2_mshrs.merges += 1
                below = max(l2_inflight - cycle, c.l2_latency)
            else:
                below = c.l2_latency
            total = c.l1d_latency + below
        else:
            total = c.l1d_latency + c.l2_latency + c.mem_latency
            self.l2_mshrs.allocate(l2_line, cycle, cycle + total)
            self.l2.fill(addr)
        got = self.l1d_mshrs.allocate(line, cycle, cycle + total)
        if got is None:
            return None
        self.l1d.fill(addr, is_write)
        if self.prefetcher is not None:
            self._issue_prefetches(self.prefetcher.on_miss(line), cycle)
        return total

    def replay_cycle(self, cycle: int) -> int:
        """When a load refused at *cycle* (:meth:`access_data` returned
        ``None``) replays: the first slot of its 4-cycle replay cadence at
        which an L1D MSHR can have freed, i.e. at or after the next fill.
        The scheduler wakes it on that miss-return event instead of
        polling the full MSHR file.
        """
        wait = self.l1d_mshrs.next_fill(cycle) - cycle
        return cycle + -(-wait // 4) * 4

    def _issue_prefetches(self, lines, cycle: int) -> None:
        """Bring prefetch candidates into L1D through spare MSHRs."""
        c = self.config
        shift = self.l1d._line_shift
        for line in lines:
            addr = line << shift
            if self.l1d.probe(addr):
                continue
            if self.l2.probe(addr):
                total = c.l1d_latency + c.l2_latency
            else:
                total = c.l1d_latency + c.l2_latency + c.mem_latency
                l2_line = self.l2.line_addr(addr)
                if self.l2_mshrs.lookup(l2_line, cycle) is None:
                    self.l2_mshrs.allocate(l2_line, cycle, cycle + total)
                self.l2.fill(addr)
            if self.l1d_mshrs.allocate(line, cycle, cycle + total) is None:
                return  # no spare MSHRs: drop remaining prefetches
            self.l1d.fill(addr)
            self._prefetched_lines.add(line)
            self.prefetches_issued += 1

    def probe_data(self, addr: int) -> int:
        """Latency the access *would* see, without changing any state.

        This is the paper's oracle-steering functional cache query
        ("atomically, instantly and not modifying state", Section IV-A).
        """
        c = self.config
        if self.l1d.probe(addr):
            return c.l1d_latency
        if self.l2.probe(addr):
            return c.l1d_latency + c.l2_latency
        return c.l1d_latency + c.l2_latency + c.mem_latency

    # -- instruction side ----------------------------------------------------

    def access_inst(self, pc: int, cycle: int) -> int:
        """Fetch path access; returns latency in cycles (never blocks on
        MSHRs — the front end simply stalls for the returned time)."""
        c = self.config
        if self.l1i.lookup(pc):
            return c.l1i_latency
        if self.l2.lookup(pc):
            total = c.l1i_latency + c.l2_latency
        else:
            total = c.l1i_latency + c.l2_latency + c.mem_latency
        self.l1i.fill(pc)
        self.l2.fill(pc)
        return total

    def next_fill_event(self, cycle: int) -> int:
        """Earliest outstanding MSHR fill strictly after *cycle*.

        A conservative fast-forward horizon component: fills surface to the
        pipeline through the completion heap (the requester's latency was
        fixed at access time), but bounding jumps by the next fill keeps the
        horizon robust against any path that re-queries MSHR state.
        Returns :data:`repro.memory.mshr.NO_EVENT` when nothing is in
        flight.
        """
        l1d = self.l1d_mshrs.next_fill(cycle)
        l2 = self.l2_mshrs.next_fill(cycle)
        return l1d if l1d < l2 else l2

    # -- maintenance ----------------------------------------------------------

    def reset(self) -> None:
        """Drop all cached state and statistics."""
        for cache in (self.l1i, self.l1d, self.l2):
            cache.invalidate_all()
            cache.stats.reset()
        self.l1d_mshrs.reset()
        self.l2_mshrs.reset()
        self._prefetched_lines.clear()
        self.prefetches_issued = 0
        self.prefetches_useful = 0

    def stats(self) -> dict:
        """Per-level access statistics for reports and the energy model."""
        return {
            "l1i": vars(self.l1i.stats).copy(),
            "l1d": vars(self.l1d.stats).copy(),
            "l2": vars(self.l2.stats).copy(),
            "l1d_mshr_merges": self.l1d_mshrs.merges,
            "l1d_mshr_full": self.l1d_mshrs.full_events,
            "prefetches_issued": self.prefetches_issued,
            "prefetches_useful": self.prefetches_useful,
        }
