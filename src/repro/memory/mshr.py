"""Miss status holding registers.

Bounds the number of outstanding misses and merges secondary misses to a
line already in flight (paper Section III-D: a missing load "is allocated
a miss status holding register, which arbitrates for writeback and tag
wakeup when the cache miss returns").
"""

from __future__ import annotations

from typing import Dict, Optional

#: "No outstanding fill" sentinel for :meth:`MSHRFile.next_fill`.
NO_EVENT = 1 << 62


class MSHRFile:
    """A pool of MSHRs keyed by line address.

    Each entry records the cycle its fill completes.  ``allocate`` either
    merges into an existing entry (returning the remaining latency) or
    claims a free register.  When all registers are busy the requester must
    retry, which the pipeline models as a structural replay.
    """

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.num_entries = num_entries
        self._entries: Dict[int, int] = {}  # line -> fill-complete cycle
        #: Earliest fill-complete cycle among the entries (NO_EVENT when
        #: empty): expiry has nothing to do before it.
        self._min_fill = NO_EVENT
        self.merges = 0
        self.allocations = 0
        self.full_events = 0

    def _expire(self, cycle: int) -> None:
        if cycle < self._min_fill:
            return
        entries = self._entries
        for line in [line for line, c in entries.items() if c <= cycle]:
            del entries[line]
        self._min_fill = min(entries.values(), default=NO_EVENT)

    def lookup(self, line: int, cycle: int) -> Optional[int]:
        """If *line* is already in flight, return its fill-complete cycle."""
        entries = self._entries
        if not entries:  # common case on cache-friendly phases
            return None
        self._expire(cycle)
        return entries.get(line)

    def allocate(self, line: int, cycle: int, fill_cycle: int) -> Optional[int]:
        """Track a new miss for *line* completing at *fill_cycle*.

        Returns the (possibly merged) fill-complete cycle, or ``None`` if
        no MSHR is free — the access must be retried later.
        """
        self._expire(cycle)
        existing = self._entries.get(line)
        if existing is not None:
            self.merges += 1
            return existing
        if len(self._entries) >= self.num_entries:
            self.full_events += 1
            return None
        self._entries[line] = fill_cycle
        if fill_cycle < self._min_fill:
            self._min_fill = fill_cycle
        self.allocations += 1
        return fill_cycle

    def next_fill(self, cycle: int) -> int:
        """Earliest fill-complete cycle strictly after *cycle*
        (:data:`NO_EVENT` when none is outstanding) — a fast-forward
        horizon query; entries are expired lazily as usual."""
        if cycle < self._min_fill:
            return self._min_fill
        return min((c for c in self._entries.values() if c > cycle),
                   default=NO_EVENT)

    @property
    def outstanding(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        self._entries.clear()
        self._min_fill = NO_EVENT
        self.merges = self.allocations = self.full_events = 0
