"""Unit tests for the cache hierarchy substrate."""

import pytest

from repro.memory import Cache, HierarchyConfig, MSHRFile, MemoryHierarchy
from repro.memory.mshr import NO_EVENT


class TestCache:
    def _cache(self, **kw):
        base = dict(name="T", size=1024, assoc=2, line_size=64, latency=1)
        base.update(kw)
        return Cache(**base)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache("bad", size=1000, assoc=3, line_size=64)

    def test_miss_then_hit(self):
        c = self._cache()
        assert not c.lookup(0x100)
        c.fill(0x100)
        assert c.lookup(0x100)
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_same_line_hits(self):
        c = self._cache()
        c.fill(0x100)
        assert c.lookup(0x13F)  # same 64B line
        assert not c.lookup(0x140)  # next line

    def test_lru_eviction(self):
        c = self._cache(size=128, assoc=2, line_size=64)  # 1 set, 2 ways
        c.fill(0x000)
        c.fill(0x040)
        c.lookup(0x000)       # touch line 0: line 1 becomes LRU
        c.fill(0x080)         # evicts line 1
        assert c.probe(0x000)
        assert not c.probe(0x040)
        assert c.probe(0x080)

    def test_dirty_writeback_on_eviction(self):
        c = self._cache(size=128, assoc=1, line_size=64)
        c.fill(0x000, is_write=True)
        victim = c.fill(0x080)
        assert victim == 0x000
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = self._cache(size=128, assoc=1, line_size=64)
        c.fill(0x000, is_write=False)
        assert c.fill(0x080) is None
        assert c.stats.writebacks == 0

    def test_probe_does_not_mutate(self):
        c = self._cache()
        c.probe(0x100)
        assert c.stats.accesses == 0
        c.fill(0x100)
        stamp_before = c._stamp
        c.probe(0x100)
        assert c._stamp == stamp_before

    def test_invalidate_all(self):
        c = self._cache()
        c.fill(0x100)
        c.invalidate_all()
        assert not c.probe(0x100)
        assert c.occupancy == 0

    def test_occupancy_counts_lines(self):
        c = self._cache()
        for i in range(5):
            c.fill(i * 64)
        assert c.occupancy == 5


class TestMSHR:
    def test_allocate_and_expire(self):
        m = MSHRFile(2)
        assert m.allocate(1, cycle=0, fill_cycle=10) == 10
        assert m.outstanding == 1
        assert m.lookup(1, cycle=5) == 10
        assert m.lookup(1, cycle=10) is None  # expired
        assert m.outstanding == 0

    def test_merge_returns_existing_fill(self):
        m = MSHRFile(2)
        m.allocate(7, 0, 100)
        assert m.allocate(7, 3, 200) == 100  # merged, original fill time
        assert m.merges == 1
        assert m.outstanding == 1

    def test_full_returns_none(self):
        m = MSHRFile(1)
        m.allocate(1, 0, 100)
        assert m.allocate(2, 0, 100) is None
        assert m.full_events == 1
        # After the first fill completes a slot frees up.
        assert m.allocate(2, 100, 200) == 200

    def test_expiry_and_next_fill_track_earliest_fill(self):
        m = MSHRFile(4)
        m.allocate(1, 0, 100)
        m.allocate(2, 0, 50)
        m.allocate(3, 0, 100)
        assert m.next_fill(10) == 50
        assert m.next_fill(50) == 100  # due entry not yet expired
        assert m.lookup(9, 60) is None
        assert m.outstanding == 2
        assert m.next_fill(60) == 100
        m.allocate(4, 60, 70)
        assert m.next_fill(60) == 70
        assert m.lookup(9, 100) is None
        assert m.outstanding == 0
        assert m.next_fill(100) == NO_EVENT
        m.allocate(5, 100, 130)
        m.reset()
        assert m.next_fill(0) == NO_EVENT

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            MSHRFile(0)


class TestHierarchy:
    def test_latency_composition(self):
        h = MemoryHierarchy()
        c = h.config
        cold = h.access_data(0x4000, False, 0)
        assert cold == c.l1d_latency + c.l2_latency + c.mem_latency
        warm = h.access_data(0x4000, False, cold + 1)
        assert warm == c.l1d_latency

    def test_l2_hit_latency(self):
        h = MemoryHierarchy()
        c = h.config
        h.access_data(0x4000, False, 0)          # bring to L1+L2
        # Evict from tiny L1 by filling its set; 32KB 2-way, 64B lines:
        # same set repeats every 16KB.
        h.access_data(0x4000 + 16 * 1024, False, 300)
        h.access_data(0x4000 + 32 * 1024, False, 600)
        lat = h.access_data(0x4000, False, 900)
        assert lat == c.l1d_latency + c.l2_latency

    def test_mshr_merge_shortens_latency(self):
        h = MemoryHierarchy()
        first = h.access_data(0x8000, False, 0)
        # A second access to the *same line* while the miss is in flight
        # sees only the remaining fill time.
        again = h.access_data(0x8010, False, 10)
        assert again == first - 10

    def test_mshr_exhaustion_returns_none(self):
        h = MemoryHierarchy(HierarchyConfig(l1d_mshrs=2))
        assert h.access_data(0x10000, False, 0) is not None
        assert h.access_data(0x20000, False, 0) is not None
        assert h.access_data(0x30000, False, 0) is None

    def test_probe_matches_future_access(self):
        h = MemoryHierarchy()
        p = h.probe_data(0x9000)
        a = h.access_data(0x9000, False, 0)
        assert p == a
        assert h.probe_data(0x9000) == h.config.l1d_latency

    def test_inst_side_independent_of_data_side(self):
        h = MemoryHierarchy()
        cold = h.access_inst(0x1000, 0)
        assert cold > h.config.l1i_latency
        assert h.access_inst(0x1000, 500) == h.config.l1i_latency
        # Data access to a different address stays cold.
        assert h.access_data(0x1000000, False, 0) > h.config.l1d_latency

    def test_l2_shared_between_inst_and_data(self):
        h = MemoryHierarchy()
        h.access_inst(0x2000, 0)
        lat = h.access_data(0x2000, False, 500)
        # L1D misses but L2 holds the line fetched by the I-side.
        assert lat == h.config.l1d_latency + h.config.l2_latency

    def test_reset_clears_everything(self):
        h = MemoryHierarchy()
        h.access_data(0x4000, False, 0)
        h.reset()
        assert h.access_data(0x4000, False, 0) > h.config.l1d_latency
        assert h.l1d.stats.accesses == 1

    def test_stats_shape(self):
        h = MemoryHierarchy()
        h.access_data(0x4000, False, 0)
        s = h.stats()
        assert s["l1d"]["misses"] == 1
        assert "l1i" in s and "l2" in s
