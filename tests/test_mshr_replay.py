"""Fill-driven replay of loads refused by a full L1D MSHR file.

A load whose ``access_data`` returns ``None`` sleeps until the first slot
of its 4-cycle replay cadence at which a fill can have freed an MSHR; it
does not re-probe the hierarchy while the file is still full.  The object
pipeline, the lane engine and the polling reference must agree on that
schedule exactly, and the fast-forward loops must jump the stall.
"""

import pickle

from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.trace.trace import Trace

#: Two independent loads to different memory lines: with one MSHR the
#: second is refused until the first one's fill returns.
_LOADS = [
    Instruction(OpClass.LOAD, 4, (1,), 0x1000, 0x1004,
                mem_addr=0x100000, mem_size=8),
    Instruction(OpClass.LOAD, 5, (2,), 0x1004, 0x1008,
                mem_addr=0x200000, mem_size=8),
]


def _run(lanes, fastforward):
    cfg = CoreConfig(num_threads=1, hierarchy=HierarchyConfig(l1d_mshrs=1))
    pipe = Pipeline(cfg, [Trace("two-loads", _LOADS)], lanes=lanes,
                    fastforward=fastforward)
    calls, jumps = [], []
    access, jump = pipe.hierarchy.access_data, pipe._fast_forward

    def counted_access(addr, is_write, cycle):
        lat = access(addr, is_write, cycle)
        calls.append((addr, cycle, lat))
        return lat

    def logged_jump(target):
        jumps.append((pipe.cycle, target))
        jump(target)

    pipe.hierarchy.access_data = counted_access
    pipe._fast_forward = logged_jump
    return pipe, pipe.run(), calls, jumps


def test_refused_load_sleeps_until_a_fill():
    runs = [_run(lanes, ff) for lanes, ff in
            ((True, True), (False, True), (False, False))]
    for pipe, result, calls, jumps in runs:
        second = [c for c in calls if c[0] == 0x200000]
        assert len(second) == 2, f"replay polled the full MSHR: {second}"
        (_, refused_at, refused), (_, replayed_at, lat) = second
        assert refused is None and lat is not None
        first_fill = refused_at + calls[0][2]
        assert replayed_at >= first_fill
        assert (replayed_at - refused_at) % 4 == 0
        assert replayed_at - 4 < first_fill
        assert result.cache_stats["l1d_mshr_full"] == 1
        if pipe.fastforward:
            skipped = sum(max(0, min(to, replayed_at) - max(at, refused_at))
                          for at, to in jumps)
            assert skipped > (replayed_at - refused_at) // 2, jumps
        else:
            assert pipe.ff_skipped_cycles == 0
    lane, obj, poll = runs
    assert lane[0].cycle == obj[0].cycle == poll[0].cycle
    assert lane[2] == obj[2] == poll[2]
    assert pickle.dumps(lane[1]) == pickle.dumps(obj[1])
    assert lane[1].as_record() == obj[1].as_record() == poll[1].as_record()


def test_replay_cycle_is_first_cadence_slot_after_next_fill():
    hier = MemoryHierarchy(HierarchyConfig(l1d_mshrs=1))
    assert hier.access_data(0x100000, False, 10) == 234  # fill at 244
    assert hier.access_data(0x200000, False, 10) is None
    assert hier.replay_cycle(10) == 246
    assert hier.replay_cycle(240) == 244
    assert hier.replay_cycle(243) == 247
