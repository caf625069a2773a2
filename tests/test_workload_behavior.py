"""Behavioural validation of the synthetic benchmark roster.

Each family was designed to stress a specific axis of the shelf's
evaluation; these tests pin those behaviours down on the baseline core so
workload regressions cannot silently invalidate the experiments.
"""

import hashlib
import random

import pytest

from repro.core import CoreConfig, simulate
from repro.harness.runner import run_benchmark
from repro.metrics import insequence_fraction
from repro.trace import BENCHMARK_NAMES, benchmark_spec, generate
from repro.trace import workloads

LENGTH = 1500


@pytest.fixture(scope="module")
def results():
    cfg = CoreConfig(num_threads=1)
    out = {}
    for name in BENCHMARK_NAMES:
        out[name] = run_benchmark(cfg, name, LENGTH, 0)
    return out


class TestFamilyCharacteristics:
    def test_pchase_mem_is_latency_bound(self, results):
        # A serialized chase to memory: one ~200-cycle miss per handful of
        # instructions.
        assert results["pchase.mem"].ipc < 0.05

    def test_pchase_wide_has_mlp(self, results):
        # Four independent chains overlap misses: clearly faster than one
        # (short cold-cache runs keep the ratio below the ideal 4x).
        assert results["pchase.wide"].ipc > 1.5 * results["pchase.mem"].ipc

    def test_pchase_l1_faster_than_l2_faster_than_mem(self, results):
        assert results["pchase.l1"].ipc > results["pchase.l2"].ipc
        assert results["pchase.l2"].ipc > results["pchase.mem"].ipc

    def test_ilp_kernels_have_high_ipc(self, results):
        # The load-free ILP kernels sustain high throughput; the loaded
        # variants are cold-miss-bound at test lengths but still beat the
        # latency-bound families by an order of magnitude.
        assert results["ilp.int8"].ipc > 0.9
        assert results["ilp.mul"].ipc > 0.5
        assert results["ilp.int4"].ipc > 10 * results["pchase.mem"].ipc

    def test_serial_chain_is_one_ipc_bound(self, results):
        assert results["serial.alu"].ipc < 1.1

    def test_serial_kernels_are_insequence_heavy(self, results):
        assert insequence_fraction(results["serial.alu"]) > 0.8

    def test_ilp_kernels_are_reordered_heavy(self, results):
        assert insequence_fraction(results["ilp.int4"]) < 0.4

    def test_branchy_flip_mispredicts_much_more_than_easy(self, results):
        easy = results["branchy.easy"].bpred_accuracy
        flip = results["branchy.flip"].bpred_accuracy
        assert easy - flip > 0.1

    def test_stream_misses_dominate(self, results):
        stats = results["stream.copy"].cache_stats
        assert stats["l1d"]["misses"] > 0.05 * (
            stats["l1d"]["hits"] + stats["l1d"]["misses"])

    def test_gather_small_cheaper_than_gather_large(self, results):
        # The small table warms into L1/L2 far better than the 4MB one.
        small = results["gather.small"].cache_stats["l1d"]
        # after the cold region, reuse appears; the large gather stays
        # essentially uncached and slower end to end.
        assert small["hits"] > 0
        assert results["gather.small"].ipc > results["gather.large"].ipc

    def test_mixed_kernels_have_stores(self, results):
        assert results["mixed.store"].events.sq_writes > 0
        assert results["mixed.store"].events.storebuf_inserts > 0

    def test_gather_rmw_exercises_forwarding_machinery(self, results):
        res = results["gather.rmw"]
        # read-modify-write to random addresses: the LSQ scan paths run.
        assert res.events.sq_searches > 0
        assert res.events.lq_searches > 0


class TestRosterDiversity:
    def test_ipc_spans_two_orders_of_magnitude(self, results):
        ipcs = [r.ipc for r in results.values()]
        assert max(ipcs) / min(ipcs) > 20

    def test_insequence_fractions_span_wide_range(self, results):
        fracs = [insequence_fraction(r) for r in results.values()]
        assert min(fracs) < 0.3
        assert max(fracs) > 0.8

    def test_footprints_declared_consistently(self):
        for name in BENCHMARK_NAMES:
            spec = benchmark_spec(name)
            tr = generate(name, 800, 0)
            has_mem = any(i.is_mem for i in tr)
            if spec.footprint:
                assert has_mem, f"{name} declares data but never touches it"

    def test_mem_fraction_varies_by_family(self):
        def mem_frac(name):
            tr = generate(name, 1000, 0)
            return sum(1 for i in tr if i.is_mem) / len(tr)

        assert mem_frac("stream.copy") > 0.3
        assert mem_frac("ilp.int8") == 0.0
        assert 0.1 < mem_frac("mixed.int") < 0.5


#: The pointer-chase generators: every other trace is chase-free.
CHASES = ("pchase.l1", "pchase.l2", "pchase.mem", "pchase.wide",
          "serial.memdep")


def _chase_addrs(trace):
    """Addresses of the chase loads: pointer loads through their own
    destination register (side-stream loads use another base)."""
    return [i.mem_addr for i in trace
            if i.is_load and i.srcs == (i.dest,)]


class TestChaseCycle:
    """The chase walks one cycle through the whole footprint."""

    @pytest.mark.parametrize("name", CHASES)
    def test_no_element_revisited_before_n_visits(self, name):
        n = benchmark_spec(name).footprint // 8
        for seed in range(11):
            addrs = _chase_addrs(generate(name, 2500, seed))
            assert len(addrs) > 200
            assert len(addrs) < n
            assert len(set(addrs)) == len(addrs), \
                f"{name} seed {seed} revisits a node inside its cycle"

    @pytest.mark.parametrize("name", CHASES)
    def test_addresses_inside_footprint(self, name):
        footprint = benchmark_spec(name).footprint
        for seed in range(11):
            for addr in _chase_addrs(generate(name, 2500, seed)):
                assert 0 <= addr < footprint and addr % 8 == 0

    @pytest.mark.parametrize("n", (16, 17, 100, 2048, 3000))
    def test_walk_is_one_n_cycle(self, n):
        # The walk is sigma(0) -> sigma(1) -> ... -> sigma(n-1): one
        # n-cycle exactly when sigma is a bijection on [0, n).
        sigma = workloads._chase_cycle(random.Random(n), n)
        assert sorted(sigma(i) for i in range(n)) == list(range(n))

    def test_huge_footprint_is_o_length(self):
        # 2**36 elements: far beyond any list the old shuffle could build.
        body = workloads._make_pchase(8 << 36, 1, 2)
        instrs = workloads._instance(body, random.Random(0), 2500)
        assert len(instrs) == 2500
        addrs = _chase_addrs(instrs)
        assert len(set(addrs)) == len(addrs)
        assert max(addrs) < 8 << 36


def _trace_digest(trace):
    h = hashlib.sha256()
    for i in trace:
        h.update(f"{i.op.name},{i.dest},{i.srcs},{i.pc},{i.next_pc},"
                 f"{i.mem_addr},{i.mem_size},{i.taken}\n".encode())
    return h.hexdigest()


#: sha256 of every chase-free benchmark's (2500, seed 0) trace, computed
#: before the chase became a lazy cycle walk: only the chases changed.
CHASE_FREE_DIGESTS = {
    "stream.copy": "2cdf6f470871f589bc34bd54c4e5efd82f4d9ba773318fb0dbdaa002c73ee2f2",
    "stream.add": "4fcdbabdce28e512baf883d888cc183864d5756a6a0948af0e7c64725fdf8d3d",
    "stream.triad": "3bd79e7eadd352b00b69466cdb7db2d8de0c2eb71793af125363cd37afd8b06b",
    "stream.l2": "8532db51385bc24a2c8bd29026315463d34f46b6b9eb0cab890435568124a802",
    "ilp.int4": "e2ac012684911d039e91d2f3c7c60e4ba5d68bab3b7e176e9e63659ffdb99c7b",
    "ilp.int8": "4eae7eefe1241201df4c285a1225eac9e9b258c6fb83416be402957dff01d909",
    "ilp.fp4": "7e80d52af4f570b87e34775b019e60ace9328b4d19390a3d47ccc88207901867",
    "ilp.mul": "bcd715cca969f2ddf68332b80491fc9925a40eb4c1a363ad62f5f7cb07bec666",
    "serial.alu": "e0bacf6123631011c0196c1f06f958980ce5f667ba6568d35a5f6ae72479e665",
    "serial.mul": "fbca19645223bc54e60b5951016904deee703f0b294e50ad52d0d62a9b9096a8",
    "serial.div": "33ca5c810c14f7e60353bfcf16dbc0818996ca7fcfdcbafe8b1dfd42f06f8293",
    "branchy.easy": "5fc0660bd07f444d328143b1beb037c4acb4bbfe2862314984a98ca1d3a8f16e",
    "branchy.hard": "634ded455301c97f91f72423cdd41bf02ba29e4a076a3a18e74bdea2b5d4dc76",
    "branchy.dense": "9141ab9e4105bbd4493941520dcf382f6657cbbaaeece18e9bcb2679ac103a7c",
    "branchy.flip": "88a7bd3681a07c25d55e61a92e49d0d4aa653d2542d87e050ed71055d444e544",
    "mixed.int": "4cde583e5cd0bcb5cce988b2e416cf2c26b0778f4c478b5ba40ddae9ed8e9a2c",
    "mixed.fp": "9624d0d38ec41496a33774d4b4fdd3e2034496cabe269faf75a14294a98f7d3d",
    "mixed.ptr": "8f3c8af7533fe64a77828e6007e588112ce28a61ef23e73ac2fdff0957ac283a",
    "mixed.store": "13b4e190ab1470990c4c0238ed8ce889f8f6906588ecf37715aa003efb5d224c",
    "gather.small": "b6f179ee06100be6322438452e58d36f2bb609173790a206a0963d40036669b7",
    "gather.large": "18b55dd1a687a8422898835e362c6f57a6ace78bab86240df99df7c61ccaf2fe",
    "gather.rmw": "2480e3da7cf2b0fea5a9aedadf77be82e04d3cf3a960c514a80af5bc724a512d",
    "gather.stride": "5752ba3687a841f73808d9819ed67ff0f816217a3d38c04d76f0dd2e6f3a14fb",
}


def test_chase_free_traces_unchanged():
    assert sorted(CHASE_FREE_DIGESTS) == \
        sorted(set(BENCHMARK_NAMES) - set(CHASES))
    for name, digest in CHASE_FREE_DIGESTS.items():
        assert _trace_digest(generate(name, 2500, 0)) == digest, name
