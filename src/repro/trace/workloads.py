"""Synthetic benchmark generators standing in for SPEC CPU2006.

The paper's evaluation runs 28 SPEC benchmarks (all but dealII).  We cannot
redistribute SPEC, so this module provides 28 deterministic generators in
seven behaviour families, chosen to span the axes the shelf results depend
on:

``pchase``    serialized pointer chasing — latency-bound, long RAW chains,
              variants sized to hit in L1, L2 or memory.
``stream``    STREAM-style kernels — independent iterations, high MLP,
              memory-bandwidth bound.
``ilp``       wide independent ALU/FP chains — compute bound, reordering
              helps a lot (few in-sequence instructions single-threaded).
``serial``    single long dependence chains — almost fully in-sequence even
              single-threaded (in-order friendly).
``branchy``   control-dominated code with tunable predictability.
``mixed``     blends approximating typical integer/FP applications.
``gather``    irregular indexed accesses — partially cache-missing loads.

Each generator produces a *dynamic* trace: a loop body with fixed PCs is
instanced repeatedly with concrete addresses and branch outcomes, so the
branch predictor and caches see realistic, repeating code.  Everything is
seeded and reproducible.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.trace.trace import Trace

_WORD = 8  # bytes per data element
_KB = 1024
_MB = 1024 * _KB


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one synthetic benchmark."""

    name: str
    family: str
    footprint: int  #: bytes of data touched (drives cache behaviour)
    description: str


class _Body:
    """Builds one loop iteration with stable PCs across iterations.

    The first iteration records the static slot layout; later iterations
    re-emit the same PCs with fresh dynamic values (addresses, outcomes).
    """

    def __init__(self, base_pc: int) -> None:
        self.base_pc = base_pc
        self.instrs: List[Instruction] = []
        self._slot = 0

    def _pc(self) -> int:
        pc = self.base_pc + 4 * self._slot
        self._slot += 1
        return pc

    def _next_pc(self, pc: int) -> int:
        return pc + 4

    def alu(self, dest: int, srcs: Tuple[int, ...],
            op: OpClass = OpClass.INT_ALU) -> None:
        pc = self._pc()
        self.instrs.append(Instruction(op=op, dest=dest, srcs=srcs, pc=pc,
                                       next_pc=self._next_pc(pc)))

    def load(self, dest: int, addr: int, addr_reg: int) -> None:
        pc = self._pc()
        self.instrs.append(Instruction(op=OpClass.LOAD, dest=dest,
                                       srcs=(addr_reg,), pc=pc,
                                       next_pc=self._next_pc(pc),
                                       mem_addr=addr, mem_size=_WORD))

    def store(self, addr: int, addr_reg: int, data_reg: int) -> None:
        pc = self._pc()
        self.instrs.append(Instruction(op=OpClass.STORE, dest=None,
                                       srcs=(addr_reg, data_reg), pc=pc,
                                       next_pc=self._next_pc(pc),
                                       mem_addr=addr, mem_size=_WORD))

    def branch(self, taken: bool, target: int, src: int) -> None:
        pc = self._pc()
        nxt = target if taken else self._next_pc(pc)
        self.instrs.append(Instruction(op=OpClass.BRANCH, dest=None,
                                       srcs=(src,), pc=pc, next_pc=nxt,
                                       taken=taken))


# A body-emitting function: (body, rng, iteration, state) -> None.
_BodyFn = Callable[[_Body, random.Random, int, dict], None]


_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier
_M64 = (1 << 64) - 1


def _chase_cycle(rng: random.Random, n_elems: int) -> Callable[[int], int]:
    """A keyed bijection *sigma* on ``[0, n_elems)`` for pointer chasing.

    The chase visits sigma(0) -> sigma(1) -> ... -> sigma(n-1) -> sigma(0):
    one cycle through every element, generated in O(1) time and memory
    per visited node.  *sigma* is a 4-round (unbalanced) Feistel network
    on the index bits, cycle-walked back into range when *n_elems* is not
    a power of two; its round keys come from the trace's *rng*.
    """
    bits = max((n_elems - 1).bit_length(), 2)
    hi = bits // 2
    lo = bits - hi
    keys = [rng.getrandbits(64) for _ in range(4)]

    def rounds(x: int) -> int:
        top, bot = hi, lo  # widths of the upper / lower field
        for key in keys:
            a, b = x >> bot, x & ((1 << bot) - 1)
            f = ((b ^ key) * _MIX & _M64) >> (64 - top)
            x = (b << top) | (a ^ f)
            top, bot = bot, top
        return x

    def sigma(i: int) -> int:
        x = rounds(i)
        while x >= n_elems:  # cycle-walk: stays a bijection on [0, n)
            x = rounds(x)
        return x

    return sigma


# ---------------------------------------------------------------------------
# Family: pchase — serialized pointer chasing
# ---------------------------------------------------------------------------

def _make_pchase(footprint: int, chains: int, alu_pad: int,
                 side_work: int = 0) -> _BodyFn:
    """Pointer chase; *side_work* adds an independent streaming access +
    compute per iteration (reorderable past the stalled chase, as real
    pointer-chasing codes carry surrounding work)."""
    n_elems = max(footprint // _WORD, 16)
    side_elems = max(8 * _KB // _WORD, 16)

    def body(b: _Body, rng: random.Random, it: int, st: dict) -> None:
        if "sigma" not in st:
            st["sigma"] = _chase_cycle(rng, n_elems)
            # Chain c starts c/chains of the way round the one cycle.
            st["pos"] = [c * n_elems // chains for c in range(chains)]
        sigma = st["sigma"]
        for c in range(chains):
            ptr_reg = 1 + c  # r1..rC carry the chase pointers
            pos = st["pos"][c]
            addr = sigma(pos) * _WORD
            st["pos"][c] = (pos + 1) % n_elems
            b.load(ptr_reg, addr, ptr_reg)  # serialized: addr depends on load
            for k in range(alu_pad):
                # pad ALU work dependent on the loaded value
                b.alu(8 + (c * alu_pad + k) % 8, (ptr_reg,))
            for k in range(side_work):
                # independent side stream: L1-resident load + compute
                side_addr = 0x400000 + ((it * side_work + k) % side_elems) \
                    * _WORD
                dest = 16 + k % 8
                b.load(dest, side_addr, 6)
                b.alu(24 + k % 4, (dest, 24 + k % 4),
                      op=OpClass.INT_MUL if k % 2 else OpClass.INT_ALU)
        b.branch(True, b.base_pc, 1)

    return body


# ---------------------------------------------------------------------------
# Family: stream — independent streaming kernels
# ---------------------------------------------------------------------------

def _make_stream(footprint: int, loads: int, stores: int, fp_ops: int) -> _BodyFn:
    n_elems = max(footprint // _WORD, 64)

    def body(b: _Body, rng: random.Random, it: int, st: dict) -> None:
        idx = (it * 4) % n_elems  # unrolled by 4 elements per iteration
        for u in range(4):
            elem = (idx + u) % n_elems
            vals = []
            for l in range(loads):
                dest = 8 + (u * loads + l) % 8
                # distinct arrays laid out back to back
                addr = (l * n_elems + elem) * _WORD
                b.load(dest, addr, 1)
                vals.append(dest)
            for f in range(fp_ops):
                src = tuple(vals[:2]) if len(vals) >= 2 else (vals[0],) if vals else (1,)
                b.alu(16 + (u * fp_ops + f) % 8, src, op=OpClass.FP_ADD)
                vals.append(16 + (u * fp_ops + f) % 8)
            for s in range(stores):
                addr = ((loads + s) * n_elems + elem) * _WORD
                b.store(addr, 1, vals[-1] if vals else 1)
        b.alu(1, (1,))  # index increment
        b.branch(True, b.base_pc, 1)

    return body


# ---------------------------------------------------------------------------
# Family: ilp — wide independent compute chains
# ---------------------------------------------------------------------------

def _make_ilp(chains: int, ops: Tuple[OpClass, ...], chain_len: int,
              loads_every: int = 0) -> _BodyFn:
    """Independent compute chains with *heterogeneous* latencies.

    Chain *c* uses ``ops[c % len(ops)]``; mixing 1-cycle and multi-cycle
    classes means fast chains run ahead of stalled elder ones, producing
    the reordered instructions real ILP-rich codes exhibit.  Optional
    L1-resident loads feed each chain every *loads_every* steps.
    """
    foot_elems = max(8 * _KB // _WORD, 16)

    def body(b: _Body, rng: random.Random, it: int, st: dict) -> None:
        for step in range(chain_len):
            for c in range(chains):
                reg = 4 + c % 24
                op = ops[c % len(ops)]
                if loads_every and (step + c) % loads_every == 0:
                    addr = ((it * chain_len + step + c * 97) % foot_elems) \
                        * _WORD + c * 8 * _KB
                    b.load(reg, addr, 2)
                    b.alu(reg, (reg,), op=op)
                else:
                    b.alu(reg, (reg,), op=op)
        b.alu(1, (1,))
        b.branch(True, b.base_pc, 1)

    return body


# ---------------------------------------------------------------------------
# Family: serial — one long dependence chain
# ---------------------------------------------------------------------------

def _make_serial(op: OpClass, chain_len: int, mem_every: int = 0,
                 footprint: int = 16 * _KB, side_every: int = 0) -> _BodyFn:
    """A single long dependence chain; *side_every* interleaves an
    independent 1-cycle op every N chain steps (work that reorders past
    the stalled chain in an OOO core)."""
    n_elems = max(footprint // _WORD, 16)

    def body(b: _Body, rng: random.Random, it: int, st: dict) -> None:
        if mem_every and "sigma" not in st:
            st["sigma"] = _chase_cycle(rng, n_elems)
            st["pos"] = 0
        for step in range(chain_len):
            if mem_every and step % mem_every == mem_every - 1:
                pos = st["pos"]
                st["pos"] = (pos + 1) % n_elems
                b.load(2, st["sigma"](pos) * _WORD, 2)
                b.alu(2, (2,), op=op)
            else:
                b.alu(2, (2,), op=op)
            if side_every and step % side_every == side_every - 1:
                side = 10 + step % 4
                b.alu(side, (side, 8))
        b.alu(1, (1,))
        b.branch(True, b.base_pc, 1)

    return body


# ---------------------------------------------------------------------------
# Family: branchy — control-dominated code
# ---------------------------------------------------------------------------

def _make_branchy(taken_prob: float, inner_branches: int,
                  work_per_branch: int) -> _BodyFn:
    """Control-dominated code: per-block work mixes an L1-resident load
    and multi-cycle ops (branchy integer codes test loaded values), so
    blocks behind a slow compare reorder."""
    table_elems = max(48 * _KB // _WORD, 16)

    def body(b: _Body, rng: random.Random, it: int, st: dict) -> None:
        for k in range(inner_branches):
            cond = 4 + k % 12
            addr = ((it * inner_branches + k) * 7 % table_elems) * _WORD
            b.load(cond, addr, 2)           # value under test
            for w in range(work_per_branch):
                reg = 4 + (k * work_per_branch + w + 1) % 12
                op = OpClass.INT_MUL if (k + w) % 3 == 0 else OpClass.INT_ALU
                b.alu(reg, (reg, cond), op=op)
            taken = rng.random() < taken_prob
            # forward branch over a notional block (dynamic stream linear)
            b.branch(taken, b.base_pc + 4 * (b._slot + 2), cond)
        b.alu(2, (2,))
        b.branch(True, b.base_pc, 1)

    return body


# ---------------------------------------------------------------------------
# Family: mixed — blended application-like kernels
# ---------------------------------------------------------------------------

def _make_mixed(footprint: int, mem_ratio: float, store_ratio: float,
                branch_every: int, taken_prob: float,
                fp: bool = False) -> _BodyFn:
    n_elems = max(footprint // _WORD, 64)
    alu_op = OpClass.FP_ADD if fp else OpClass.INT_ALU
    body_ops = 24

    def body(b: _Body, rng: random.Random, it: int, st: dict) -> None:
        for k in range(body_ops):
            r = rng.random()
            if r < mem_ratio * store_ratio:
                addr = rng.randrange(n_elems) * _WORD
                b.store(addr, 1, 4 + k % 12)
            elif r < mem_ratio:
                addr = rng.randrange(n_elems) * _WORD
                b.load(4 + k % 12, addr, 1)
            else:
                dest = 4 + k % 12
                src2 = 4 + (k + 5) % 12
                b.alu(dest, (dest, src2), op=alu_op)
            if branch_every and k % branch_every == branch_every - 1:
                b.branch(rng.random() < taken_prob,
                         b.base_pc + 4 * (b._slot + 2), 4 + k % 12)
        b.alu(1, (1,))
        b.branch(True, b.base_pc, 1)

    return body


# ---------------------------------------------------------------------------
# Family: gather — irregular indexed accesses
# ---------------------------------------------------------------------------

def _make_gather(footprint: int, rmw: bool, stride: int = 0,
                 loads_per_iter: int = 6) -> _BodyFn:
    n_elems = max(footprint // _WORD, 64)

    def body(b: _Body, rng: random.Random, it: int, st: dict) -> None:
        for k in range(loads_per_iter):
            if stride:
                elem = (it * loads_per_iter + k) * stride % n_elems
            else:
                elem = rng.randrange(n_elems)
            addr = elem * _WORD
            dest = 8 + k % 8
            b.load(dest, addr, 2)
            b.alu(dest, (dest, 3))
            if rmw:
                b.store(addr, 2, dest)
        b.alu(2, (2,))
        b.branch(True, b.base_pc, 1)

    return body


# ---------------------------------------------------------------------------
# The 28-benchmark roster
# ---------------------------------------------------------------------------

_SPECS: Dict[str, Tuple[WorkloadSpec, _BodyFn]] = {}


def _register(name: str, family: str, footprint: int, description: str,
              fn: _BodyFn) -> None:
    _SPECS[name] = (WorkloadSpec(name, family, footprint, description), fn)


_register("pchase.l1", "pchase", 16 * _KB,
          "pointer chase resident in L1D, with independent side work",
          _make_pchase(16 * _KB, 1, 2, side_work=2))
_register("pchase.l2", "pchase", 256 * _KB,
          "pointer chase resident in L2, with independent side work",
          _make_pchase(256 * _KB, 1, 2, side_work=2))
_register("pchase.mem", "pchase", 8 * _MB,
          "pointer chase missing to memory", _make_pchase(8 * _MB, 1, 2))
_register("pchase.wide", "pchase", 8 * _MB,
          "four independent memory pointer chases (MLP)",
          _make_pchase(8 * _MB, 4, 1))

_register("stream.copy", "stream", 8 * _MB,
          "copy kernel: 1 load + 1 store per element",
          _make_stream(8 * _MB, 1, 1, 0))
_register("stream.add", "stream", 8 * _MB,
          "add kernel: 2 loads + fp add + 1 store",
          _make_stream(8 * _MB, 2, 1, 1))
_register("stream.triad", "stream", 8 * _MB,
          "triad kernel: 2 loads + 2 fp ops + 1 store",
          _make_stream(8 * _MB, 2, 1, 2))
_register("stream.l2", "stream", 512 * _KB,
          "streaming over an L2-resident working set",
          _make_stream(512 * _KB, 2, 1, 1))

_register("ilp.int4", "ilp", 32 * _KB,
          "4 independent integer chains, mixed latency, L1 loads",
          _make_ilp(4, (OpClass.INT_ALU, OpClass.INT_MUL), 6,
                    loads_every=3))
_register("ilp.int8", "ilp", 0,
          "8 independent integer chains, mixed latency",
          _make_ilp(8, (OpClass.INT_ALU, OpClass.INT_ALU, OpClass.INT_MUL),
                    4))
_register("ilp.fp4", "ilp", 32 * _KB,
          "4 independent FP chains with L1 loads",
          _make_ilp(4, (OpClass.FP_ADD, OpClass.FP_MUL), 6, loads_every=3))
_register("ilp.mul", "ilp", 0,
          "multiply chains interleaved with add chains",
          _make_ilp(4, (OpClass.INT_MUL, OpClass.INT_ALU), 4))

_register("serial.alu", "serial", 0, "single integer ALU dependence chain",
          _make_serial(OpClass.INT_ALU, 24))
_register("serial.mul", "serial", 0,
          "multiply dependence chain with sparse side ops",
          _make_serial(OpClass.INT_MUL, 12, side_every=3))
_register("serial.div", "serial", 0,
          "FP-divide chain with independent side ops",
          _make_serial(OpClass.FP_DIV, 6, side_every=1))
_register("serial.memdep", "serial", 16 * _KB,
          "L1-resident loads feeding the chain, sparse side ops",
          _make_serial(OpClass.INT_ALU, 20, mem_every=5, side_every=4))

_register("branchy.easy", "branchy", 0, "94%-biased branches",
          _make_branchy(0.94, 4, 3))
_register("branchy.hard", "branchy", 0, "70%-biased branches",
          _make_branchy(0.70, 4, 3))
_register("branchy.dense", "branchy", 0, "one branch per 2 ops, 85% bias",
          _make_branchy(0.85, 8, 2))
_register("branchy.flip", "branchy", 0, "55%-biased (near-random) branches",
          _make_branchy(0.55, 3, 4))

_register("mixed.int", "mixed", 96 * _KB,
          "integer blend: 30% memory (L2-resident), branch per 6 ops",
          _make_mixed(96 * _KB, 0.30, 0.25, 6, 0.85))
_register("mixed.fp", "mixed", 256 * _KB,
          "FP blend: 25% memory (L2-resident), sparse branches",
          _make_mixed(256 * _KB, 0.25, 0.2, 12, 0.9, fp=True))
_register("mixed.ptr", "mixed", 256 * _KB,
          "pointer-heavy blend: 40% memory, L2-resident",
          _make_mixed(256 * _KB, 0.40, 0.2, 8, 0.85))
_register("mixed.store", "mixed", 128 * _KB,
          "store-heavy blend: 35% memory, half stores",
          _make_mixed(128 * _KB, 0.35, 0.5, 8, 0.85))

_register("gather.small", "gather", 24 * _KB,
          "random loads over an L1-sized table", _make_gather(24 * _KB, False))
_register("gather.large", "gather", 4 * _MB,
          "random loads over a 4MB table", _make_gather(4 * _MB, False))
_register("gather.rmw", "gather", 256 * _KB,
          "random read-modify-write over 256KB",
          _make_gather(256 * _KB, True))
_register("gather.stride", "gather", 8 * _MB,
          "large-stride loads (one per line)",
          _make_gather(8 * _MB, False, stride=16))

#: The 28 benchmark names, in roster order (paper: 28 of 29 SPEC CPU2006).
BENCHMARK_NAMES: Tuple[str, ...] = tuple(_SPECS)

assert len(BENCHMARK_NAMES) == 28, "roster must hold exactly 28 benchmarks"


def benchmark_spec(name: str) -> WorkloadSpec:
    """Return the :class:`WorkloadSpec` for benchmark *name*."""
    try:
        return _SPECS[name][0]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"choose from {', '.join(BENCHMARK_NAMES)}") from None


@lru_cache(maxsize=256)
def generate(name: str, length: int, seed: int = 0) -> Trace:
    """Generate benchmark *name* as a trace of exactly *length* instructions.

    Generation is deterministic in ``(name, length, seed)`` and cached, so
    repeated experiment runs share trace objects.
    """
    if length <= 0:
        raise ValueError("trace length must be positive")
    spec, fn = _SPECS[name]
    # zlib.crc32 is stable across processes (str hash is randomized).
    rng = random.Random((zlib.crc32(name.encode()) & 0xFFFF) * 31 + seed)
    return Trace(name, _instance(fn, rng, length))


def _instance(fn: _BodyFn, rng: random.Random,
              length: int) -> List[Instruction]:
    """Instance loop body *fn* until it yields *length* instructions."""
    state: dict = {}
    instrs: List[Instruction] = []
    it = 0
    while len(instrs) < length:
        body = _Body(0x1000)
        fn(body, rng, it, state)
        instrs.extend(body.instrs)
        it += 1
    return instrs[:length]
