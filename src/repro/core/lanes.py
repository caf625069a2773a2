"""Flat-lane (structure-of-arrays) hot path for the cycle loop.

PR 3's event-driven fast-forward removed the per-cycle cost of *idle*
cycles; this module removes the Python-object cost of *busy* ones.  On
compute-bound traces (``ilp.int8``) every cycle has work, and the
reference loop spends most of its time chasing :class:`DynInstr`
attributes through method calls: scoreboard lookups per IQ entry per
cycle, steering/FU/tracker dispatch, and per-event counter updates.

:class:`LaneEngine` keeps the hot per-slot state in parallel flat int
*lanes* indexed by the dense global fetch sequence (``gseq``): opcode
kind, FU latency, thread id, the renamed source-tag triple, source
count, destination tag, previous destination tag (WAW), load replay
cycle, outstanding wakeup count, shelf virtual index, and the SSR
resolution segment recorded at issue.  The lanes are plain Python
lists — see the constructor comment for why they beat ``array('q')``
in CPython.  A parallel ``dyn_of`` list maps each slot back to its
:class:`DynInstr`.

The engine owns the whole run loop (:meth:`run_loop`): ``Pipeline.run``
delegates its cycle loop to one fused function whose locals — lane
aliases, structure handles, config scalars, bound collaborator methods
— are hoisted **once per run** instead of once per stage per cycle.
The seven stage bodies are inlined into that loop, the IQ rename path
writes the RAT map and free lists directly, and event counters are
accumulated in locals and flushed once per stage.  Two rules keep it
bit-identical to the object pipeline:

* **write-through** — every architectural field the object pipeline
  writes (``issued``, ``complete_cycle``, ``dest_tag``, ...) is still
  written on the ``DynInstr``, so all cold paths (squash-and-replay,
  LSQ disambiguation walks, the sanitizer, retire, stats) run the
  unmodified object code;
* **eager structure maintenance** — ``pipe.iq``, ``thread.rob``,
  ``thread.in_flight`` and the LSQ lists are mutated exactly as the
  object pipeline mutates them, so the event horizon, the deadlock
  detector, and ``check_final_invariants`` need no lane awareness
  beyond the issue-horizon's ready-set source.

Issue always runs the wakeup-list machinery (scoreboard waiter lists +
a ``(ready_cycle, gseq)`` min-heap of slot ids), which PR 3's oracle
proved bit-identical to whole-IQ polling.  Three scheduling shortcuts
exploit invariants the polling loop re-derives every cycle:

* **frozen readiness** — a slot enters the due set only once *all* its
  source tags carry final ready cycles ``<= cycle`` (producers issued,
  and a tag's entry cannot change while a live consumer references it:
  the overwriter that recycles it is younger and retires later).  Due
  non-loads therefore need *no* per-cycle operand re-check, and the due
  set splits into ``ready`` (unconditional candidates) and ``ready_ld``
  (loads, which still carry replay and store-set gates);
* **direct-to-ready dispatch** — an instruction whose operands are
  already ready at dispatch time skips the wakeup heap entirely;
* **single-pass issue** — with no shelf configured, issuing never
  creates a same-cycle candidate (every FU latency is >= 1, and load
  gates only change at writeback), so the candidate scan runs once per
  cycle instead of looping until no progress.

``REPRO_LANES=0`` / ``Pipeline(lanes=False)`` selects the per-object
reference pipeline, exactly as ``REPRO_FASTFORWARD=0`` selects the
polling loop; results are bit-identical either way (see
``tests/test_lanes_equivalence.py``) and the mode never enters result
digests.
"""

from __future__ import annotations

from heapq import heappush, heappop
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import envvars
from repro.core.dynamic import DynInstr
from repro.core.scoreboard import UNWRITTEN
from repro.core.steering import (IQOnlySteering, ShelfOnlySteering,
                                 SteeringPolicy)
from repro.isa.opcodes import DEFAULT_LATENCIES, OpClass
from repro.rename.rat import RenameRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import Pipeline
    from repro.core.thread_context import ThreadContext

def lanes_enabled() -> bool:
    """Is the flat-lane engine requested (default: yes)?

    ``REPRO_LANES=0`` selects the per-object pipeline — the reference
    implementation the lane engine must stay bit-identical to.
    Deliberately *not* a :class:`~repro.core.config.CoreConfig` field:
    the mode must not enter result-store digests, exactly like
    ``REPRO_FASTFORWARD`` and ``REPRO_SANITIZE``.
    """
    return envvars.enabled("REPRO_LANES")


#: Every :class:`DynInstr` field the object engines (``pipeline.py`` /
#: ``steering.py``) read on hot paths, mapped to the flat lanes that
#: mirror it — or to ``()`` for fields the lane engine leaves
#: object-resident and reads/writes through the ``DynInstr`` itself
#: (write-through; see the module docstring).  ``repro check``'s
#: LANE301 demands that every hot field read appears here, LANE302 that
#: every named lane exists in :class:`LaneEngine` — so removing an
#: entry (or a lane) fails CI instead of silently desynchronizing the
#: two implementations.  Properties (``is_load`` ...) map to the opcode
#: lane they are derived from.
LANE_REGISTRY: Dict[str, Tuple[str, ...]] = {
    # lane-mirrored fields
    "op": ("opk",), "is_load": ("opk",), "is_store": ("opk",),
    "is_mem": ("opk",), "is_branch": ("opk",),
    "latency": ("lat",),
    "tid": ("tidl",),
    "src_tags": ("src1", "src2", "src3", "nsrc"),
    "dest_tag": ("dest",),
    "prev_tag": ("prev",),
    "retry_after": ("retry",),
    "wake_waits": ("waits",),
    "shelf_idx": ("shelfv",),
    # object-resident fields (lane mode writes through to the DynInstr)
    "seq": (), "gseq": (), "instr": (), "rename": (),
    "frontend_ready": (), "mispredicted": (), "to_shelf": (),
    "dest_pri": (), "rob_idx": (), "last_iq_rob_idx": (),
    "shelf_squash_idx": (), "first_in_run": (), "ssr_copied": (),
    "order_idx": (), "steer_cached": (),
    "dispatch_cycle": (), "issue_cycle": (), "complete_cycle": (),
    "retire_cycle": (),
    "issued": (), "executed": (), "completed": (), "retired": (),
    "squashed": (),
    "mem_latency": (), "forwarded_from": (), "forwarded_seq": (),
    "speculative_load": (), "lq_slot": (), "sq_slot": (),
    "waiting_store": (),
}

#: Lanes with no DynInstr counterpart: engine-internal scheduling state.
INTERNAL_LANES: Tuple[str, ...] = ("ssrseg", "iqp")

#: Opcode kind -> FU group column (int_alu, int_muldiv, fp, mem), the
#: integer image of :data:`repro.isa.opcodes._FU_GROUP`.  ``repro
#: check``'s LANE303 verifies this agrees with the opcodes module.
_FU_GROUP_OF = (0, 1, 1, 2, 2, 2, 3, 3, 0, 0)
_FU_GROUP_NAMES = ("int_alu", "int_muldiv", "fp", "mem")

#: Latency table indexed by opcode kind.
_LAT_BY_OP = tuple(DEFAULT_LATENCIES[OpClass(k)] for k in range(10))

_INT_DIV = int(OpClass.INT_DIV)
_FP_DIV = int(OpClass.FP_DIV)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_BARRIER = int(OpClass.BARRIER)
_BR_OP = OpClass.BRANCH

_CHUNK = 4096


class LaneEngine:
    """Fused run loop over flat instruction-slot lanes.

    One engine per :class:`Pipeline` (created when ``pipe.lanes``);
    :meth:`run_loop` replaces ``Pipeline.run``'s cycle loop, and
    :meth:`step` runs a single fused cycle for manual steppers.
    """

    def __init__(self, pipe: "Pipeline") -> None:
        self.pipe = pipe
        cfg = pipe.config

        # -- lanes, indexed by gseq ------------------------------------
        # Plain lists of small ints, not array('q'): CPython must box
        # and unbox every array element on access, which microbenchmarks
        # at roughly 2x the cost of a list subscript, and the lanes are
        # subscripted ~25 times per simulated instruction.  Small ints
        # are interned/cached, so the memory argument for array() never
        # materializes at simulation scale.
        self._cap = _CHUNK
        self.opk = [0] * _CHUNK     #: opcode kind (int of OpClass)
        self.lat = [0] * _CHUNK     #: base FU latency
        self.tidl = [0] * _CHUNK    #: owning thread id
        self.src1 = [0] * _CHUNK    #: renamed source tags (-1 = none)
        self.src2 = [0] * _CHUNK
        self.src3 = [0] * _CHUNK
        self.nsrc = [0] * _CHUNK    #: number of source operands
        self.dest = [0] * _CHUNK    #: destination tag (-1 = none)
        self.prev = [0] * _CHUNK    #: dest's previous tag (-1 = none)
        self.retry = [0] * _CHUNK   #: load structural-replay cycle
        self.waits = [0] * _CHUNK   #: outstanding wakeup registrations
        self.shelfv = [0] * _CHUNK  #: shelf virtual index
        self.ssrseg = [0] * _CHUNK  #: SSR resolution recorded at issue
        self.iqp = [0] * _CHUNK     #: current position in pipe.iq (IQ path)
        self._lanes = (self.opk, self.lat, self.tidl, self.src1, self.src2,
                       self.src3, self.nsrc, self.dest, self.prev, self.retry,
                       self.waits, self.shelfv, self.ssrseg, self.iqp)
        #: slot id -> live DynInstr (the object API surface).
        self.dyn_of: List[DynInstr] = []

        # -- engine-owned issue scheduling -----------------------------
        #: min-heap of (operands-ready cycle, gseq) — the lane image of
        #: Pipeline._ready_heap, which stays empty in lane mode.
        self.heap: List[Tuple[int, int]] = []
        #: due, unissued IQ slot ids (the lane image of _ready_iq),
        #: split by the only kind that needs per-cycle re-checks.
        #: Both lists are only ever mutated in place — run_loop holds
        #: run-long aliases to them.
        self.ready: List[int] = []       #: non-loads: always candidates
        self.ready_ld: List[int] = []    #: loads: replay/store-set gated

        # -- cached collaborators (never reassigned mid-run) -----------
        self.threads = pipe.threads
        self.sb_ready = pipe.scoreboard._ready
        self.sb_waiters = pipe.scoreboard._waiters
        self.hier = pipe.hierarchy
        self.pred = pipe.predictor
        self.store_sets = pipe.store_sets
        fu = pipe.fu
        self.fu_busy = [fu._busy_until[g] for g in _FU_GROUP_NAMES]
        self.fu_caps = [len(b) for b in self.fu_busy]
        self.fu_used = [0, 0, 0, 0]  #: per-cycle issue counters
        # Rename fast path: the RAT map rows and free-list deques are
        # written directly on the hot IQ path (identical mutations to
        # RegisterAliasTable.rename_iq / retire + FreeList).
        self.rat = pipe.rat
        self.rat_map = pipe.rat._map
        self.phys_fl = pipe.phys_fl
        self.phys_free = pipe.phys_fl._free
        self.phys_in_use = pipe.phys_fl._in_use
        self.ext_free = pipe.ext_fl._free
        self.ext_in_use = pipe.ext_fl._in_use

        # -- config scalars (CoreConfig properties recompute per call) --
        self.c_n = cfg.num_threads
        self.c_retire_w = cfg.retire_width
        self.c_issue_w = cfg.issue_width
        self.c_disp_w = cfg.dispatch_width
        self.c_iq_cap = cfg.iq_entries
        self.c_rob_pt = cfg.rob_per_thread
        self.c_febuf = cfg.frontend_buffer_per_thread
        self.c_f2d = cfg.fetch_to_dispatch
        self.c_l1i = cfg.hierarchy.l1i_latency
        self.c_tso = cfg.memory_model == "tso"
        self.c_has_shelf = cfg.shelf_entries > 0
        self.c_spec = cfg.spec_mem_bound
        self.c_same_cycle = cfg.shelf_same_cycle_issue
        self.c_slots = getattr(pipe.fetch_policy, "fetch_threads", 1)
        self.c_fetch_w = max(1, cfg.fetch_width // self.c_slots)
        self.tlen = [len(t.trace) for t in pipe.threads]

        # -- steering hook elision (rebound if pipe.steering changes) --
        self._st: Optional[SteeringPolicy] = None
        self._bind_steering()

    # ------------------------------------------------------------------
    # capacity / steering binding
    # ------------------------------------------------------------------

    def _grow(self, need: int) -> None:
        new_cap = self._cap
        while new_cap <= need:
            new_cap *= 2
        ext = [0] * (new_cap - self._cap)
        for lane in self._lanes:
            lane.extend(ext)
        self._cap = new_cap

    def _bind_steering(self) -> None:
        """Cache steering entry points, eliding no-op base-class hooks.

        Experiments reassign ``pipe.steering`` after construction, so
        :meth:`run_loop` re-binds whenever the identity changes.
        """
        st = self.pipe.steering
        self._st = st
        cls = type(st)
        self._decide = st.decide
        #: constant decision for the stateless policies (exactly their
        #: decide() return value; skips a call per dispatched instr).
        if cls is IQOnlySteering:
            self._decide_const: Optional[bool] = False
        elif cls is ShelfOnlySteering:
            self._decide_const = True
        else:
            self._decide_const = None
        self._shelf_only = st.name == "shelf-only"
        self._on_issue = st.on_issue \
            if cls.on_issue is not SteeringPolicy.on_issue else None
        self._on_complete = st.on_complete \
            if cls.on_complete is not SteeringPolicy.on_complete else None
        self._note_dispatched = st.note_dispatched \
            if cls.note_dispatched is not SteeringPolicy.note_dispatched \
            else None
        self._steer_tick = st.tick \
            if cls.tick is not SteeringPolicy.tick else None

    # ------------------------------------------------------------------
    # single step (manual steppers / tests)
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the pipeline by one cycle (= ``Pipeline.step``).

        Runs :meth:`run_loop` in single-cycle mode: the per-run hoists
        are repaid every call, so driving a whole simulation through
        ``step()`` is slower than ``run()`` — manual steppers only.
        """
        self.run_loop(False, 0, 0, 0, single=True)

    # ------------------------------------------------------------------
    # the fused run loop
    # ------------------------------------------------------------------

    def run_loop(self, stop_first: bool, limit: int, warm: int,
                 total_instrs: int, single: bool = False) -> None:
        """``Pipeline.run``'s cycle loop with all seven stages inlined.

        Mirrors the reference loop exactly: stop conditions and the
        ``max_cycles`` guard are evaluated before each cycle, warm-up
        statistic resets and the deadlock detector after it, and idle
        fast-forward jumps go through the unmodified object helpers.
        Raises :class:`~repro.core.pipeline.DeadlockError` exactly as
        ``Pipeline.run`` would; the caller builds the result.

        With ``single=True``, executes exactly one cycle and skips the
        run-level checks (the contract of ``Pipeline.step``).
        """
        pipe = self.pipe
        if self._st is not pipe.steering:
            self._bind_steering()

        # ---- run-wide hoists (one-time; the whole point) -------------
        threads = self.threads
        n = self.c_n
        tlen = self.tlen
        dyn_of = self.dyn_of
        opk = self.opk
        latl = self.lat
        src1, src2, src3 = self.src1, self.src2, self.src3
        nsrcl = self.nsrc
        destl = self.dest
        prevl = self.prev
        retry = self.retry
        waitsl = self.waits
        shelfvl = self.shelfv
        ssrsegl = self.ssrseg
        iqp = self.iqp
        rdy = self.sb_ready
        wdict = self.sb_waiters
        wheap = self.heap
        ready = self.ready
        ready_ld = self.ready_ld
        completions = pipe._completions
        iq = pipe.iq
        ev = pipe.events
        rat_map = self.rat_map
        rename_shelf = self.rat.rename_shelf
        phys_fl = self.phys_fl
        phys_free = self.phys_free
        phys_in_use = self.phys_in_use
        ext_free = self.ext_free
        ext_in_use = self.ext_in_use
        store_sets = self.store_sets
        fu_busy = self.fu_busy
        fu_caps = self.fu_caps
        fu_used = self.fu_used
        san = pipe.sanitizer
        record = pipe.record_schedule
        issue_log = pipe.issue_log
        log_append = pipe.instr_log.append
        load_latency = pipe._load_latency
        squash_thread = pipe._squash_thread
        try_shelf_retire = pipe._try_shelf_retire
        shelf_retire_scan = pipe._shelf_retire_scan
        shelf_path_free = pipe._shelf_path_free
        shelf_eligible = pipe._shelf_eligible
        use_ff = pipe.fastforward and not single
        try_ff = pipe._try_fast_forward
        window = pipe.DEADLOCK_WINDOW
        progress_scheduled = pipe._progress_scheduled
        fetch_select = pipe.fetch_policy.select
        fetch_thread = self._fetch_thread
        c_retire_w = self.c_retire_w
        c_issue_w = self.c_issue_w
        c_disp_w = self.c_disp_w
        c_iq_cap = self.c_iq_cap
        c_rob_pt = self.c_rob_pt
        c_febuf = self.c_febuf
        c_tso = self.c_tso
        c_spec = self.c_spec
        c_slots = self.c_slots
        c_fetch_w = self.c_fetch_w
        has_shelf = self.c_has_shelf
        st_obj = self._st
        decide = self._decide
        decide_const = self._decide_const
        shelf_only = self._shelf_only
        on_issue = self._on_issue
        on_complete = self._on_complete
        note_disp = self._note_dispatched
        steer_tick = self._steer_tick
        single_fetch = n == 1 and c_slots == 1
        single_thread = n == 1
        t_first = threads[0]
        tlen_first = tlen[0]
        hier_data = self.hier.access_data
        hier_replay = self.hier.replay_cycle
        #: (thread, issue_tracker, ssr, lsq, store_buffer, shelf, rob)
        rows = [(t, t.issue_tracker, t.ssr, t.lsq, t.lsq.store_buffer,
                 t.shelf, t.rob) for t in threads]
        # Pre-unpacked first row for the single-thread tick fast path.
        # (No lq/sq aliases: squash rebinds those lists on the LSQ.)
        _, _itk_f, ssr_first, lsq_first, sbuf_first, shelf_first, \
            rob_first = rows[0]
        # Occupancy accumulators stay local; flushed on every exit path.
        # Fast-forward jumps add to the pipe attributes directly — the
        # two streams are additive, so the split is sum-preserving.
        occ_iq = occ_rob = occ_shelf = occ_lq = occ_sq = 0

        cycle = pipe.cycle

        try:
            while True:
                if not single:
                    if cycle >= limit:
                        from repro.core.pipeline import DeadlockError
                        raise DeadlockError(
                            f"max_cycles={limit} exceeded "
                            f"({pipe._total_retired}/{total_instrs} "
                            f"retired)")
                    # Shelf instructions retire through the object-path
                    # scan, so completion is re-derived from the retire
                    # counters rather than tracked incrementally.
                    if single_thread:
                        # stop-first and stop-all coincide for one thread.
                        if t_first.retired >= tlen_first:
                            return
                    elif stop_first:
                        fin = False
                        for i in range(n):
                            if threads[i].retired >= tlen[i]:
                                fin = True
                                break
                        if fin:
                            return
                    elif pipe._total_retired >= total_instrs:
                        return
                    if use_ff and try_ff(limit):
                        cycle = pipe.cycle
                        if warm:
                            for t, *_ in rows:
                                if t.retired < warm:
                                    break
                            else:
                                pipe._reset_statistics()
                                occ_iq = occ_rob = occ_shelf = 0
                                occ_lq = occ_sq = 0
                                ev = pipe.events
                                warm = 0
                        la = pipe._last_activity_cycle
                        lr = pipe._last_retire_cycle
                        prog = la if la > lr else lr
                        if cycle - prog > window \
                                and not progress_scheduled():
                            from repro.core.pipeline import DeadlockError
                            raise DeadlockError(pipe._deadlock_report())
                        continue
                if pipe.steering is not st_obj:
                    self._bind_steering()
                    st_obj = self._st
                    decide = self._decide
                    decide_const = self._decide_const
                    shelf_only = self._shelf_only
                    on_issue = self._on_issue
                    on_complete = self._on_complete
                    note_disp = self._note_dispatched
                    steer_tick = self._steer_tick

                # ====== head snapshots (cycle-start tracker state) ====
                # Consumed only by _shelf_eligible's in-order gate, so
                # shelf-free configs skip the loop entirely.
                if has_shelf:
                    for t, itk, *_ in rows:
                        t.head_snapshot = itk.head

                # ====== writeback / completion ========================
                if completions and completions[0][0] <= cycle:
                    writes = 0
                    while completions and completions[0][0] <= cycle:
                        g = heappop(completions)[1]
                        dyn = dyn_of[g]
                        if dyn.squashed:
                            continue
                        dyn.completed = True
                        if on_complete is not None:
                            on_complete(dyn, cycle)
                        thread = threads[dyn.tid]
                        if destl[g] >= 0:
                            writes += 1
                        k = opk[g]
                        if k == _STORE:
                            dyn.executed = True
                            store_sets.store_executed(dyn)
                            victim = thread.lsq.violation_load(dyn)
                            if victim is not None:
                                store_sets.train_violation(victim, dyn)
                                ev.violations += 1
                                squash_thread(thread, victim.seq, cycle)
                                assert not dyn.squashed, \
                                    "violating store squashed by its " \
                                    "own victim"
                        elif k == _BRANCH and dyn.mispredicted:
                            if thread.pending_branch is dyn:
                                thread.pending_branch = None
                                if cycle + 1 > thread.fetch_blocked_until:
                                    thread.fetch_blocked_until = cycle + 1
                        if dyn.to_shelf:
                            try_shelf_retire(thread, dyn, cycle)
                    if writes:
                        # Every completing producer broadcasts its tag
                        # into the IQ CAM.
                        ev.prf_writes += writes
                        ev.iq_wakeups += writes

                # ====== shelf retire scan =============================
                # shelf_wb_pending is only ever populated by shelf
                # writebacks, so the scan is shelf-config-only too.
                if has_shelf:
                    for t, *_ in rows:
                        if t.shelf_wb_pending:
                            shelf_retire_scan(cycle)
                            break

                # ====== ROB retirement ================================
                budget = c_retire_w
                rr = pipe._retire_rr
                retires = 0
                sb_inserts = 0
                for off in range(n):
                    thread, _itk, _ssr, lsq, sbuf, shelf, rob = \
                        rows[(rr + off) % n]
                    while budget and rob:
                        head = rob[0]
                        if not head.completed:
                            break
                        # ROB instructions may not retire before older
                        # shelf instructions: the stored shelf squash
                        # index is the gate.
                        if shelf.retire_ptr < head.shelf_squash_idx:
                            break
                        k = opk[head.gseq]
                        if k == _STORE and not sbuf.can_accept(
                                head.instr.mem_addr):
                            break
                        rob.popleft()
                        if k == _LOAD:
                            lsq.retire_load(head)
                        elif k == _STORE:
                            lsq.retire_store(head)
                            sb_inserts += 1
                        # Inline RegisterAliasTable.retire (identical
                        # releases).
                        rec = head.rename
                        if rec.arch is not None:
                            pp = rec.prev_pri
                            pt = rec.prev_tag
                            if not rec.to_shelf:
                                phys_in_use.remove(pp)
                                phys_free.append(pp)
                            if pt != pp:
                                ext_in_use.remove(pt)
                                ext_free.append(pt)
                        head.retired = True
                        head.retire_cycle = cycle
                        thread.in_flight.remove(head)
                        retires += 1
                        retired = thread.retired + 1
                        thread.retired = retired
                        if retired >= tlen[thread.tid] and \
                                thread.finish_cycle is None:
                            thread.finish_cycle = cycle
                        if record:
                            log_append({
                                "tid": head.tid, "seq": head.seq,
                                "op": head.op.name,
                                "to_shelf": head.to_shelf,
                                "dispatch": head.dispatch_cycle,
                                "issue": head.issue_cycle,
                                "complete": head.complete_cycle,
                                "retire": cycle,
                                "forwarded_seq": getattr(
                                    head, "forwarded_seq", None),
                            })
                        budget -= 1
                pipe._retire_rr = (rr + 1) % n
                if retires:
                    ev.rob_retires += retires
                    pipe._total_retired += retires
                    pipe._last_retire_cycle = cycle
                    if sb_inserts:
                        ev.storebuf_inserts += sb_inserts

                # ====== issue =========================================
                # Migrate due heap entries into the scan sets (squashed
                # and issued entries are dropped lazily, as in
                # Pipeline._pop_due_ready).
                while wheap and wheap[0][0] <= cycle:
                    g = heappop(wheap)[1]
                    d = dyn_of[g]
                    if not d.squashed and not d.issued:
                        if opk[g] == _LOAD:
                            ready_ld.append(g)
                        else:
                            ready.append(g)
                if ready or ready_ld or has_shelf:
                    width = c_issue_w
                    fu_used[0] = fu_used[1] = fu_used[2] = fu_used[3] = 0
                    n_fu = n_reads = n_iq_iss = n_shelf_iss = n_spec = 0
                    while width:
                        # Frozen readiness: every slot in the due sets
                        # has final source-ready cycles <= cycle, so
                        # non-loads are unconditional candidates and
                        # loads check only their issue gates.
                        if ready_ld:
                            cands = []
                            for g in ready_ld:
                                if cycle < retry[g]:
                                    continue  # structural replay (MSHRs full)
                                w = dyn_of[g].waiting_store
                                if w is not None and not (w.executed or
                                                          w.squashed):
                                    continue  # store-set dependence
                                cands.append(g)
                            cands.extend(ready)
                        else:
                            cands = list(ready)
                        if has_shelf:
                            for t, *_ in rows:
                                fifo = t.shelf.fifo
                                if fifo:
                                    head = fifo[0]
                                    if shelf_eligible(t, head, cycle):
                                        cands.append(head.gseq)
                        if not cands:
                            break
                        cands.sort()
                        progressed = False
                        for g in cands:
                            if not width:
                                break
                            # FU availability: groups 0/3 hold no
                            # unpipelined ops, so their busy lists are
                            # permanently zero and availability is the
                            # per-cycle issue counter alone.
                            k = opk[g]
                            gi = _FU_GROUP_OF[k]
                            used = fu_used[gi]
                            if gi == 1 or gi == 2:
                                free = 0
                                for b in fu_busy[gi]:
                                    if b <= cycle:
                                        free += 1
                                if used >= free:
                                    continue
                            elif used >= fu_caps[gi]:
                                continue

                            # ---- fused Pipeline._do_issue ------------
                            dyn = dyn_of[g]
                            thread = threads[dyn.tid]
                            latency = latl[g]
                            if k == _LOAD:
                                mem_lat = load_latency(thread, dyn, cycle)
                                if mem_lat is None:
                                    # L1D MSHRs full: replay once a
                                    # fill can have freed an MSHR.
                                    retry[g] = dyn.retry_after = \
                                        hier_replay(cycle)
                                    continue
                                if mem_lat > latency:
                                    latency = mem_lat
                            elif k == _STORE:
                                latency = 1  # address+data generation

                            fu_used[gi] = used + 1
                            if k == _INT_DIV or k == _FP_DIV:
                                slots = fu_busy[gi]
                                for i, b in enumerate(slots):
                                    if b <= cycle:
                                        slots[i] = cycle + latency
                                        break
                            n_fu += 1
                            n_reads += nsrcl[g]

                            complete = cycle + latency
                            ot = thread.order_tracker
                            oidx = dyn.order_idx
                            in_order = ot.head == oidx
                            pv = prevl[g]
                            waw_ok = pv < 0 or rdy[pv] <= cycle
                            if thread.spec_inflight:
                                spec_ok = complete >= \
                                    thread.elder_spec_resolution(oidx,
                                                                 cycle)
                            else:
                                spec_ok = True
                            thread.insequence_flags[dyn.seq] = \
                                1 if (in_order and waw_ok and spec_ok) \
                                else 0

                            dyn.issued = True
                            dyn.issue_cycle = cycle
                            dyn.complete_cycle = complete
                            thread.icount -= 1
                            un = ot._unissued
                            un[oidx] = 0
                            h = ot.head
                            t_ = ot.tail
                            while h < t_ and not un[h]:
                                h += 1
                            ot.head = h
                            to_shelf = dyn.to_shelf
                            if to_shelf:
                                if san is not None:
                                    san.note_shelf_issue(thread, dyn,
                                                         cycle)
                                popped = thread.shelf.pop_issued()
                                assert popped is dyn, \
                                    "shelf issued out of FIFO order"
                                n_shelf_iss += 1
                            else:
                                it = thread.issue_tracker
                                ridx = dyn.rob_idx
                                un = it._unissued
                                un[ridx] = 0
                                h = it.head
                                t_ = it.tail
                                while h < t_ and not un[h]:
                                    h += 1
                                it.head = h
                                # O(1) swap-remove from the shared IQ
                                # list via the position lane (lane mode
                                # never depends on pipe.iq order).
                                i = iqp[g]
                                last = iq[-1]
                                iq[i] = last
                                iqp[last.gseq] = i
                                iq.pop()
                                if k == _LOAD:
                                    ready_ld.remove(g)
                                else:
                                    ready.remove(g)
                                n_iq_iss += 1

                            dt = destl[g]
                            if dt >= 0:
                                rdy[dt] = complete
                                waiters = wdict.pop(dt, None)
                                if waiters:
                                    for wg in waiters:
                                        wd = dyn_of[wg]
                                        if wd.squashed or wd.issued:
                                            continue
                                        w = waitsl[wg] - 1
                                        waitsl[wg] = w
                                        if not w:
                                            worst = 0
                                            s = src1[wg]
                                            if s >= 0 and rdy[s] > worst:
                                                worst = rdy[s]
                                            s = src2[wg]
                                            if s >= 0 and rdy[s] > worst:
                                                worst = rdy[s]
                                            s = src3[wg]
                                            if s >= 0 and rdy[s] > worst:
                                                worst = rdy[s]
                                            heappush(wheap, (worst, wg))

                            # Speculation accounting for the SSRs and
                            # the classifier.
                            resolution = 0
                            if k == _BRANCH:
                                resolution = latency
                            elif k == _LOAD and not to_shelf:
                                lsq = thread.lsq
                                if lsq.has_unexecuted_elder_store(g) or (
                                        c_tso and
                                        lsq.has_incomplete_elder_load(g)):
                                    dyn.speculative_load = True
                                    n_spec += 1
                                    resolution = c_spec
                            if resolution:
                                ssr = thread.ssr
                                if to_shelf:
                                    if resolution > ssr.shelf_ssr:
                                        ssr.shelf_ssr = resolution
                                    if not ssr.dual and \
                                            resolution > ssr.iq_ssr:
                                        ssr.iq_ssr = resolution
                                else:
                                    if resolution > ssr.iq_ssr:
                                        ssr.iq_ssr = resolution
                                    if not ssr.dual and \
                                            resolution > ssr.shelf_ssr:
                                        ssr.shelf_ssr = resolution
                                thread.spec_inflight.append(
                                    (oidx, cycle + resolution))
                                ssrsegl[g] = resolution

                            heappush(completions, (complete, g))
                            if on_issue is not None:
                                on_issue(dyn, cycle)
                            if record:
                                issue_log.append((cycle, dyn.tid,
                                                  dyn.seq, to_shelf))
                            width -= 1
                            progressed = True
                        # Single-pass issue: without a shelf, no new
                        # candidate can appear within the cycle (all FU
                        # latencies >= 1; load gates change only at
                        # writeback).  A shelf pop exposes the next
                        # FIFO head, so shelf configs re-scan.
                        if not progressed or not has_shelf:
                            break
                    if n_fu:
                        ev.fu_ops += n_fu
                        ev.prf_reads += n_reads
                        if n_iq_iss:
                            ev.iq_issues += n_iq_iss
                        if n_shelf_iss:
                            ev.shelf_issues += n_shelf_iss
                        if n_spec:
                            ev.speculative_loads += n_spec
                        pipe._last_activity_cycle = cycle

                # ====== dispatch ======================================
                budget = c_disp_w
                rr = pipe._dispatch_rr
                n_iq = n_sh = n_forced = n_lq = n_sq = n_barrier = 0
                dispatched = False
                for off in range(n):
                    if not budget:
                        break
                    thread = threads[(rr + off) % n]
                    fe = thread.frontend
                    if not fe:
                        continue
                    # Per-thread hoists for the dispatch burst (these
                    # collaborators are identity-stable per thread).
                    tid = thread.tid
                    lsq = thread.lsq
                    rob = thread.rob
                    itk = thread.issue_tracker
                    otk = thread.order_tracker
                    shelf = thread.shelf
                    in_flight = thread.in_flight
                    row = rat_map[tid]
                    while budget and fe:
                        dyn = fe[0]
                        if dyn.frontend_ready > cycle:
                            break
                        g = dyn.gseq
                        k = opk[g]
                        if k == _BARRIER and in_flight:
                            break  # barriers synchronize at dispatch

                        # ---- fused Pipeline._dispatch_one ------------
                        to_shelf = dyn.steer_cached
                        if to_shelf is None:
                            if decide_const is None:
                                to_shelf = has_shelf and \
                                    decide(dyn.tid, dyn.instr, cycle)
                            else:
                                to_shelf = has_shelf and decide_const
                            dyn.steer_cached = to_shelf
                        instr = dyn.instr
                        dest_arch = instr.dest
                        if to_shelf:
                            if not shelf_path_free(thread, dyn):
                                if shelf_only:
                                    break
                                if len(rob) >= c_rob_pt \
                                        or len(iq) >= c_iq_cap \
                                        or (dest_arch is not None
                                            and not phys_free) \
                                        or (k == _LOAD and not
                                            lsq.can_dispatch_load()) \
                                        or (k == _STORE and not
                                            lsq.can_dispatch_store()):
                                    break
                                to_shelf = False
                                n_forced += 1
                        elif len(rob) >= c_rob_pt \
                                or len(iq) >= c_iq_cap \
                                or (dest_arch is not None
                                    and not phys_free) \
                                or (k == _LOAD and
                                    not lsq.can_dispatch_load()) \
                                or (k == _STORE and
                                    not lsq.can_dispatch_store()):
                            break

                        if to_shelf:
                            rec = rename_shelf(tid, dest_arch, instr.srcs)
                            n_sh += 1
                            dyn.to_shelf = True
                            shelf.allocate(dyn)
                            shelfvl[g] = dyn.shelf_idx
                            dyn.last_iq_rob_idx = itk.tail - 1
                            dyn.first_in_run = \
                                not thread.last_dispatch_was_shelf
                            dyn.ssr_copied = False
                            thread.last_dispatch_was_shelf = True
                            if k == _LOAD:
                                lsq.dispatch_shelf_load(dyn)
                            elif k == _STORE:
                                if c_tso:
                                    lsq.dispatch_store(dyn)
                                    n_sq += 1
                                else:
                                    lsq.dispatch_shelf_store(dyn)
                                store_sets.store_dispatched(dyn)
                        else:
                            # Inline RegisterAliasTable.rename_iq +
                            # FreeList allocate (identical mutations,
                            # no method calls).
                            srcs = instr.srcs
                            ns = len(srcs)
                            if ns == 1:
                                p0, t0 = row[srcs[0]]
                                src_pris = (p0,)
                                src_tags = (t0,)
                            elif ns == 2:
                                p0, t0 = row[srcs[0]]
                                p1, t1 = row[srcs[1]]
                                src_pris = (p0, p1)
                                src_tags = (t0, t1)
                            elif ns == 0:
                                src_pris = src_tags = ()
                            else:
                                pris = []
                                tags = []
                                for s in srcs:
                                    p, t = row[s]
                                    pris.append(p)
                                    tags.append(t)
                                src_pris = tuple(pris)
                                src_tags = tuple(tags)
                            if dest_arch is None:
                                rec = RenameRecord(None, None, None, None,
                                                   None, False, src_tags,
                                                   src_pris)
                            else:
                                prev_pri, prev_tag = row[dest_arch]
                                pri = phys_free.popleft()
                                phys_in_use.add(pri)
                                nf = len(phys_free)
                                if nf < phys_fl.min_free:
                                    phys_fl.min_free = nf
                                row[dest_arch] = (pri, pri)
                                rec = RenameRecord(dest_arch, pri, pri,
                                                   prev_pri, prev_tag,
                                                   False, src_tags,
                                                   src_pris)
                            n_iq += 1
                            dyn.to_shelf = False
                            ridx = itk.tail
                            itk.tail = ridx + 1
                            itk._unissued.append(1)
                            dyn.rob_idx = ridx
                            dyn.shelf_squash_idx = shelf.tail
                            rob.append(dyn)
                            iqp[g] = len(iq)
                            iq.append(dyn)
                            thread.last_dispatch_was_shelf = False
                            if k == _LOAD:
                                lsq.dispatch_load(dyn)
                                dyn.waiting_store = \
                                    store_sets.load_must_wait_for(dyn)
                                n_lq += 1
                            elif k == _STORE:
                                lsq.dispatch_store(dyn)
                                n_sq += 1
                                store_sets.store_dispatched(dyn)

                        dyn.rename = rec
                        st = rec.src_tags
                        dyn.src_tags = st
                        dt = rec.tag
                        dyn.dest_tag = dt
                        dyn.dest_pri = rec.pri
                        pv = rec.prev_tag
                        dyn.prev_tag = pv
                        ns = len(st)
                        nsrcl[g] = ns
                        src1[g] = st[0] if ns > 0 else -1
                        src2[g] = st[1] if ns > 1 else -1
                        src3[g] = st[2] if ns > 2 else -1
                        if dt is not None:
                            destl[g] = dt
                            rdy[dt] = UNWRITTEN
                        else:
                            destl[g] = -1
                        prevl[g] = pv if pv is not None else -1
                        if not dyn.to_shelf:
                            # Wakeup registration (always on in lane
                            # mode — issue scans only the wakeup-driven
                            # ready sets).
                            w = 0
                            for tag in st:
                                if rdy[tag] == UNWRITTEN:
                                    lst = wdict.get(tag)
                                    if lst is None:
                                        wdict[tag] = [g]
                                    else:
                                        lst.append(g)
                                    w += 1
                            waitsl[g] = w
                            if not w:
                                worst = 0
                                for tag in st:
                                    r = rdy[tag]
                                    if r > worst:
                                        worst = r
                                # Direct-to-ready: operands already
                                # final — skip the wakeup heap (the
                                # next issue scan is cycle+1 either
                                # way; candidate order is re-sorted
                                # per cycle).
                                if worst <= cycle:
                                    if k == _LOAD:
                                        ready_ld.append(g)
                                    else:
                                        ready.append(g)
                                else:
                                    heappush(wheap, (worst, g))
                        oidx = otk.tail
                        otk.tail = oidx + 1
                        otk._unissued.append(1)
                        dyn.order_idx = oidx
                        dyn.dispatch_cycle = cycle
                        in_flight.append(dyn)
                        if k == _BARRIER:
                            n_barrier += 1
                        if note_disp is not None:
                            note_disp(dyn, cycle)
                        fe.popleft()
                        budget -= 1
                        dispatched = True
                pipe._dispatch_rr = (rr + 1) % n
                if dispatched:
                    pipe._last_activity_cycle = cycle
                    if n_iq:
                        ev.renames_iq += n_iq
                        ev.iq_writes += n_iq
                        ev.rob_writes += n_iq
                    if n_sh:
                        ev.renames_shelf += n_sh
                        ev.shelf_writes += n_sh
                    if n_forced:
                        ev.steer_forced_iq += n_forced
                    if n_lq:
                        ev.lq_writes += n_lq
                    if n_sq:
                        ev.sq_writes += n_sq
                    if n_barrier:
                        ev.barriers += n_barrier

                # ====== fetch =========================================
                if single_fetch:
                    # Single-thread fast path: select() is stateless
                    # here (the ICOUNT tiebreak pointer stays 0).
                    if (t_first.cursor.pos < tlen_first
                            and cycle >= t_first.fetch_blocked_until
                            and t_first.pending_branch is None
                            and len(t_first.frontend) < c_febuf):
                        fetch_thread(t_first, cycle, c_fetch_w)
                else:
                    # ThreadContext.fetchable, inlined (same predicate
                    # the single-thread fast path uses above).
                    fetchable = [t.cursor.pos < tlen[i]
                                 and cycle >= t.fetch_blocked_until
                                 and t.pending_branch is None
                                 and len(t.frontend) < c_febuf
                                 for i, t in enumerate(threads)]
                    if True in fetchable:
                        icounts = [t.icount for t in threads]
                        for _slot in range(c_slots):
                            tid = fetch_select(fetchable, icounts)
                            if tid is None:
                                break
                            # one fetch slot per thread per cycle
                            fetchable[tid] = False
                            fetch_thread(threads[tid], cycle, c_fetch_w)

                # ====== per-cycle ticks ===============================
                # Single-thread runs use pre-unpacked row components;
                # the loop below is the general SMT form of the same
                # ticks (identical mutations, identical order).
                if single_thread:
                    if ssr_first.iq_ssr:
                        ssr_first.iq_ssr -= 1
                    if ssr_first.shelf_ssr:
                        ssr_first.shelf_ssr -= 1
                    if sbuf_first._entries:
                        addr = sbuf_first.drain_one()
                        lat = hier_data(addr, True, cycle)
                        if lat is None:
                            sbuf_first.undrain(addr)
                        else:
                            ev.storebuf_drains += 1
                    occ_rob += len(rob_first)
                    if has_shelf:
                        occ_shelf += len(shelf_first.fifo)
                    occ_lq += len(lsq_first.lq)
                    occ_sq += len(lsq_first.sq)
                else:
                    for t, _itk, ssr, lsq, sbuf, shelf, rob in rows:
                        if ssr.iq_ssr:
                            ssr.iq_ssr -= 1
                        if ssr.shelf_ssr:
                            ssr.shelf_ssr -= 1
                        if sbuf._entries:
                            addr = sbuf.drain_one()
                            lat = hier_data(addr, True, cycle)
                            if lat is None:
                                sbuf.undrain(addr)
                            else:
                                ev.storebuf_drains += 1
                        occ_rob += len(rob)
                        if has_shelf:
                            occ_shelf += len(shelf.fifo)
                        occ_lq += len(lsq.lq)
                        occ_sq += len(lsq.sq)
                if steer_tick is not None:
                    steer_tick(cycle)
                occ_iq += len(iq)

                if san is not None:
                    san.check_cycle(cycle)
                cycle += 1
                pipe.cycle = cycle
                if single:
                    return

                # ====== post-step run checks ==========================
                if warm:
                    for t, *_ in rows:
                        if t.retired < warm:
                            break
                    else:
                        pipe._reset_statistics()
                        occ_iq = occ_rob = occ_shelf = occ_lq = occ_sq = 0
                        ev = pipe.events
                        warm = 0
                la = pipe._last_activity_cycle
                lr = pipe._last_retire_cycle
                prog = la if la > lr else lr
                if cycle - prog > window and not progress_scheduled():
                    from repro.core.pipeline import DeadlockError
                    raise DeadlockError(pipe._deadlock_report())
        finally:
            pipe._occ_iq += occ_iq
            pipe._occ_rob += occ_rob
            pipe._occ_shelf += occ_shelf
            pipe._occ_lq += occ_lq
            pipe._occ_sq += occ_sq

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch_thread(self, thread: "ThreadContext", cycle: int,
                      width: int) -> None:
        cursor = thread.cursor
        instrs = cursor.trace._instrs
        pos = cursor.pos
        first = instrs[pos]
        if thread.ifetch_pending:
            # The blocking I-miss has filled; the block arrives with it.
            thread.ifetch_pending = False
        else:
            lat = self.hier.access_inst(first.pc, cycle)
            if lat > self.c_l1i:
                thread.fetch_blocked_until = cycle + lat
                thread.ifetch_pending = True
                return
        pipe = self.pipe
        space = self.c_febuf - len(thread.frontend)
        if space > width:
            space = width
        tid = thread.tid
        tlen = self.tlen[tid]
        gseq = pipe._gseq
        ready = cycle + self.c_f2d
        fe_append = thread.frontend.append
        dyn_append = self.dyn_of.append
        # Grow once for the whole burst instead of re-checking per instr.
        if gseq + space >= self._cap:
            self._grow(gseq + space)
        opk, latl, tidl = self.opk, self.lat, self.tidl
        pred = self.pred
        ev = pipe.events
        fetched = 0
        for _ in range(space):
            if pos >= tlen:
                break
            instr = instrs[pos]
            pos += 1
            op = instr.op
            lat_v = _LAT_BY_OP[op]
            dyn = DynInstr(tid, pos - 1, gseq, instr, lat_v)
            opk[gseq] = op
            latl[gseq] = lat_v
            tidl[gseq] = tid
            dyn_append(dyn)
            gseq += 1
            dyn.frontend_ready = ready
            fe_append(dyn)
            fetched += 1
            if op is _BR_OP:
                ev.bpred_lookups += 1
                correct = pred.predict(tid, instr.pc, instr.taken,
                                       instr.next_pc)
                pred.update(tid, instr.pc, instr.taken, instr.next_pc)
                if not correct:
                    dyn.mispredicted = True
                    thread.pending_branch = dyn
                    ev.branch_mispredicts += 1
                    break
                if instr.taken:
                    break  # the fetch block ends at a taken branch
        cursor.pos = pos
        pipe._gseq = gseq
        if fetched:
            thread.icount += fetched
            ev.fetches += fetched
            pipe._last_activity_cycle = cycle

    # ------------------------------------------------------------------
    # squash hook / sanitizer audit
    # ------------------------------------------------------------------

    def drop_squashed_ready(self) -> None:
        """Called by ``Pipeline._squash_thread``: filter the ready scan
        sets exactly as the object pipeline filters ``_ready_iq`` (heap
        and waiter-list entries are dropped lazily).  In-place — the
        run loop holds run-long aliases to both lists."""
        dyn_of = self.dyn_of
        self.ready[:] = [g for g in self.ready if not dyn_of[g].squashed]
        self.ready_ld[:] = [g for g in self.ready_ld
                            if not dyn_of[g].squashed]
        # The squash filter compacted pipe.iq, invalidating the swap-
        # remove position lane — rebuild it for the survivors.
        iqp = self.iqp
        for i, d in enumerate(self.pipe.iq):
            iqp[d.gseq] = i

    def audit(self) -> List[str]:
        """Sanitizer hook: lanes must agree with the object mirror for
        every live, renamed instruction.  Returns problem strings."""
        problems: List[str] = []
        dyn_of = self.dyn_of
        for thread in self.threads:
            for dyn in thread.in_flight:
                g = dyn.gseq
                if g >= len(dyn_of) or dyn_of[g] is not dyn:
                    problems.append(f"slot {g}: dyn_of mirror broken "
                                    f"for {dyn!r}")
                    continue
                if self.opk[g] != int(dyn.op) or self.tidl[g] != dyn.tid:
                    problems.append(f"slot {g}: opcode/thread lanes "
                                    f"disagree with {dyn!r}")
                if dyn.rename is None:
                    continue
                st = dyn.src_tags
                ns = len(st)
                lanes = (self.src1[g], self.src2[g], self.src3[g])
                for i in range(3):
                    want = st[i] if i < ns else -1
                    if lanes[i] != want:
                        problems.append(
                            f"slot {g}: src lane {i} = {lanes[i]}, "
                            f"object says {want}")
                if self.nsrc[g] != ns:
                    problems.append(f"slot {g}: nsrc lane {self.nsrc[g]}, "
                                    f"object has {ns} sources")
                want = dyn.dest_tag if dyn.dest_tag is not None else -1
                if self.dest[g] != want:
                    problems.append(f"slot {g}: dest lane {self.dest[g]}, "
                                    f"object says {want}")
                want = dyn.prev_tag if dyn.prev_tag is not None else -1
                if self.prev[g] != want:
                    problems.append(f"slot {g}: prev lane {self.prev[g]}, "
                                    f"object says {want}")
                if dyn.to_shelf and dyn.shelf_idx is not None and \
                        self.shelfv[g] != dyn.shelf_idx:
                    problems.append(
                        f"slot {g}: shelf index lane {self.shelfv[g]}, "
                        f"object says {dyn.shelf_idx}")
        return problems
