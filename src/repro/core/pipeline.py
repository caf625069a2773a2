"""The cycle-level SMT out-of-order pipeline with the hybrid shelf/IQ window.

Trace-driven timing model.  Stage processing order within one cycle is
writeback -> shelf-retire -> ROB-retire -> issue -> dispatch -> fetch ->
per-cycle ticks, so same-cycle producer/consumer interactions resolve in
dataflow order and instructions dispatched in cycle *c* are issue
candidates from *c+1* on.

Control speculation is modelled by fetch gating: a branch the predictor
gets wrong stops its thread's fetch until the branch resolves (wrong-path
instructions are not simulated, as usual for trace-driven models).  Memory
order violations *are* modelled with a true squash-and-replay — rename
walk-back, structure rollback, trace-cursor rewind — because they exercise
the paper's shelf squash-index and retire-pointer machinery.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CoreConfig
from repro.core.dynamic import DynInstr, slot_or_none
from repro.core.horizon import EventHorizon, fastforward_enabled
from repro.core.lanes import LaneEngine, lanes_enabled
from repro.core.stats import EventCounts, SimResult, ThreadResult
from repro.core.sanitizer import Sanitizer, sanitize_enabled
from repro.core.scoreboard import Scoreboard
from repro.core.steering import SteeringPolicy, make_steering
from repro.core.store_sets import StoreSets
from repro.core.thread_context import ThreadContext
from repro.frontend.branch_predictor import BranchPredictor, make_predictor
from repro.frontend.fetch import make_fetch_policy
from repro.isa.instruction import NUM_ARCH_REGS
from repro.isa.opcodes import DEFAULT_LATENCIES, OpClass, default_fu_pool
from repro.memory.hierarchy import MemoryHierarchy
from repro.rename.freelist import FreeList
from repro.rename.rat import RegisterAliasTable
from repro.trace.trace import Trace


class DeadlockError(RuntimeError):
    """The pipeline made no forward progress for an implausible interval —
    always an invariant bug, never a legitimate outcome."""


class Pipeline:
    """One SMT core executing one trace per hardware thread."""

    #: cycles without any retirement before declaring deadlock.
    DEADLOCK_WINDOW = 50_000

    def __init__(self, config: CoreConfig, traces: Sequence[Trace],
                 steering: Optional[SteeringPolicy] = None,
                 record_schedule: bool = False,
                 fastforward: Optional[bool] = None,
                 lanes: Optional[bool] = None) -> None:
        if len(traces) != config.num_threads:
            raise ValueError(f"{config.num_threads} threads need "
                             f"{config.num_threads} traces, got {len(traces)}")
        self.config = config
        #: structure-of-arrays hot loop (default on; $REPRO_LANES=0 or
        #: lanes=False selects the per-object reference pipeline, exactly
        #: as $REPRO_FASTFORWARD does for the event-driven loop).  Results
        #: are bit-identical either way — see docs/performance.md.
        self.lanes = lanes_enabled() if lanes is None else lanes
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.predictor = make_predictor(config.branch_predictor,
                                        config.num_threads)
        self.fetch_policy = make_fetch_policy(config.fetch_policy,
                                              config.num_threads)
        self.steering = steering if steering is not None \
            else make_steering(config, self.hierarchy, lanes=self.lanes)

        self.phys_fl = FreeList(
            range(NUM_ARCH_REGS * config.num_threads, config.prf_entries),
            name="phys")
        self.ext_fl = FreeList(
            range(config.prf_entries, config.prf_entries + config.ext_tags),
            name="ext")
        self.rat = RegisterAliasTable(config.num_threads, self.phys_fl,
                                      self.ext_fl)
        self.scoreboard = Scoreboard(config.prf_entries + config.ext_tags)
        for tid in range(config.num_threads):
            for arch in range(NUM_ARCH_REGS):
                self.scoreboard.mark_initial(tid * NUM_ARCH_REGS + arch)

        self.threads = [ThreadContext(tid, traces[tid], config)
                        for tid in range(config.num_threads)]
        self.iq: List[DynInstr] = []           #: shared issue queue
        self.fu = default_fu_pool()
        self.store_sets = StoreSets(config.store_set_bits)

        self.cycle = 0
        self._gseq = 0
        self._dispatch_rr = 0
        self._retire_rr = 0
        self._completions: List[Tuple[int, int, DynInstr]] = []  # heap

        self.events = EventCounts()
        # Per-cycle occupancy accumulators (plain ints: the _tick hot path
        # and fast-forward batch updates both touch them every cycle).
        self._occ_iq = 0
        self._occ_rob = 0
        self._occ_shelf = 0
        self._occ_lq = 0
        self._occ_sq = 0
        self._last_retire_cycle = 0
        #: last cycle any instruction was fetched, dispatched, or issued —
        #: the deadlock detector's forward-progress signal alongside
        #: retirement (all three only change on simulated, never on
        #: fast-forwarded, cycles, so the two loop modes agree).
        self._last_activity_cycle = 0
        self._total_retired = 0
        #: optional (cycle, tid, seq, to_shelf) issue log for tests/analysis.
        self.record_schedule = record_schedule
        self.issue_log: List[Tuple[int, int, int, bool]] = []
        #: optional per-retired-instruction lifetime records (see
        #: :mod:`repro.analysis.pipetrace`), only with record_schedule.
        self.instr_log: List[dict] = []

        #: opt-in invariant checker (config.sanitize or $REPRO_SANITIZE);
        #: observational only — sanitized runs stay bit-identical.
        self.sanitizer: Optional[Sanitizer] = \
            Sanitizer(self) if sanitize_enabled(config) else None

        #: event-driven fast-forward (default on; $REPRO_FASTFORWARD=0 or
        #: fastforward=False selects the per-cycle polling reference loop).
        #: Results are bit-identical either way — see docs/performance.md.
        self.fastforward = fastforward_enabled() if fastforward is None \
            else fastforward
        self._horizon = EventHorizon(self)
        #: wakeup-list scheduling (fast mode): min-heap of (ready_cycle,
        #: gseq, dyn) for IQ entries whose sources all have scheduled
        #: writebacks, and the due subset issue actually scans.
        self._ready_heap: List[Tuple[int, int, DynInstr]] = []
        self._ready_iq: List[DynInstr] = []
        #: fast-forward introspection (not part of SimResult).
        self.ff_jumps = 0
        self.ff_skipped_cycles = 0

        #: flat-lane engine: mirrors per-instruction hot state into
        #: parallel int arrays and runs an inlined cycle step over them.
        #: Built last so it can snapshot every structure above.
        self._lane_engine: Optional[LaneEngine] = \
            LaneEngine(self) if self.lanes else None

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self, stop: str = "first", max_cycles: Optional[int] = None,
            warmup_instructions: int = 0) -> SimResult:
        """Simulate until the stop condition; return a :class:`SimResult`.

        Args:
            stop: ``"first"`` ends the run when the first thread retires
                its whole trace (the standard multiprogram methodology —
                contention stays constant); ``"all"`` runs every thread to
                completion (used for single-thread reference runs).
            max_cycles: hard safety bound (default: 400 cycles/instruction).
            warmup_instructions: once every thread has retired this many
                instructions, statistics (event counts, cache/predictor
                counters, per-thread CPI baselines) reset while all
                microarchitectural state stays warm — the paper warms
                structures before its measurement region the same way.
        """
        if stop not in ("first", "all"):
            raise ValueError("stop must be 'first' or 'all'")
        total_instrs = sum(len(t.trace) for t in self.threads)
        limit = max_cycles if max_cycles is not None else 400 * total_instrs
        warm = warmup_instructions
        if warm and warm >= min(len(t.trace) for t in self.threads):
            raise ValueError("warmup must be shorter than the traces")

        if self._lane_engine is not None:
            # The lane engine owns the cycle loop: same stop conditions,
            # warm-up resets, fast-forward jumps, and deadlock checks,
            # with the stage bodies inlined (see repro.core.lanes).
            self._lane_engine.run_loop(stop == "first", limit, warm,
                                       total_instrs)
        else:
            while self.cycle < limit:
                if stop == "first" and \
                        any(t.finished for t in self.threads):
                    break
                if all(t.finished for t in self.threads):
                    break
                if not self.fastforward or not self._try_fast_forward(limit):
                    self.step()
                if warm and all(t.retired >= warm for t in self.threads):
                    self._reset_statistics()
                    warm = 0
                if self.cycle - self._progress_cycle() > \
                        self.DEADLOCK_WINDOW \
                        and not self._progress_scheduled():
                    raise DeadlockError(self._deadlock_report())
            else:
                raise DeadlockError(f"max_cycles={limit} exceeded "
                                    f"({self._total_retired}/"
                                    f"{total_instrs} retired)")
        if self.sanitizer is not None and \
                all(t.finished for t in self.threads):
            self.sanitizer.check_drain(self.cycle)
        return self._result(stop)

    def _reset_statistics(self) -> None:
        """End of warm-up: zero counters, keep all architectural state."""
        self.events = EventCounts()
        self._occ_iq = self._occ_rob = self._occ_shelf = 0
        self._occ_lq = self._occ_sq = 0
        for cache in (self.hierarchy.l1i, self.hierarchy.l1d,
                      self.hierarchy.l2):
            cache.stats.reset()
        self.predictor.lookups = 0
        self.predictor.direction_mispredicts = 0
        self.predictor.target_mispredicts = 0
        for t in self.threads:
            t.lsq.lq_search_events = 0
            t.lsq.sq_search_events = 0
            t.lsq.store_buffer.coalesced = 0
            t.measure_start_cycle = self.cycle
            t.measure_start_retired = t.retired

    def _progress_cycle(self) -> int:
        """Last cycle the pipeline demonstrably moved forward: a
        retirement, or failing that any fetch/dispatch/issue activity
        (a healthy run's longest quiet stretch is bounded by its longest
        memory stall, during which :meth:`_progress_scheduled` covers the
        in-flight writeback)."""
        if self._last_activity_cycle > self._last_retire_cycle:
            return self._last_activity_cycle
        return self._last_retire_cycle

    def _progress_scheduled(self) -> bool:
        """Is any event pending that could still lead to retirement?

        Distinguishes a *stalled-by-design* quiet stretch from a true
        deadlock by looking only at **time-driven** events — ones that
        fire by themselves: an outstanding writeback, an I-miss fill the
        front end is waiting out, or fetched instructions still crossing
        the fetch-to-dispatch pipe.  A legitimate long-latency stall —
        e.g. a DRAM access slower than ``DEADLOCK_WINDOW`` — always keeps
        one such event scheduled, so the detector no longer trips on it;
        a real deadlock only has instructions waiting on conditions that
        never arrive, and still raises.  Events at exactly ``self.cycle``
        count as pending: that cycle has not been simulated yet.
        """
        if self._completions:
            return True
        cycle = self.cycle
        for t in self.threads:
            if not t.trace_done and t.fetch_blocked_until >= cycle:
                return True
            for dyn in t.frontend:
                if dyn.frontend_ready >= cycle:
                    return True
        return False

    def _try_fast_forward(self, limit: int) -> bool:
        """Jump to the next event horizon; False when this cycle is live.

        The jump is clamped to the run's cycle limit and, until the first
        retirement-window checkpoint is reached, to that checkpoint — so
        the deadlock detector evaluates at exactly the cycle the reference
        loop would first raise on.
        """
        cycle = self.cycle
        target = self._horizon.next_event(cycle)
        if target <= cycle:
            return False
        if target > limit:
            target = limit
        checkpoint = self._progress_cycle() + self.DEADLOCK_WINDOW + 1
        if checkpoint > cycle and target > checkpoint:
            target = checkpoint
        if target <= cycle:
            return False
        self._fast_forward(target)
        return True

    def _fast_forward(self, target: int) -> None:
        """Advance to *target* in one jump, batch-applying the per-cycle
        work of the skipped cycles.

        Every skipped cycle is one the horizon proved inactive: no stage
        could fetch, dispatch, issue, write back, or retire, and every
        store buffer was empty — so the reference loop would only have run
        the end-of-cycle ticks.  Those are applied here in closed form:
        SSR and steering countdowns saturate toward zero, the round-robin
        pointers rotate once per cycle, and the occupancy accumulators
        grow linearly at the (frozen) current occupancies.
        """
        cycle = self.cycle
        count = target - cycle
        for thread in self.threads:
            thread.ssr.tick_many(count)
        self.steering.tick_many(cycle, count)
        n = self.config.num_threads
        self._dispatch_rr = (self._dispatch_rr + count) % n
        self._retire_rr = (self._retire_rr + count) % n
        self._occ_iq += count * len(self.iq)
        for thread in self.threads:
            self._occ_rob += count * len(thread.rob)
            self._occ_shelf += count * thread.shelf.occupancy
            self._occ_lq += count * thread.lsq.lq_occupancy
            self._occ_sq += count * thread.lsq.sq_occupancy
        self.ff_jumps += 1
        self.ff_skipped_cycles += count
        self.cycle = target

    def step(self) -> None:
        """Advance the pipeline by one cycle."""
        if self._lane_engine is not None:
            self._lane_engine.step()
            return
        cycle = self.cycle
        for t in self.threads:
            t.head_snapshot = t.issue_tracker.snapshot_head()
        self._writeback(cycle)
        self._shelf_retire_scan(cycle)
        self._retire(cycle)
        self._issue(cycle)
        self._dispatch(cycle)
        self._fetch(cycle)
        self._tick(cycle)
        if self.sanitizer is not None:
            self.sanitizer.check_cycle(cycle)
        self.cycle = cycle + 1

    # ------------------------------------------------------------------
    # writeback / completion
    # ------------------------------------------------------------------

    def _writeback(self, cycle: int) -> None:
        heap = self._completions
        while heap and heap[0][0] <= cycle:
            _, _, dyn = heapq.heappop(heap)
            if dyn.squashed:
                continue
            dyn.completed = True
            self.steering.on_complete(dyn, cycle)
            thread = self.threads[dyn.tid]
            if dyn.dest_tag is not None:
                self.events.prf_writes += 1
                # Every completing producer broadcasts its tag into the IQ
                # CAM — shelf instructions included (their extension tag is
                # exactly what lets IQ consumers wake on them, paper III-C).
                self.events.iq_wakeups += 1
            if dyn.is_store:
                dyn.executed = True
                self.store_sets.store_executed(dyn)
                victim = thread.lsq.violation_load(dyn)
                if victim is not None:
                    self.store_sets.train_violation(victim, dyn)
                    self.events.violations += 1
                    self._squash_thread(thread, victim.seq, cycle)
                    assert not dyn.squashed, \
                        "violating store squashed by its own victim"
            if dyn.is_branch and dyn.mispredicted:
                if thread.pending_branch is dyn:
                    thread.pending_branch = None
                    if cycle + 1 > thread.fetch_blocked_until:
                        thread.fetch_blocked_until = cycle + 1
            if dyn.to_shelf:
                self._try_shelf_retire(thread, dyn, cycle)

    def _shelf_wb_held(self, thread: ThreadContext, dyn: DynInstr) -> bool:
        """Shelf writeback hold: an elder instruction can still squash.

        Relaxed model: elder un-executed stores (memory-order violations).
        TSO additionally keeps everything speculative until all elder
        loads have completed (paper Section III-D).
        """
        if thread.lsq.has_unexecuted_elder_store(dyn.gseq):
            return True
        if self.config.memory_model == "tso" and \
                thread.lsq.has_incomplete_elder_load(dyn.gseq):
            return True
        return False

    def _try_shelf_retire(self, thread: ThreadContext, dyn: DynInstr,
                          cycle: int) -> bool:
        """Shelf writeback-commit: allowed only when no elder instruction
        can still squash *dyn* (realizing the SSR's guarantee exactly)."""
        if self._shelf_wb_held(thread, dyn):
            if dyn not in thread.shelf_wb_pending:
                thread.shelf_wb_pending.append(dyn)
            return False
        if dyn.is_store:
            if not thread.lsq.store_buffer.can_accept(dyn.instr.mem_addr):
                if dyn not in thread.shelf_wb_pending:
                    thread.shelf_wb_pending.append(dyn)
                return False
            thread.lsq.complete_shelf_store(dyn)
            self.events.storebuf_inserts += 1
        thread.shelf.mark_retired(dyn.shelf_idx)
        self.rat.retire(dyn.tid, dyn.rename)
        dyn.retired = True
        dyn.retire_cycle = cycle
        thread.in_flight.remove(dyn)
        self._count_retire(thread, cycle, dyn)
        return True

    def _shelf_retire_scan(self, cycle: int) -> None:
        for thread in self.threads:
            if not thread.shelf_wb_pending:
                continue
            still = []
            for dyn in thread.shelf_wb_pending:
                if dyn.squashed:
                    continue
                if self._shelf_wb_held(thread, dyn) or (
                        dyn.is_store and not thread.lsq.store_buffer
                        .can_accept(dyn.instr.mem_addr)):
                    still.append(dyn)
                else:
                    if dyn.is_store:
                        thread.lsq.complete_shelf_store(dyn)
                        self.events.storebuf_inserts += 1
                    thread.shelf.mark_retired(dyn.shelf_idx)
                    self.rat.retire(dyn.tid, dyn.rename)
                    dyn.retired = True
                    dyn.retire_cycle = cycle
                    thread.in_flight.remove(dyn)
                    self._count_retire(thread, cycle, dyn)
            thread.shelf_wb_pending = still

    def _count_retire(self, thread: ThreadContext, cycle: int,
                      dyn: Optional[DynInstr] = None) -> None:
        thread.retired += 1
        self._total_retired += 1
        self._last_retire_cycle = cycle
        if thread.retired >= len(thread.trace) and thread.finish_cycle is None:
            thread.finish_cycle = cycle
        if self.record_schedule and dyn is not None:
            self.instr_log.append({
                "tid": dyn.tid, "seq": dyn.seq, "op": dyn.op.name,
                "to_shelf": dyn.to_shelf,
                "dispatch": dyn.dispatch_cycle, "issue": dyn.issue_cycle,
                "complete": dyn.complete_cycle, "retire": cycle,
                "forwarded_seq": slot_or_none(dyn, "forwarded_seq"),
            })

    # ------------------------------------------------------------------
    # ROB retirement
    # ------------------------------------------------------------------

    def _retire(self, cycle: int) -> None:
        budget = self.config.retire_width
        n = self.config.num_threads
        for off in range(n):
            thread = self.threads[(self._retire_rr + off) % n]
            while budget and thread.rob:
                head = thread.rob[0]
                if not head.completed:
                    break
                # ROB instructions may not retire before older shelf
                # instructions (paper III-B): the stored shelf squash index
                # doubles as the retire gate.
                if not thread.shelf.all_retired_through(head.shelf_squash_idx):
                    break
                if head.is_store and not thread.lsq.store_buffer.can_accept(
                        head.instr.mem_addr):
                    break
                thread.rob.popleft()
                if head.is_load:
                    thread.lsq.retire_load(head)
                elif head.is_store:
                    thread.lsq.retire_store(head)
                    self.events.storebuf_inserts += 1
                self.rat.retire(head.tid, head.rename)
                head.retired = True
                head.retire_cycle = cycle
                thread.in_flight.remove(head)
                self.events.rob_retires += 1
                self._count_retire(thread, cycle, head)
                budget -= 1
        self._retire_rr = (self._retire_rr + 1) % n

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def _issue(self, cycle: int) -> None:
        width = self.config.issue_width
        fast = self.fastforward
        if fast:
            self._pop_due_ready(cycle)
        while width:
            # Fast mode scans only the wakeup-driven ready set; the
            # reference mode re-scans the whole IQ.  Both produce the same
            # candidate set: an IQ entry passes _iq_ready only once all
            # sources are ready, and by then its producers' issues have
            # pushed it through the ready heap into _ready_iq.
            pool = self._ready_iq if fast else self.iq
            candidates = [d for d in pool if self._iq_ready(d, cycle)]
            for thread in self.threads:
                head = thread.shelf.head
                if head is not None and \
                        self._shelf_eligible(thread, head, cycle):
                    candidates.append(head)
            if not candidates:
                break
            candidates.sort(key=lambda d: d.gseq)
            progressed = False
            for dyn in candidates:
                if not width:
                    break
                if not self.fu.available(dyn.op, cycle):
                    continue
                if self._do_issue(dyn, cycle):
                    width -= 1
                    progressed = True
            if not progressed:
                break

    def _register_wakeup(self, dyn: DynInstr) -> None:
        """IQ dispatch (fast mode): subscribe to unready source tags.

        Each source occurrence whose producer has no scheduled writeback
        adds one waiter registration; the last producer's issue pushes the
        entry onto the ready heap keyed by its operands-ready cycle.  An
        entry with no such sources is scheduled immediately.
        """
        sb = self.scoreboard
        waits = 0
        for tag in dyn.src_tags:
            if sb.is_unwritten(tag):
                sb.add_waiter(tag, dyn)
                waits += 1
        dyn.wake_waits = waits
        if not waits:
            heapq.heappush(self._ready_heap,
                           (sb.earliest_issue(dyn.src_tags), dyn.gseq, dyn))

    def _wake_waiters(self, tag: int) -> None:
        """A producer scheduled its writeback: release *tag*'s waiters."""
        sb = self.scoreboard
        for dyn in sb.take_waiters(tag):
            if dyn.squashed or dyn.issued:
                continue
            dyn.wake_waits -= 1
            if not dyn.wake_waits:
                heapq.heappush(
                    self._ready_heap,
                    (sb.earliest_issue(dyn.src_tags), dyn.gseq, dyn))

    def _pop_due_ready(self, cycle: int) -> None:
        """Migrate heap entries whose ready cycle has arrived into the
        scan set (squashed/issued entries are dropped lazily)."""
        heap = self._ready_heap
        ready = self._ready_iq
        while heap and heap[0][0] <= cycle:
            _, _, dyn = heapq.heappop(heap)
            if not dyn.squashed and not dyn.issued:
                ready.append(dyn)

    def _iq_ready(self, dyn: DynInstr, cycle: int) -> bool:
        if not self.scoreboard.all_ready(dyn.src_tags, cycle):
            return False
        if dyn.is_load:
            if cycle < dyn.retry_after:
                return False  # structural replay: MSHRs were full
            # Store-set dependence captured at dispatch (program order);
            # the load waits until that store produces address+data.
            w = dyn.waiting_store
            if w is not None and not (w.executed or w.squashed):
                return False
        return True

    def _shelf_eligible(self, thread: ThreadContext, dyn: DynInstr,
                        cycle: int) -> bool:
        # In-order gate: all IQ instructions of the run must have issued.
        # Conservative mode uses the start-of-cycle issue-tracker head (no
        # same-cycle issue across the wakeup-select critical path); the
        # optimistic mode sees intra-cycle updates (paper Section III-A).
        head_val = thread.issue_tracker.head \
            if self.config.shelf_same_cycle_issue else thread.head_snapshot
        if head_val <= dyn.last_iq_rob_idx:
            return False
        # Run boundary: snapshot the IQ SSR into the shelf SSR the first
        # time the run's first shelf instruction becomes eligible.
        if dyn.first_in_run and not dyn.ssr_copied:
            thread.ssr.copy_to_shelf()
            dyn.ssr_copied = True
            if self.sanitizer is not None:
                self.sanitizer.check_ssr_merge(thread, cycle)
        if not self.scoreboard.all_ready(dyn.src_tags, cycle):
            return False
        # WAW: the previous writer of the destination must have delivered.
        if dyn.prev_tag is not None and \
                not self.scoreboard.is_ready(dyn.prev_tag, cycle):
            return False
        if not thread.ssr.shelf_may_issue(dyn.latency):
            return False
        if dyn.is_load:
            if cycle < dyn.retry_after:
                return False
            if thread.lsq.has_unexecuted_elder_store(dyn.gseq):
                return False
        if dyn.is_store and not thread.lsq.store_buffer.can_accept(
                dyn.instr.mem_addr):
            return False
        return True

    def _do_issue(self, dyn: DynInstr, cycle: int) -> bool:
        thread = self.threads[dyn.tid]
        latency = dyn.latency
        if dyn.is_load:
            mem_lat = self._load_latency(thread, dyn, cycle)
            if mem_lat is None:
                # L1D MSHRs full: the scheduler replays the load once a
                # fill can have freed an MSHR rather than polling.
                dyn.retry_after = self.hierarchy.replay_cycle(cycle)
                return False
            latency = max(latency, mem_lat)
        elif dyn.is_store:
            latency = 1  # address+data generation

        self.fu.acquire(dyn.op, cycle, latency)
        self.events.fu_ops += 1
        self.events.prf_reads += len(dyn.src_tags)

        # Classification before the order tracker advances.  Paper Section
        # II: an instruction is *reordered* if it issues before its data
        # (incl. false WAW/WAR), speculation, or structural ordering
        # dependences resolve.  In-sequence therefore requires: (a) it is
        # the oldest unissued instruction of its thread (program-order
        # issue — WAR and structural resolve with it); (b) the previous
        # writer of its destination has delivered (a scoreboarded INO core
        # stalls for WAW; renaming is what lets this instruction go); and
        # (c) its writeback lands after all elder speculation resolves
        # (the result-shift-register condition).
        complete = cycle + latency
        in_order = thread.order_tracker.head == dyn.order_idx
        waw_ok = dyn.prev_tag is None or \
            self.scoreboard.is_ready(dyn.prev_tag, cycle)
        spec_ok = complete >= thread.elder_spec_resolution(dyn.order_idx,
                                                           cycle)
        thread.insequence_flags[dyn.seq] = \
            1 if (in_order and waw_ok and spec_ok) else 0

        dyn.issued = True
        dyn.issue_cycle = cycle
        self._last_activity_cycle = cycle
        dyn.complete_cycle = complete
        thread.icount -= 1
        thread.order_tracker.mark_issued(dyn.order_idx)
        if dyn.to_shelf:
            if self.sanitizer is not None:
                self.sanitizer.note_shelf_issue(thread, dyn, cycle)
            popped = thread.shelf.pop_issued()
            assert popped is dyn, "shelf issued out of FIFO order"
            self.events.shelf_issues += 1
        else:
            thread.issue_tracker.mark_issued(dyn.rob_idx)
            self.iq.remove(dyn)
            if self.fastforward:
                self._ready_iq.remove(dyn)
            self.events.iq_issues += 1

        if dyn.dest_tag is not None:
            self.scoreboard.set_ready(dyn.dest_tag, complete)
            if self.fastforward:
                self._wake_waiters(dyn.dest_tag)

        # Speculation accounting for the SSRs and the classifier.
        resolution = 0
        if dyn.is_branch:
            resolution = latency
        elif dyn.is_load and not dyn.to_shelf and (
                thread.lsq.has_unexecuted_elder_store(dyn.gseq)
                or (self.config.memory_model == "tso"
                    and thread.lsq.has_incomplete_elder_load(dyn.gseq))):
            dyn.speculative_load = True
            self.events.speculative_loads += 1
            resolution = self.config.spec_mem_bound
        if resolution:
            if dyn.to_shelf:
                thread.ssr.record_shelf_speculation(resolution)
            else:
                thread.ssr.record_iq_speculation(resolution)
            thread.spec_inflight.append((dyn.order_idx, cycle + resolution))

        heapq.heappush(self._completions, (complete, dyn.gseq, dyn))
        self.steering.on_issue(dyn, cycle)
        if self.record_schedule:
            self.issue_log.append((cycle, dyn.tid, dyn.seq, dyn.to_shelf))
        return True

    def _load_latency(self, thread: ThreadContext, dyn: DynInstr,
                      cycle: int) -> Optional[int]:
        """Resolve a load's data source: forwarding, store buffer, or cache."""
        addr = dyn.instr.mem_addr
        fwd = thread.lsq.find_forwarding_store(dyn)
        if fwd is not None:
            dyn.forwarded_from = fwd.gseq
            dyn.forwarded_seq = fwd.seq
            self.events.forwards += 1
            return self.config.hierarchy.l1d_latency
        if dyn.to_shelf:
            # Paper III-D: a shelf load takes its value from the youngest
            # matching *younger* load that issued early, avoiding an
            # ordering violation.
            young = thread.lsq.find_forwarding_load(dyn)
            if young is not None:
                self.events.forwards += 1
                return self.config.hierarchy.l1d_latency
        if thread.lsq.store_buffer.contains(addr):
            self.events.forwards += 1
            return self.config.hierarchy.l1d_latency
        lat = self.hierarchy.access_data(addr, False, cycle)
        if lat is None:
            return None
        dyn.mem_latency = lat
        return lat

    # ------------------------------------------------------------------
    # dispatch (decode + steer + rename + allocate)
    # ------------------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        budget = self.config.dispatch_width
        n = self.config.num_threads
        for off in range(n):
            if not budget:
                break
            thread = self.threads[(self._dispatch_rr + off) % n]
            while budget and thread.frontend and \
                    thread.frontend[0].frontend_ready <= cycle:
                dyn = thread.frontend[0]
                if dyn.op is OpClass.BARRIER and thread.in_flight:
                    break  # barriers synchronize the pipeline at dispatch
                if not self._dispatch_one(thread, dyn, cycle):
                    break
                thread.frontend.popleft()
                budget -= 1
        self._dispatch_rr = (self._dispatch_rr + 1) % n

    def _dispatch_one(self, thread: ThreadContext, dyn: DynInstr,
                      cycle: int) -> bool:
        """Steer and allocate one instruction; False on structural stall."""
        cfg = self.config
        if dyn.steer_cached is None:
            to_shelf = cfg.shelf_entries > 0 and \
                self.steering.decide(dyn.tid, dyn.instr, cycle)
            dyn.steer_cached = to_shelf
        to_shelf = dyn.steer_cached

        if to_shelf and not self._shelf_path_free(thread, dyn):
            # A full shelf/extension list falls back to the IQ (steering is
            # a heuristic; any placement is architecturally correct) —
            # except under shelf-only steering, whose in-order semantics
            # the fallback would silently break.
            if self.steering.name == "shelf-only":
                return False
            if not self._iq_path_free(thread, dyn):
                return False
            to_shelf = False
            self.events.steer_forced_iq += 1
        elif not to_shelf and not self._iq_path_free(thread, dyn):
            return False

        instr = dyn.instr
        if to_shelf:
            rec = self.rat.rename_shelf(dyn.tid, instr.dest, instr.srcs)
            self.events.renames_shelf += 1
            dyn.to_shelf = True
            thread.shelf.allocate(dyn)
            dyn.last_iq_rob_idx = thread.issue_tracker.last_allocated
            dyn.first_in_run = not thread.last_dispatch_was_shelf
            dyn.ssr_copied = False
            thread.last_dispatch_was_shelf = True
            self.events.shelf_writes += 1
            if dyn.is_load:
                thread.lsq.dispatch_shelf_load(dyn)
            elif dyn.is_store:
                if self.config.memory_model == "tso":
                    # TSO: shelf stores need real SQ entries (III-D).
                    thread.lsq.dispatch_store(dyn)
                    self.events.sq_writes += 1
                else:
                    thread.lsq.dispatch_shelf_store(dyn)
                self.store_sets.store_dispatched(dyn)
        else:
            rec = self.rat.rename_iq(dyn.tid, instr.dest, instr.srcs)
            self.events.renames_iq += 1
            dyn.to_shelf = False
            dyn.rob_idx = thread.issue_tracker.allocate()
            dyn.shelf_squash_idx = thread.shelf.tail
            thread.rob.append(dyn)
            self.iq.append(dyn)
            thread.last_dispatch_was_shelf = False
            self.events.iq_writes += 1
            self.events.rob_writes += 1
            if dyn.is_load:
                thread.lsq.dispatch_load(dyn)
                dyn.waiting_store = self.store_sets.load_must_wait_for(dyn)
                self.events.lq_writes += 1
            elif dyn.is_store:
                thread.lsq.dispatch_store(dyn)
                self.events.sq_writes += 1
                self.store_sets.store_dispatched(dyn)

        dyn.rename = rec
        dyn.src_tags = rec.src_tags
        dyn.dest_tag = rec.tag
        dyn.dest_pri = rec.pri
        dyn.prev_tag = rec.prev_tag
        if dyn.dest_tag is not None:
            self.scoreboard.clear(dyn.dest_tag)
        if self.fastforward and not dyn.to_shelf:
            self._register_wakeup(dyn)
        dyn.order_idx = thread.order_tracker.allocate()
        dyn.dispatch_cycle = cycle
        self._last_activity_cycle = cycle
        thread.in_flight.append(dyn)
        if dyn.op is OpClass.BARRIER:
            self.events.barriers += 1
        self.steering.note_dispatched(dyn, cycle)
        return True

    def _shelf_path_free(self, thread: ThreadContext, dyn: DynInstr) -> bool:
        if self.config.shelf_entries == 0:
            return False
        if not thread.shelf.can_dispatch(thread.rob_reservation()):
            return False
        if dyn.instr.dest is not None and not self.ext_fl.can_allocate():
            return False
        if dyn.is_store and self.config.memory_model == "tso" and \
                not thread.lsq.can_dispatch_store():
            return False
        return True

    def _iq_path_free(self, thread: ThreadContext, dyn: DynInstr) -> bool:
        if len(thread.rob) >= self.config.rob_per_thread:
            return False
        if len(self.iq) >= self.config.iq_entries:
            return False
        if dyn.instr.dest is not None and not self.phys_fl.can_allocate():
            return False
        if dyn.is_load and not thread.lsq.can_dispatch_load():
            return False
        if dyn.is_store and not thread.lsq.can_dispatch_store():
            return False
        return True

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch(self, cycle: int) -> None:
        fetchable = [t.fetchable(cycle) for t in self.threads]
        if not any(fetchable):
            return
        icounts = [t.icount for t in self.threads]
        slots = getattr(self.fetch_policy, "fetch_threads", 1)
        width = max(1, self.config.fetch_width // slots)
        for _slot in range(slots):
            tid = self.fetch_policy.select(fetchable, icounts)
            if tid is None:
                return
            fetchable[tid] = False  # one fetch slot per thread per cycle
            self._fetch_thread(self.threads[tid], cycle, width)

    def _fetch_thread(self, thread: ThreadContext, cycle: int,
                      width: int) -> None:
        tid = thread.tid
        first = thread.cursor.peek()
        assert first is not None
        if thread.ifetch_pending:
            # The miss that blocked this thread has filled: the block is
            # handed to the fetch unit with the fill.
            thread.ifetch_pending = False
        else:
            lat = self.hierarchy.access_inst(first.pc, cycle)
            if lat > self.config.hierarchy.l1i_latency:
                thread.fetch_blocked_until = cycle + lat
                thread.ifetch_pending = True
                return
        space = self.config.frontend_buffer_per_thread - len(thread.frontend)
        for _ in range(min(width, space)):
            instr = thread.cursor.peek()
            if instr is None:
                break
            thread.cursor.advance()
            dyn = DynInstr(tid, thread.cursor.pos - 1, self._gseq, instr,
                           DEFAULT_LATENCIES[instr.op])
            self._gseq += 1
            dyn.frontend_ready = cycle + self.config.fetch_to_dispatch
            thread.frontend.append(dyn)
            thread.icount += 1
            self.events.fetches += 1
            self._last_activity_cycle = cycle
            if instr.is_branch:
                self.events.bpred_lookups += 1
                correct = self.predictor.predict(tid, instr.pc, instr.taken,
                                                 instr.next_pc)
                self.predictor.update(tid, instr.pc, instr.taken,
                                      instr.next_pc)
                if not correct:
                    dyn.mispredicted = True
                    thread.pending_branch = dyn
                    self.events.branch_mispredicts += 1
                    break
                if instr.taken:
                    break  # the fetch block ends at a taken branch

    # ------------------------------------------------------------------
    # squash and replay (memory-order violations)
    # ------------------------------------------------------------------

    def _squash_thread(self, thread: ThreadContext, from_seq: int,
                       cycle: int) -> None:
        """Squash everything of *thread* from trace position *from_seq*
        and rewind the cursor so fetch replays it."""
        self.events.squashes += 1

        kept = [d for d in thread.frontend if d.seq < from_seq]
        for d in thread.frontend:
            if d.seq >= from_seq:
                d.squashed = True
                thread.icount -= 1
                self.events.squashed_instrs += 1
        thread.frontend.clear()
        thread.frontend.extend(kept)
        if thread.pending_branch is not None and \
                thread.pending_branch.seq >= from_seq:
            thread.pending_branch = None

        min_shelf_idx: Optional[int] = None
        while thread.in_flight and thread.in_flight[-1].seq >= from_seq:
            dyn = thread.in_flight.pop()
            dyn.squashed = True
            self.events.squashed_instrs += 1
            if not dyn.issued:
                thread.icount -= 1
            if dyn.rename is not None:
                self.rat.squash(dyn.tid, dyn.rename)
            if dyn.dest_tag is not None:
                self.scoreboard.clear(dyn.dest_tag)
            thread.order_tracker.discard(dyn.order_idx)
            if dyn.to_shelf:
                if min_shelf_idx is None or dyn.shelf_idx < min_shelf_idx:
                    min_shelf_idx = dyn.shelf_idx
            else:
                thread.issue_tracker.discard(dyn.rob_idx)
                if thread.rob and thread.rob[-1] is dyn:
                    thread.rob.pop()
                if dyn.is_store:
                    self.store_sets.store_squashed(dyn)

        thread.lsq.squash_from(from_seq)
        if min_shelf_idx is not None:
            thread.shelf.squash_from(min_shelf_idx)
            if self.sanitizer is not None:
                self.sanitizer.note_shelf_squash(thread, min_shelf_idx)
        thread.shelf_wb_pending = [d for d in thread.shelf_wb_pending
                                   if not d.squashed]
        # In place: the lane engine's run loop holds run-long aliases.
        self.iq[:] = [d for d in self.iq if not d.squashed]
        self._ready_iq[:] = [d for d in self._ready_iq if not d.squashed]
        if self._lane_engine is not None:
            self._lane_engine.drop_squashed_ready()
        thread.cursor.rewind(from_seq)
        if cycle + 1 > thread.fetch_blocked_until:
            thread.fetch_blocked_until = cycle + 1

    # ------------------------------------------------------------------
    # per-cycle ticks
    # ------------------------------------------------------------------

    def _tick(self, cycle: int) -> None:
        for thread in self.threads:
            thread.ssr.tick()
            addr = thread.lsq.store_buffer.drain_one()
            if addr is not None:
                lat = self.hierarchy.access_data(addr, True, cycle)
                if lat is None:
                    thread.lsq.store_buffer.undrain(addr)
                else:
                    self.events.storebuf_drains += 1
        self.steering.tick(cycle)
        self._occ_iq += len(self.iq)
        for thread in self.threads:
            self._occ_rob += len(thread.rob)
            self._occ_shelf += thread.shelf.occupancy
            self._occ_lq += thread.lsq.lq_occupancy
            self._occ_sq += thread.lsq.sq_occupancy

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _result(self, stop: str) -> SimResult:
        cycles = max(self.cycle, 1)
        threads = []
        for t in self.threads:
            measured = t.retired - t.measure_start_retired
            if stop == "all" and t.finish_cycle is not None:
                span = t.finish_cycle - t.measure_start_cycle
                cpi = span / measured if measured else float("inf")
            elif measured > 0:
                cpi = (cycles - t.measure_start_cycle) / measured
            else:
                cpi = float("inf")
            threads.append(ThreadResult(
                tid=t.tid, benchmark=t.trace.name,
                trace_length=len(t.trace), retired=t.retired, cpi=cpi,
                finish_cycle=t.finish_cycle,
                insequence_flags=t.insequence_flags))
        ev = self.events
        ev.lq_searches = sum(t.lsq.lq_search_events for t in self.threads)
        ev.sq_searches = sum(t.lsq.sq_search_events for t in self.threads)
        ev.storebuf_coalesced = sum(t.lsq.store_buffer.coalesced
                                    for t in self.threads)
        # Key order matches the sorted-dict serialization of earlier
        # revisions so result-store digests stay stable.
        occupancy = {
            "iq": self._occ_iq / cycles,
            "lq": self._occ_lq / cycles,
            "rob": self._occ_rob / cycles,
            "shelf": self._occ_shelf / cycles,
            "sq": self._occ_sq / cycles,
        }
        return SimResult(
            config_label=self.config.label(),
            cycles=cycles,
            threads=threads,
            events=ev,
            cache_stats=self.hierarchy.stats(),
            steering_stats=self.steering.stats(),
            occupancy=occupancy,
            bpred_accuracy=self.predictor.accuracy,
        )

    def check_final_invariants(self) -> None:
        """Verify resource accounting after a run-to-completion.

        Only meaningful after ``run(stop='all')``: every structure must be
        empty and every identifier returned to its free list (the paper's
        recycling rules leave exactly the architectural mappings live).
        Raises AssertionError on any leak — used heavily by tests.
        """
        cfg = self.config
        for t in self.threads:
            assert not t.frontend, f"t{t.tid}: front end not drained"
            assert not t.rob, f"t{t.tid}: ROB not drained"
            assert not t.in_flight, f"t{t.tid}: in-flight list not drained"
            assert t.shelf.occupancy == 0, f"t{t.tid}: shelf not drained"
            assert not t.shelf_wb_pending, f"t{t.tid}: shelf WB pending"
            assert t.lsq.lq_occupancy == 0, f"t{t.tid}: LQ not drained"
            assert t.lsq.sq_occupancy == 0, f"t{t.tid}: SQ not drained"
            assert t.shelf.retire_ptr == t.shelf.tail, \
                f"t{t.tid}: unretired shelf indices"
        assert not self.iq, "shared IQ not drained"
        live = NUM_ARCH_REGS * cfg.num_threads
        phys_free_expected = self.phys_fl.capacity - live
        assert self.phys_fl.free_count == phys_free_expected, (
            f"physical register leak: {self.phys_fl.free_count} free, "
            f"expected {phys_free_expected}")
        # Extension tags may stay live while an architectural register's
        # current mapping was produced by the shelf.
        ext_live = 0
        for tid in range(cfg.num_threads):
            for arch in range(NUM_ARCH_REGS):
                pri, tag = self.rat.lookup(tid, arch)
                if tag != pri:
                    ext_live += 1
        assert self.ext_fl.free_count == self.ext_fl.capacity - ext_live, (
            f"extension tag leak: {self.ext_fl.free_count} free, "
            f"{ext_live} legitimately live of {self.ext_fl.capacity}")

    def _deadlock_report(self) -> str:  # pragma: no cover - debug aid
        lines = [f"no retirement since cycle {self._last_retire_cycle} "
                 f"(now {self.cycle}); state:"]
        lines.append(f"  IQ {len(self.iq)}/{self.config.iq_entries}: "
                     f"{self.iq[:6]}")
        for t in self.threads:
            lines.append(
                f"  t{t.tid}: rob={len(t.rob)} shelf={t.shelf.occupancy} "
                f"fe={len(t.frontend)} retired={t.retired} "
                f"pending_br={t.pending_branch} blocked_until="
                f"{t.fetch_blocked_until} ssr=({t.ssr.iq_ssr},"
                f"{t.ssr.shelf_ssr}) shelf_head={t.shelf.head} "
                f"wb_pending={len(t.shelf_wb_pending)}")
            if t.rob:
                lines.append(f"     rob_head={t.rob[0]} squash_idx="
                             f"{t.rob[0].shelf_squash_idx} "
                             f"shelf_retire_ptr={t.shelf.retire_ptr}")
        return "\n".join(lines)


def simulate(config: CoreConfig, traces: Sequence[Trace],
             stop: str = "first", max_cycles: Optional[int] = None,
             warmup_instructions: int = 0) -> SimResult:
    """Convenience one-shot: build a :class:`Pipeline` and run it."""
    return Pipeline(config, traces).run(
        stop=stop, max_cycles=max_cycles,
        warmup_instructions=warmup_instructions)
