"""Streaming multiprocessor: the orchestrator over functional and timing.

One :class:`StreamingMultiprocessor` hosts up to ``max_blocks_per_sm``
resident thread blocks (bounded also by threads and shared memory). Each
scheduling step it issues one warp-instruction group from the next ready
warp in round-robin order.

The SM itself owns *neither* semantics nor prices — it composes the two
engine layers (``docs/ENGINE.md``):

1. **decode** — :func:`repro.gpu.functional.decode_warp` turns a warp
   op-group into per-lane :class:`~repro.common.types.LaneAccess` records
   plus the warp's lane address list;
2. **timing** — :class:`repro.gpu.timing.TimingModel` prices the access:
   bank-conflict passes, coalescing, the memory-system round trip;
3. **emission** — the event is published exactly once on the simulator's
   :class:`~repro.events.bus.EventBus`; subscribers (detector, tracer,
   metrics) observe it synchronously with execution, so detection results
   are exact with respect to the simulated interleaving even though timing
   is warp-granular, and the combined
   :class:`~repro.events.effects.TimingEffect` feeds back into the warp's
   wake-up time;
4. **functional execution** — :mod:`repro.gpu.functional` moves lane
   values and advances the warp.

The SM counts nothing itself: dynamic statistics live in the bus's
:class:`~repro.events.metrics.MetricsCollector` (``self.stats`` is a view
onto this SM's slice of it).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import DeadlockError, SimulationError
from repro.common.types import KernelStats, MemSpace, WarpAccess
from repro.events.records import (
    AccessIssued,
    BarrierReleased,
    BlockEnded,
    BlockStarted,
    ComputeIssued,
    FenceIssued,
    IdleAdvanced,
    LockAcquired,
    LockIssued,
    LockReleased,
    UnlockIssued,
)
from repro.gpu import functional
from repro.gpu.block import ThreadBlock
from repro.gpu.ops import (
    OP_ATOMIC,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_LOCK,
    OP_STORE,
    OP_UNLOCK,
)
from repro.gpu.timing import LOCK_RETRY_LIMIT, TimingModel, lane_hit_flags
from repro.gpu.warp import Warp


class StreamingMultiprocessor:
    """One SM: resident blocks, warp scheduler, and the layer composition."""

    def __init__(self, sm_id: int, config, gpu) -> None:
        self.sm_id = sm_id
        self.config = config
        self.gpu = gpu  # GPUSimulator: memory system, event bus, lock table
        self.bus = gpu.bus
        self.cycle = 0
        self.blocks: List[ThreadBlock] = []
        self.warps: List[Warp] = []
        self._rr = 0
        self.timing = TimingModel(config)
        self.idle_cycles = 0
        self.retired_blocks = 0

    @property
    def stats(self) -> KernelStats:
        """This SM's slice of the bus-owned dynamic statistics."""
        return self.gpu.metrics.sm_stats(self.sm_id)

    # ------------------------------------------------------------------
    # residency

    def can_accept(self, launch) -> bool:
        """Check residency limits for one more block of ``launch``."""
        if len(self.blocks) >= self.config.max_blocks_per_sm:
            return False
        resident_threads = sum(
            b.launch.threads_per_block for b in self.blocks
        )
        if resident_threads + launch.threads_per_block > self.config.max_threads_per_sm:
            return False
        shared_needed = launch.kernel.shared_bytes()
        resident_shared = sum(b.launch.kernel.shared_bytes() for b in self.blocks)
        return resident_shared + shared_needed <= self.config.shared_mem_per_sm

    def admit(self, block: ThreadBlock) -> None:
        """Dispatch a block onto this SM."""
        base_warp_id = (
            block.block_id * -(-block.launch.threads_per_block // self.config.warp_size)
        )
        block.materialize(self.sm_id, base_warp_id)
        for w in block.warps:
            w.ready_at = self.cycle
        self.blocks.append(block)
        self.warps.extend(block.warps)
        self.bus.emit_block_start(BlockStarted(block=block, sm_id=self.sm_id))

    @property
    def active(self) -> bool:
        return bool(self.blocks)

    # ------------------------------------------------------------------
    # scheduling

    def step(self) -> None:
        """Make one scheduling decision and advance local time."""
        warp = self._select_warp()
        if warp is None:
            self._advance_idle()
            return
        self._issue(warp)

    def _select_warp(self) -> Optional[Warp]:
        n = len(self.warps)
        for k in range(n):
            w = self.warps[(self._rr + k) % n]
            if w.finished or w.at_barrier:
                continue
            if w.ready_at <= self.cycle:
                self._rr = (self._rr + k + 1) % n
                return w
        return None

    def _advance_idle(self) -> None:
        """No warp is ready: jump local time to the next wake-up event."""
        pending = [
            w.ready_at for w in self.warps if not w.finished and not w.at_barrier
        ]
        if pending:
            target = max(self.cycle + 1, min(pending))
            jumped = target - self.cycle
            self.idle_cycles += jumped
            self.cycle = target
            self.bus.emit_idle(IdleAdvanced(sm_id=self.sm_id, cycles=jumped))
            return
        # every unfinished warp is parked at a barrier: barriers should have
        # been released when the last warp arrived, so this is a divergent
        # barrier (a genuine kernel bug) or an internal error.
        if any(not w.finished for w in self.warps):
            raise DeadlockError(
                f"SM {self.sm_id}: all unfinished warps parked at barrier "
                "with no release possible (divergent barrier?)"
            )
        raise SimulationError(f"SM {self.sm_id}: step() with no unfinished warps")

    # ------------------------------------------------------------------
    # issue

    def _issue(self, warp: Warp) -> None:
        group = warp.next_group()
        issue = self.config.warp_issue_cycles
        if group is None:
            if warp.finished:
                self._maybe_retire(warp.block)
                return
            if warp.at_barrier:
                self._maybe_release_barrier(warp.block)
                return
            raise SimulationError("warp yielded no group but is schedulable")

        key, lanes = group
        code = key[0]

        if code == OP_COMPUTE:
            self._exec_compute(warp, lanes, issue)
        elif code in (OP_LOAD, OP_STORE, OP_ATOMIC):
            space = key[1]
            if space == MemSpace.SHARED:
                self._exec_shared(warp, code, lanes, issue)
            else:
                self._exec_global(warp, code, lanes, issue)
        elif code == OP_FENCE:
            self._exec_fence(warp, lanes, issue)
        elif code == OP_LOCK:
            self._exec_lock(warp, lanes, issue)
        elif code == OP_UNLOCK:
            self._exec_unlock(warp, lanes, issue)
        else:  # pragma: no cover - barrier never reaches here
            raise SimulationError(f"unexpected opcode {code} in issue path")

        # the PC names the op-group just executed; incrementing after the
        # dispatch keeps WarpAccess.pc (and race reports) on the racing
        # instruction rather than its successor
        warp.pc += 1
        self.cycle += issue

    def _exec_compute(self, warp: Warp, lanes, issue: int) -> None:
        # decode + functional execution
        n, total = functional.execute_compute(warp, lanes)
        # emission
        self.bus.emit_compute(ComputeIssued(
            warp=warp, sm_id=self.sm_id, cycle=self.cycle,
            lanes=len(lanes), instructions=total,
        ))
        # timing
        warp.ready_at = self.cycle + max(1, n) * issue

    # -- shared memory ---------------------------------------------------

    def _exec_shared(self, warp: Warp, code: int, lanes, issue: int) -> None:
        block = warp.block
        # decode (clean: lock-free warps skip the per-lane lock-state reads)
        dec = functional.decode_warp(code, lanes, clean=not warp.lock_touched)

        # timing: bank-conflict replay passes
        cost = self.timing.shared_cost(dec.addrs, issue)

        # emission
        access = self._make_warp_access(warp, MemSpace.SHARED, dec)
        effect = self.bus.emit_access(AccessIssued(
            access=access, sm_id=self.sm_id, cycle=self.cycle,
        ))
        cost += effect.stall_cycles

        # functional execution (shared atomics serialize per address in
        # lane order, matching the hardware's conflict replay)
        functional.execute_shared(warp, block, code, lanes, dec.lanes)

        warp.ready_at = self.cycle + cost

    # -- global memory -----------------------------------------------------

    def _exec_global(self, warp: Warp, code: int, lanes, issue: int) -> None:
        # decode (clean: lock-free warps skip the per-lane lock-state reads)
        dec = functional.decode_warp(code, lanes, clean=not warp.lock_touched)

        # timing: coalesce and take the memory-system round trip
        is_write = code != OP_LOAD
        txns = self.timing.global_transactions(dec.lanes, dec.addrs,
                                               dec.size, is_write)
        latency, txn_levels = self.gpu.memory.warp_access(
            self.sm_id, txns, self.cycle,
            id_bits=self.bus.request_id_bits,
        )

        # per-lane L1-hit flags for the stale-read check (§IV-B)
        lane_l1_hit = lane_hit_flags(dec.lanes, txns, txn_levels)

        # atomics bypass L1 and serialize per distinct address
        if code == OP_ATOMIC:
            latency += self.timing.atomic_serialization(dec.addrs, issue)

        # emission
        access = self._make_warp_access(warp, MemSpace.GLOBAL, dec)
        effect = self.bus.emit_access(AccessIssued(
            access=access, sm_id=self.sm_id, cycle=self.cycle,
            lane_l1_hit=lane_l1_hit,
        ))
        warp.block.global_accessed_since_barrier = True

        # functional execution
        functional.execute_global(warp, self.gpu.device_mem, code, lanes,
                                  dec.lanes)

        warp.ready_at = self.cycle + latency + effect.stall_cycles

    # -- synchronization -----------------------------------------------------

    def _exec_fence(self, warp: Warp, lanes, issue: int) -> None:
        # scope rides in the op tuple's second slot ((OP_FENCE,) = device,
        # (OP_FENCE, 1) = system); read it before execute_fence clears the
        # lanes' pending ops
        op = lanes[0][1].pending
        scope = op[1] if len(op) > 1 else 0
        # functional execution
        functional.execute_fence(warp, lanes)
        # emission + timing
        effect = self.bus.emit_fence(FenceIssued(
            warp=warp, sm_id=self.sm_id, cycle=self.cycle, lanes=len(lanes),
            scope=scope, warp_id=warp.warp_id,
            block_id=warp.block.block_id,
        ))
        warp.ready_at = self.cycle + self.timing.fence_cost() + effect.stall_cycles

    def _exec_lock(self, warp: Warp, lanes, issue: int) -> None:
        warp.lock_touched = True
        table = self.gpu.lock_table
        granted = 0
        for lane_idx, t in lanes:
            addr = t.pending[1]
            if table.try_acquire(addr, t.global_tid):
                t.held_locks.append(addr)
                t.critical_depth += 1
                t.lock_sig = self.bus.lock_acquired(LockAcquired(
                    thread=t, addr=addr, sm_id=self.sm_id, cycle=self.cycle,
                ))
                warp.complete_lane(t)
                granted += 1
            # ungranted lanes keep their pending op; the warp retries
        self.bus.emit_lock(LockIssued(
            warp=warp, sm_id=self.sm_id, cycle=self.cycle,
            attempts=len(lanes), granted=granted,
        ))
        if granted:
            warp.retries = 0
        else:
            warp.retries += 1
            if warp.retries > LOCK_RETRY_LIMIT:
                raise DeadlockError(
                    f"warp {warp.warp_id} exceeded lock retry budget"
                )
        warp.ready_at = self.cycle + self.timing.lock_cost(granted > 0)

    def _exec_unlock(self, warp: Warp, lanes, issue: int) -> None:
        table = self.gpu.lock_table
        for lane_idx, t in lanes:
            addr = t.pending[1]
            table.release(addr, t.global_tid)
            t.held_locks.remove(addr)
            t.critical_depth -= 1
            t.lock_sig = self.bus.lock_released(LockReleased(
                thread=t, addr=addr, sm_id=self.sm_id, cycle=self.cycle,
            ))
            warp.complete_lane(t)
        self.bus.emit_unlock(UnlockIssued(
            warp=warp, sm_id=self.sm_id, cycle=self.cycle, lanes=len(lanes),
        ))
        warp.ready_at = self.cycle + self.timing.unlock_cost()

    # ------------------------------------------------------------------
    # barriers and retirement

    def _maybe_release_barrier(self, block: ThreadBlock) -> None:
        if not block.all_at_barrier():
            return
        # release_barrier only resets barrier state, so the lanes that will
        # be released are exactly the live lanes of the parked warps
        released_lanes = sum(
            len(w.live_lanes()) for w in block.warps if w.at_barrier
        )
        effect = self.bus.emit_barrier(BarrierReleased(
            block=block, sm_id=self.sm_id, cycle=self.cycle,
            released_lanes=released_lanes,
        ))
        release_at = self.cycle + self.timing.barrier_cost() + effect.stall_cycles
        block.release_barrier(release_at, lazy_sync=self.gpu.sync_id_lazy)

    def _maybe_retire(self, block: ThreadBlock) -> None:
        if not block.check_done():
            return
        self.blocks.remove(block)
        # remap the round-robin pointer past the removed warps: resetting
        # it to 0 would bias scheduling back to warp 0 after every block
        # retirement
        removed_before = sum(
            1 for w in self.warps[:self._rr] if w.block is block
        )
        self.warps = [w for w in self.warps if w.block is not block]
        self._rr = ((self._rr - removed_before) % len(self.warps)
                    if self.warps else 0)
        self.retired_blocks += 1
        self.bus.emit_block_end(BlockEnded(block=block, sm_id=self.sm_id))
        self.gpu.on_block_retired(self)

    # ------------------------------------------------------------------

    def _make_warp_access(self, warp: Warp, space: MemSpace,
                          dec: functional.DecodedAccess) -> WarpAccess:
        block = warp.block
        base_tid = (
            block.block_id * block.launch.threads_per_block
            + warp.warp_in_block * self.config.warp_size
        )
        return WarpAccess(
            space=space,
            kind=dec.kind,
            lanes=dec.lanes,
            sm_id=self.sm_id,
            block_id=block.block_id,
            warp_id=warp.warp_id,
            warp_in_block=warp.warp_in_block,
            base_tid=base_tid,
            sync_id=block.sync_id,
            fence_id=warp.fence_id,
            in_critical=dec.critical_any,
            pc=warp.pc,
            regroup=self.gpu.warp_regrouping,
        )
