"""Timing layer: prices warp instructions, owns no architectural state.

This module is one half of the engine split described in ``docs/ENGINE.md``.
The :class:`TimingModel` computes *when* things complete — bank-conflict
replay passes, coalesced transactions, memory-system round trips, lock/
fence/barrier pipeline costs — while :mod:`repro.gpu.functional` computes
*what* happens to architectural state. ``StreamingMultiprocessor`` composes
the two through the event bus.

Every method here is pure with respect to the simulation's functional
state: given the same decoded access it returns the same cost. Each
price has one kernel, picked by the input rather than by a flag: the bank
and atomic sweeps read the lane address list, and coalescing takes the
segment sweep (:func:`coalesce_fast`) when the lane sizes are uniform and
the lane-wise :func:`~repro.gpu.coalescer.coalesce` otherwise.

Timing is computed even when the simulator's ``timing_enabled`` flag is
off: costs feed ``warp.ready_at`` and therefore the event *order*, which
detection results depend on.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence, Set

from repro.common.config import GPUConfig
from repro.common.types import LaneAccess, Transaction
from repro.gpu.coalescer import _shrink, coalesce

#: Cycles a warp waits before re-attempting a contended lock acquire.
LOCK_RETRY_INTERVAL = 40
#: Retry budget before the simulator declares a lock deadlock.
LOCK_RETRY_LIMIT = 1_000_000
#: Fixed barrier pipeline cost (arrival/scoreboard handshake).
BARRIER_BASE_COST = 4
#: Fence completion cost: drain outstanding stores to the L2 point of
#: coherence before the epoch advances.
FENCE_BASE_COST = 60

_SEGMENT = 128


def lane_hit_flags(lane_accesses: Sequence[LaneAccess],
                   txns: Sequence[Transaction],
                   txn_levels: Sequence[str]) -> List[bool]:
    """Map per-transaction hit levels back to per-lane L1-hit flags.

    Coalesced transactions are disjoint address intervals, so one sorted
    interval map built per warp access answers every lane with a binary
    search instead of rescanning the transaction list.
    """
    if not txns:
        return [False] * len(lane_accesses)
    intervals = sorted(
        (txn.addr, txn.addr + txn.size, level == "l1")
        for txn, level in zip(txns, txn_levels)
    )
    starts = [iv[0] for iv in intervals]
    flags: List[bool] = []
    for la in lane_accesses:
        i = bisect_right(starts, la.addr) - 1
        flags.append(i >= 0 and la.addr < intervals[i][1]
                     and intervals[i][2])
    return flags


def coalesce_fast(addrs: Sequence[int], size: int, is_write: bool,
                  lane_accesses: Sequence[LaneAccess]) -> List[Transaction]:
    """Warp-batch coalescer for the common uniform-size, non-straddling case.

    One dict-of-segments sweep over the (at most 32) lane addresses; falls
    back to the scalar :func:`repro.gpu.coalescer.coalesce` when any lane
    straddles a 128-byte segment boundary (the scalar replay-style handling
    is simpler than a batched split). Output is bit-identical: segments are
    emitted in ascending address order, same as the scalar path.
    """
    mask = ~(_SEGMENT - 1)
    segs: Dict[int, List[int]] = {}
    for a in addrs:
        b = a + size
        s = a & mask
        if b > s + _SEGMENT:
            return coalesce(lane_accesses, is_write)
        cur = segs.get(s)
        if cur is None:
            segs[s] = [a, b]
        else:
            if a < cur[0]:
                cur[0] = a
            if b > cur[1]:
                cur[1] = b
    out: List[Transaction] = []
    for s in sorted(segs):
        lo, hi = segs[s]
        out.extend(_shrink(s, lo, hi, is_write, False))
    return out


def bank_conflict_passes(addrs: Sequence[int], bank_width: int,
                         num_banks: int) -> int:
    """Serialized shared-memory passes for one warp's lane addresses.

    Lanes reading the same word broadcast (count once); distinct words
    in the same bank serialize, so the answer is the largest number of
    distinct words any one bank serves. Plain ``//`` and ``%`` keep it
    correct for any bank geometry.
    """
    seen: Set[int] = set()
    add = seen.add
    counts: Dict[int, int] = {}
    get = counts.get
    best = 0
    for a in addrs:
        w = a // bank_width
        if w in seen:
            continue
        add(w)
        b = w % num_banks
        c = get(b, 0) + 1
        counts[b] = c
        if c > best:
            best = c
    return best


class TimingModel:
    """Per-SM timing: shared bank conflicts, global round trips, sync costs."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config

    # -- shared memory -----------------------------------------------------

    def shared_cost(self, addrs: Sequence[int], issue: int) -> int:
        """Cost of one shared-memory warp access (latency + replay passes)."""
        cfg = self.config
        passes = bank_conflict_passes(addrs, cfg.shared_bank_width,
                                      cfg.shared_mem_banks)
        return cfg.shared_latency + passes * issue

    # -- global memory -----------------------------------------------------

    def global_transactions(self, lane_accesses: Sequence[LaneAccess],
                            addrs: Sequence[int],
                            size: int, is_write: bool) -> List[Transaction]:
        """Coalesce one global warp access into memory transactions.

        ``size`` is the lanes' common access size, 0 when they differ:
        mixed-size warps take the lane-wise :func:`coalesce`.
        """
        if size > 0:
            return coalesce_fast(addrs, size, is_write, lane_accesses)
        return coalesce(lane_accesses, is_write)

    def atomic_serialization(self, addrs: Sequence[int], issue: int) -> int:
        """Extra cycles for same-address atomics (serialize in lane order)."""
        per: Dict[int, int] = {}
        best = 0
        for a in addrs:
            c = per.get(a, 0) + 1
            per[a] = c
            if c > best:
                best = c
        return max(best - 1, 0) * issue

    # -- synchronization ---------------------------------------------------

    def fence_cost(self) -> int:
        return FENCE_BASE_COST

    def barrier_cost(self) -> int:
        return BARRIER_BASE_COST

    def lock_cost(self, granted: bool) -> int:
        """Lock acquire: atomic-exchange round trip, or the retry backoff."""
        return self.config.l2_latency if granted else LOCK_RETRY_INTERVAL

    def unlock_cost(self) -> int:
        return self.config.l2_latency
