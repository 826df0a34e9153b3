"""Global shadow memory: extended shadow entries for device memory (§IV-B).

Global shadow entries extend the shared-memory triple ``(tid, M, S)`` with:

- ``bid`` / ``sid`` — the owner's thread-block and SM, because global memory
  is visible to all blocks across all SMs;
- ``sync_id`` — the owner block's barrier epoch at access time: matching
  IDs from the *same* block mean the accesses share an epoch and must be
  race-checked, different IDs mean a barrier ordered them and the entry is
  refreshed with the new access;
- ``fence_id`` — the owner warp's fence epoch at write time, compared on a
  cross-warp read against the owner warp's *current* epoch in the race
  register file: a match means the producer never fenced, i.e. the consumer
  may see a stale value (§III-C);
- ``sig`` — the atomic-ID lockset protecting the location so far (bitwise
  intersection over protected accesses, §III-B);
- ``atomic`` — whether every access so far was a hardware atomic (atomics
  serialize in the memory partition and do not race with each other).

Race dispatch order (documented here because the paper distributes it over
three sections): same-block sync refresh -> lockset (which "has priority
over barrier synchronizations" in critical sections) -> atomic-atomic
exemption -> happens-before state machine with fence suppression and the
L1-hit stale-read check.

State is sparse: a dict maps each touched entry index to a ``[tid, wid,
bid, sid, M, S, sync, fence, sig, atomic]`` list, and an absent entry is
virgin. A table costs memory only for the entries a kernel touches, not
for every allocated byte it covers, and the end-of-kernel invalidation is a
``dict.clear()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.common.bitops import ceil_div
from repro.common.config import HAccRGConfig
from repro.common.types import (
    AccessKind,
    MemSpace,
    RaceCategory,
    RaceKind,
    WarpAccess,
)
from repro.core.clocks import RaceRegisterFile
from repro.core.granularity import GranularityMap
from repro.core.races import RaceLog
from repro.core.shadow import _overlapping_write, _writes_overlap

#: field indices of a global entry list
_TID, _WID, _BID, _SID, _M, _S, _SYNC, _FENCE, _SIG, _ATOMIC = range(10)


class GlobalEntry(NamedTuple):
    """Snapshot of one global shadow entry."""

    tid: int
    wid: int
    bid: int
    sid: int
    M: bool
    S: bool
    sync: int
    fence: int
    sig: int
    atomic: bool


#: the state of an entry no access has touched since the last invalidation
VIRGIN_GLOBAL = GlobalEntry(-1, -1, -1, -1, True, True, 0, 0, 0, False)


def global_shadow_footprint(data_bytes: int, granularity: int = 4,
                            entry_bits: int = 36) -> int:
    """Shadow storage (bytes) for ``data_bytes`` of kernel data (Table IV).

    The paper's Table IV reports the fixed global-memory overhead at 4-byte
    granularity; 36-bit entries (basic 28 bits + 8-bit fence ID, §VI-C2)
    reproduce its footprints.
    """
    entries = ceil_div(data_bytes, granularity)
    return ceil_div(entries * entry_bits, 8)


def stored_entry_bits(config: HAccRGConfig) -> int:
    """Bits stored per global shadow entry in device memory.

    The in-memory entry is the 28-bit basic record plus the 8-bit fence ID
    (36 bits, the paper's Table IV configuration); atomic-ID signatures are
    kept in the RDU-side structures for the small set of critical-section
    lines, not in every entry.
    """
    return config.global_entry_bits(with_fence=True, with_atomic=False)


def shadow_region_bytes(region_bytes: int, config: HAccRGConfig) -> int:
    """Device bytes of the shadow region covering ``region_bytes`` of data."""
    return global_shadow_footprint(max(1, region_bytes),
                                   config.global_granularity,
                                   stored_entry_bits(config))


@dataclass
class GlobalShadowStats:
    """Detection-side counters (shadow checks, refreshes, suppressions)."""

    checks: int = 0
    sync_refreshes: int = 0
    fence_suppressed: int = 0
    lockset_checks: int = 0
    atomic_exemptions: int = 0
    stale_l1_reports: int = 0


class GlobalShadowMemory:
    """Shadow entries covering the kernel's global-memory allocations."""

    def __init__(self, region_bytes: int, config: HAccRGConfig,
                 log: RaceLog, rrf: RaceRegisterFile,
                 shadow_base: int = 0) -> None:
        self.config = config
        self.gmap = GranularityMap(config.global_granularity)
        self.n = self.gmap.num_entries(max(1, region_bytes))
        self.log = log
        self.rrf = rrf
        self.regroup = config.warp_regrouping
        self.shadow_base = shadow_base  # device address of the shadow region
        self.entry_bits = stored_entry_bits(config)
        self.stats = GlobalShadowStats()
        #: entry index -> [tid, wid, bid, sid, M, S, sync, fence, sig,
        #: atomic]; absent means virgin
        self.entries: Dict[int, List[Any]] = {}

    def entry_state(self, entry: int) -> GlobalEntry:
        """The state of ``entry`` (:data:`VIRGIN_GLOBAL` if untouched)."""
        st = self.entries.get(entry)
        return VIRGIN_GLOBAL if st is None else GlobalEntry(*st)

    # ------------------------------------------------------------------
    # shadow-address arithmetic (drives the RDU's shadow traffic)

    def shadow_addr_of_entry(self, entry: int) -> int:
        """Device byte address where ``entry`` is stored (packed layout)."""
        return self.shadow_base + (entry * self.entry_bits) // 8

    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """``cudaMemset`` of the shadow region at kernel end (§IV-B)."""
        self.entries.clear()

    # ------------------------------------------------------------------

    def intra_warp_waw(self, access: WarpAccess) -> int:
        """Same-instruction WAW between lanes (associative request check)."""
        if access.kind == AccessKind.READ or not _writes_overlap(access.lanes):
            return 0
        seen: dict = {}
        new = 0
        for entry, la in self.gmap.lanes_to_entries(access.lanes):
            if la.kind == AccessKind.READ:
                continue
            prev = _overlapping_write(seen, entry, la)
            if prev is None:
                continue
            # concurrent atomics to one location serialize; not a race
            if la.kind == AccessKind.ATOMIC and prev.kind == AccessKind.ATOMIC:
                continue
            if self.log.trip(
                RaceCategory.GLOBAL_BARRIER, RaceKind.WAW, MemSpace.GLOBAL,
                entry, la.addr,
                owner_tid=access.thread_id(prev.lane),
                access_tid=access.thread_id(la.lane),
                owner_block=access.block_id,
                access_block=access.block_id,
                pc=access.pc,
            ):
                new += 1
        return new

    def check(self, access: WarpAccess,
              lane_l1_hit: Optional[Sequence[bool]] = None) -> List[int]:
        """Process one warp access; returns the distinct entries touched.

        The entry list is what the RDU turns into shadow-memory traffic
        (one read-modify-write of each entry's shadow word). Only
        *modified* entries need a write-back; re-checks that leave the
        entry unchanged are satisfied from the RDU's copy (unless the
        dirty-only optimization is ablated away).

        Virgin and sync-refresh entries and the happens-before transitions
        that cannot report are handled inline; the lockset path, the
        atomic exemption and cross-owner conflicts go through
        :meth:`_check_one`.
        """
        lanes = access.lanes
        checks, shares_entry = self.gmap.walk(lanes)
        if shares_entry and access.kind != AccessKind.READ:
            # lanes on distinct entries cannot overlap
            self.intra_warp_waw(access)
        cfg = self.config
        dirty_only = cfg.shadow_writeback_dirty_only
        if not dirty_only:
            checks = list(checks)
        entries = self.entries
        regroup = self.regroup
        own = _TID if regroup else _WID
        wid = access.warp_id
        bid = access.block_id
        sid = access.sm_id
        base = access.base_tid
        cur_sync = access.sync_id & cfg.sync_id_mask
        cur_fence = access.fence_id & cfg.fence_id_mask
        read = AccessKind.READ
        atomic = AccessKind.ATOMIC
        dirtied: List[int] = []
        n_checks = 0
        refreshes = 0
        for i, entry, la in checks:
            n_checks += 1
            kind = la[3]
            tid = base + la[0]
            st = entries.get(entry)
            if st is None or (st[_BID] == bid and st[_SYNC] != cur_sync):
                # virgin, or a barrier separates the stored and current
                # accesses of one block (§IV-B): (re)initialize
                if st is not None:
                    refreshes += 1
                entries[entry] = [tid, wid, bid, sid, kind != read, False,
                                  cur_sync, cur_fence,
                                  la[4] if la[5] else 0, kind == atomic]
                dirtied.append(entry)
                continue
            if not (la[5] or st[_SIG] or (kind == atomic and st[_ATOMIC])):
                same = st[own] == (tid if regroup else wid)
                if st[_M]:
                    if same:  # state 3, same owner
                        if kind != read:
                            st[_TID] = tid
                            st[_FENCE] = cur_fence
                            st[_ATOMIC] = kind == atomic
                            dirtied.append(entry)
                        continue
                elif kind == read:  # state 2 or 4 read
                    if not st[_S] and (not same or st[_BID] != bid):
                        st[_S] = True
                        dirtied.append(entry)
                    continue
                elif same and not st[_S]:  # state 2, same-owner write
                    entries[entry] = [tid, wid, bid, sid, True, False,
                                      cur_sync, cur_fence, 0, kind == atomic]
                    dirtied.append(entry)
                    continue
            l1_hit = bool(lane_l1_hit[i]) if lane_l1_hit is not None else False
            if self._check_one(entry, st, la, access, l1_hit):
                dirtied.append(entry)
        stats = self.stats
        stats.checks += n_checks
        stats.sync_refreshes += refreshes
        if not dirty_only:
            return list(dict.fromkeys(c[1] for c in checks))
        return list(dict.fromkeys(dirtied)) if shares_entry else dirtied

    # ------------------------------------------------------------------

    def _same_owner(self, st: List[Any], tid: int, wid: int) -> bool:
        """Owner comparison: by warp normally, by thread under re-grouping."""
        if self.regroup:
            return bool(st[_TID] == tid)
        return bool(st[_WID] == wid)

    def _drop_if_virgin(self, entry: int, st: List[Any]) -> None:
        """A write that sets M on a multi-reader entry (S=1) leaves the
        virgin encoding ``M=1, S=1``: the next access re-initializes it,
        so the entry is dropped."""
        if st[_S]:
            del self.entries[entry]

    def _init_entry(self, entry: int, la: Any, access: WarpAccess,
                    is_write: bool) -> None:
        """Set an entry from a first (or epoch-refreshing) access."""
        self.entries[entry] = [
            access.thread_id(la.lane), access.warp_id, access.block_id,
            access.sm_id, is_write, False,
            access.sync_id & self.config.sync_id_mask,
            access.fence_id & self.config.fence_id_mask,
            la.sig if la.critical else 0,
            la.kind == AccessKind.ATOMIC,
        ]

    def _report(self, entry: int, st: List[Any], la: Any,
                access: WarpAccess, kind: RaceKind,
                category: RaceCategory, stale_l1: bool = False) -> None:
        self.log.trip(
            category, kind, MemSpace.GLOBAL, entry, la.addr,
            owner_tid=st[_TID],
            access_tid=access.thread_id(la.lane),
            owner_block=st[_BID],
            access_block=access.block_id,
            pc=access.pc,
            stale_l1=stale_l1,
        )
        if stale_l1:
            self.stats.stale_l1_reports += 1

    def _check_one(self, entry: int, st: List[Any], la: Any,
                   access: WarpAccess, l1_hit: bool) -> bool:
        """Dispatch past the virgin and sync-refresh steps; returns whether
        the entry was modified."""
        is_write = la.kind != AccessKind.READ
        is_atomic = la.kind == AccessKind.ATOMIC
        tid = access.thread_id(la.lane)
        wid = access.warp_id

        # -- lockset path (priority inside critical sections, §III-B) -------
        entry_sig = st[_SIG]
        if la.critical or entry_sig != 0:
            self.stats.lockset_checks += 1
            return self._lockset_check(entry, st, la, access, tid, wid,
                                       is_write, entry_sig)

        # -- atomic-atomic exemption ----------------------------------------
        if is_atomic and st[_ATOMIC]:
            self.stats.atomic_exemptions += 1
            # serialized RMW chain: latest atomic becomes the owner
            self._init_entry(entry, la, access, True)
            return True

        # -- happens-before state machine ------------------------------------
        same_block = st[_BID] == access.block_id

        if st[_M]:  # owner has written (state 3, since S=0 with M=1)
            if self._same_owner(st, tid, wid):
                if not is_write:
                    return False
                st[_TID] = tid
                st[_FENCE] = access.fence_id & self.config.fence_id_mask
                st[_ATOMIC] = is_atomic
                return True
            if not is_write:
                # RAW candidate: stale-L1 coherence check first (§IV-B)
                if (self.config.stale_l1_check_enabled and l1_hit
                        and st[_SID] != access.sm_id):
                    self._report(entry, st, la, access, RaceKind.RAW,
                                 RaceCategory.GLOBAL_FENCE, stale_l1=True)
                    return False
                # fence suppression: owner fenced since its write => safe
                if self.config.fence_check_enabled:
                    owner_now = self.rrf.current_fence(st[_WID])
                    if owner_now != st[_FENCE]:
                        self.stats.fence_suppressed += 1
                        return False
                self._report(entry, st, la, access, RaceKind.RAW,
                             RaceCategory.GLOBAL_BARRIER if same_block
                             else RaceCategory.GLOBAL_FENCE)
                return False
            # cross-warp write over a write
            self._report(entry, st, la, access, RaceKind.WAW,
                         RaceCategory.GLOBAL_BARRIER)
            self._init_entry(entry, la, access, True)
            return True

        if not st[_S]:  # state 2: single reader
            if not is_write:
                if not self._same_owner(st, tid, wid) or not same_block:
                    st[_S] = True
                    return True
                return False
            if self._same_owner(st, tid, wid):
                self._init_entry(entry, la, access, True)
                return True
            self._report(entry, st, la, access, RaceKind.WAR,
                         RaceCategory.GLOBAL_BARRIER)
            self._init_entry(entry, la, access, True)
            return True

        # state 4: read by multiple warps/blocks
        if not is_write:
            return False
        self._report(entry, st, la, access, RaceKind.WAR,
                     RaceCategory.GLOBAL_BARRIER)
        self._init_entry(entry, la, access, True)
        return True

    # ------------------------------------------------------------------

    def _lockset_check(self, entry: int, st: List[Any], la: Any,
                       access: WarpAccess, tid: int, wid: int,
                       is_write: bool, entry_sig: int) -> bool:
        """§III-B: different-lock and protected/unprotected mixing rules;
        returns whether the entry was modified."""
        cur_sig = la.sig if la.critical else 0
        m = st[_M]
        conflict = m or is_write

        if self._same_owner(st, tid, wid):
            # a thread (warp) cannot race with itself; fold in its lockset
            new_sig = entry_sig & cur_sig if entry_sig else cur_sig
            st[_SIG] = new_sig
            if is_write:
                st[_M] = True
                st[_TID] = tid
                st[_ATOMIC] = la.kind == AccessKind.ATOMIC
                self._drop_if_virgin(entry, st)
                return True
            return bool(new_sig != entry_sig)

        if entry_sig != 0 and cur_sig != 0:
            inter = entry_sig & cur_sig
            if inter == 0 and conflict:
                self._report(entry, st, la, access,
                             RaceKind.WAW if (m and is_write)
                             else (RaceKind.RAW if m else RaceKind.WAR),
                             RaceCategory.GLOBAL_LOCKSET)
                self._init_entry(entry, la, access, is_write or m)
                return True
            # common lock held — but a critical-section read of another
            # warp's write still needs the producer to have fenced before
            # releasing the lock (Fig. 2(b)): the lock hand-off does not
            # order the data write on a non-coherent memory system
            if (self.config.fence_check_enabled
                    and not is_write and m
                    and self.rrf.current_fence(st[_WID]) == st[_FENCE]):
                self._report(entry, st, la, access, RaceKind.RAW,
                             RaceCategory.GLOBAL_FENCE)
                return False
            # store the lockset intersection
            st[_SIG] = inter
            if is_write:
                st[_M] = True
                st[_TID] = tid
                st[_WID] = access.warp_id
                st[_FENCE] = access.fence_id & self.config.fence_id_mask
                self._drop_if_virgin(entry, st)
                return True
            # another owner's read: a written entry stays unshared
            st[_S] = st[_S] and not m
            return bool(inter != entry_sig)

        # protected/unprotected mixing
        if conflict:
            self._report(entry, st, la, access,
                         RaceKind.WAW if (m and is_write)
                         else (RaceKind.RAW if m else RaceKind.WAR),
                         RaceCategory.GLOBAL_LOCKSET)
            self._init_entry(entry, la, access, is_write or m)
            return True
        # read-read across protection domains: drop to unprotected
        dirty = entry_sig != 0 or not st[_S]
        st[_SIG] = 0
        st[_S] = True
        return bool(dirty)
