"""Reference shadow-table walks: the dense numpy scalar state machines.

These are the per-(entry, lane) walks the shadow tables used before their
state went sparse, kept verbatim in behaviour as the executable spec:
dense numpy fields with virgin encoded as ``M=1, S=1``, one
``_check_one`` per (entry, lane) in lane order, and the intra-warp WAW
check on every write warp. ``tests/property/test_fastpath_properties.py``
drives them and the production kernels with the same access streams and
asserts identical race logs, dirtied-entry lists, statistics and
per-entry state.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

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
from repro.core.shadow import VIRGIN_SHARED, SharedEntry, _overlapping_write
from repro.core.shadow_memory import (
    VIRGIN_GLOBAL,
    GlobalEntry,
    GlobalShadowStats,
)


class RefSharedShadowTable:
    """Dense scalar walk of the shared-memory Fig. 3 state machine."""

    def __init__(self, region_bytes: int, granularity: int,
                 log: RaceLog, regroup: bool = False) -> None:
        self.gmap = GranularityMap(granularity)
        self.n = self.gmap.num_entries(region_bytes)
        self.log = log
        self.regroup = regroup
        self.tid = np.full(self.n, -1, dtype=np.int64)
        self.wid = np.full(self.n, -1, dtype=np.int64)
        self.M = np.ones(self.n, dtype=bool)
        self.S = np.ones(self.n, dtype=bool)

    def entry_state(self, entry: int) -> SharedEntry:
        if self.M[entry] and self.S[entry]:
            return VIRGIN_SHARED
        return SharedEntry(int(self.tid[entry]), int(self.wid[entry]),
                           bool(self.M[entry]), bool(self.S[entry]))

    def barrier_reset(self) -> int:
        self.M[:] = True
        self.S[:] = True
        self.tid[:] = -1
        self.wid[:] = -1
        return self.n

    def intra_warp_waw(self, access: WarpAccess) -> int:
        if access.kind == AccessKind.READ:
            return 0
        seen: dict = {}
        new = 0
        for entry, la in self.gmap.lanes_to_entries(access.lanes):
            if la.kind == AccessKind.READ:
                continue
            prev = _overlapping_write(seen, entry, la)
            if prev is None:
                continue
            if self.log.trip(
                RaceCategory.SHARED_BARRIER, RaceKind.WAW, MemSpace.SHARED,
                entry, la.addr,
                owner_tid=access.thread_id(prev.lane),
                access_tid=access.thread_id(la.lane),
                owner_block=access.block_id,
                access_block=access.block_id,
                pc=access.pc,
            ):
                new += 1
        return new

    def check(self, access: WarpAccess) -> int:
        new = self.intra_warp_waw(access)
        for entry, la in self.gmap.lanes_to_entries(access.lanes):
            tid = access.thread_id(la.lane)
            race = self._check_one(entry, tid, access.warp_id,
                                   is_write=la.kind != AccessKind.READ)
            if race is not None:
                if self.log.trip(
                    RaceCategory.SHARED_BARRIER, race, MemSpace.SHARED,
                    entry, la.addr,
                    owner_tid=int(self.tid[entry]),
                    access_tid=tid,
                    owner_block=access.block_id,
                    access_block=access.block_id,
                    pc=access.pc,
                ):
                    new += 1
                if la.kind != AccessKind.READ:
                    self._take_ownership(entry, tid, access.warp_id, True)
        return new

    def _same_owner(self, entry: int, tid: int, wid: int) -> bool:
        if self.regroup:
            return bool(self.tid[entry] == tid)
        return bool(self.wid[entry] == wid)

    def _take_ownership(self, entry: int, tid: int, wid: int,
                        is_write: bool) -> None:
        self.tid[entry] = tid
        self.wid[entry] = wid
        self.M[entry] = is_write
        self.S[entry] = False

    def _check_one(self, entry: int, tid: int, wid: int,
                   is_write: bool) -> Optional[RaceKind]:
        m = self.M[entry]
        s = self.S[entry]
        if m and s:  # State 1: virgin
            self._take_ownership(entry, tid, wid, is_write)
            return None
        if not m and not s:  # State 2: single reader
            if not is_write:
                if not self._same_owner(entry, tid, wid):
                    self.S[entry] = True
                return None
            if self._same_owner(entry, tid, wid):
                self._take_ownership(entry, tid, wid, True)
                return None
            return RaceKind.WAR
        if m and not s:  # State 3: written by owner
            if self._same_owner(entry, tid, wid):
                if is_write:
                    self.tid[entry] = tid
                return None
            return RaceKind.RAW if not is_write else RaceKind.WAW
        # State 4: read by multiple warps
        if not is_write:
            return None
        return RaceKind.WAR


class RefGlobalShadowMemory:
    """Dense scalar walk of the global-memory dispatch (§III-B/C, IV-B)."""

    def __init__(self, region_bytes: int, config: HAccRGConfig,
                 log: RaceLog, rrf: RaceRegisterFile) -> None:
        self.config = config
        self.gmap = GranularityMap(config.global_granularity)
        self.n = self.gmap.num_entries(max(1, region_bytes))
        self.log = log
        self.rrf = rrf
        self.regroup = config.warp_regrouping
        self.stats = GlobalShadowStats()
        n = self.n
        self.tid = np.full(n, -1, dtype=np.int64)
        self.wid = np.full(n, -1, dtype=np.int64)
        self.bid = np.full(n, -1, dtype=np.int32)
        self.sid = np.full(n, -1, dtype=np.int32)
        self.M = np.ones(n, dtype=bool)
        self.S = np.ones(n, dtype=bool)
        self.sync = np.zeros(n, dtype=np.int32)
        self.fence = np.zeros(n, dtype=np.int32)
        self.sig = np.zeros(n, dtype=np.int64)
        self.atomic = np.zeros(n, dtype=bool)
        self._dirtied = False

    def entry_state(self, entry: int) -> GlobalEntry:
        # M=1, S=1 is virgin whatever the other fields hold
        if self.M[entry] and self.S[entry]:
            return VIRGIN_GLOBAL
        return GlobalEntry(
            int(self.tid[entry]), int(self.wid[entry]),
            int(self.bid[entry]), int(self.sid[entry]),
            bool(self.M[entry]), bool(self.S[entry]),
            int(self.sync[entry]), int(self.fence[entry]),
            int(self.sig[entry]), bool(self.atomic[entry]))

    def invalidate(self) -> None:
        self.tid[:] = -1
        self.wid[:] = -1
        self.bid[:] = -1
        self.sid[:] = -1
        self.M[:] = True
        self.S[:] = True
        self.sync[:] = 0
        self.fence[:] = 0
        self.sig[:] = 0
        self.atomic[:] = False

    def intra_warp_waw(self, access: WarpAccess) -> int:
        if access.kind == AccessKind.READ:
            return 0
        seen: dict = {}
        new = 0
        for entry, la in self.gmap.lanes_to_entries(access.lanes):
            if la.kind == AccessKind.READ:
                continue
            prev = _overlapping_write(seen, entry, la)
            if prev is None:
                continue
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
        self.intra_warp_waw(access)
        dirty_only = self.config.shadow_writeback_dirty_only
        dirtied: List[int] = []
        seen = set()
        for i, la in enumerate(access.lanes):
            l1_hit = bool(lane_l1_hit[i]) if lane_l1_hit is not None else False
            for entry in self.gmap.entries_of_range(la.addr, la.size):
                self._dirtied = False
                self._check_one(entry, la, access, l1_hit)
                if (self._dirtied or not dirty_only) and entry not in seen:
                    seen.add(entry)
                    dirtied.append(entry)
        return dirtied

    def _same_owner(self, entry: int, tid: int, wid: int) -> bool:
        if self.regroup:
            return bool(self.tid[entry] == tid)
        return bool(self.wid[entry] == wid)

    def _init_entry(self, entry: int, la: Any, access: WarpAccess,
                    is_write: bool) -> None:
        self._dirtied = True
        self.tid[entry] = access.thread_id(la.lane)
        self.wid[entry] = access.warp_id
        self.bid[entry] = access.block_id
        self.sid[entry] = access.sm_id
        self.M[entry] = is_write
        self.S[entry] = False
        self.sync[entry] = access.sync_id & self.config.sync_id_mask
        self.fence[entry] = access.fence_id & self.config.fence_id_mask
        self.sig[entry] = la.sig if la.critical else 0
        self.atomic[entry] = la.kind == AccessKind.ATOMIC

    def _report(self, entry: int, la: Any, access: WarpAccess,
                kind: RaceKind, category: RaceCategory,
                stale_l1: bool = False) -> None:
        self.log.trip(
            category, kind, MemSpace.GLOBAL, entry, la.addr,
            owner_tid=int(self.tid[entry]),
            access_tid=access.thread_id(la.lane),
            owner_block=int(self.bid[entry]),
            access_block=access.block_id,
            pc=access.pc,
            stale_l1=stale_l1,
        )
        if stale_l1:
            self.stats.stale_l1_reports += 1

    def _check_one(self, entry: int, la: Any, access: WarpAccess,
                   l1_hit: bool) -> None:
        self.stats.checks += 1
        cfg = self.config
        is_write = la.kind != AccessKind.READ
        is_atomic = la.kind == AccessKind.ATOMIC
        tid = access.thread_id(la.lane)
        wid = access.warp_id

        if self.M[entry] and self.S[entry]:
            self._init_entry(entry, la, access, is_write)
            return

        cur_sync = access.sync_id & cfg.sync_id_mask
        if (self.bid[entry] == access.block_id
                and self.sync[entry] != cur_sync):
            self.stats.sync_refreshes += 1
            self._init_entry(entry, la, access, is_write)
            return

        entry_sig = int(self.sig[entry])
        if la.critical or entry_sig != 0:
            self.stats.lockset_checks += 1
            self._lockset_check(entry, la, access, tid, wid,
                                is_write, entry_sig)
            return

        if is_atomic and self.atomic[entry]:
            self.stats.atomic_exemptions += 1
            self._init_entry(entry, la, access, True)
            return

        same_block = self.bid[entry] == access.block_id
        category = (RaceCategory.GLOBAL_BARRIER if same_block
                    else RaceCategory.GLOBAL_FENCE)

        if self.M[entry]:
            if self._same_owner(entry, tid, wid):
                if is_write:
                    self._dirtied = True
                    self.tid[entry] = tid
                    self.fence[entry] = access.fence_id & cfg.fence_id_mask
                    self.atomic[entry] = is_atomic
                return
            if not is_write:
                if (cfg.stale_l1_check_enabled and l1_hit
                        and self.sid[entry] != access.sm_id):
                    self._report(entry, la, access, RaceKind.RAW,
                                 RaceCategory.GLOBAL_FENCE, stale_l1=True)
                    return
                if cfg.fence_check_enabled:
                    owner_now = self.rrf.current_fence(int(self.wid[entry]))
                    if owner_now != self.fence[entry]:
                        self.stats.fence_suppressed += 1
                        return
                self._report(entry, la, access, RaceKind.RAW, category)
                return
            self._report(entry, la, access, RaceKind.WAW,
                         RaceCategory.GLOBAL_BARRIER)
            self._init_entry(entry, la, access, True)
            return

        if not self.S[entry]:
            if not is_write:
                if not self._same_owner(entry, tid, wid) \
                        or self.bid[entry] != access.block_id:
                    self._dirtied = True
                    self.S[entry] = True
                return
            if self._same_owner(entry, tid, wid):
                self._init_entry(entry, la, access, True)
                return
            self._report(entry, la, access, RaceKind.WAR,
                         RaceCategory.GLOBAL_BARRIER)
            self._init_entry(entry, la, access, True)
            return

        if not is_write:
            return
        self._report(entry, la, access, RaceKind.WAR,
                     RaceCategory.GLOBAL_BARRIER)
        self._init_entry(entry, la, access, True)

    def _lockset_check(self, entry: int, la: Any, access: WarpAccess,
                       tid: int, wid: int, is_write: bool,
                       entry_sig: int) -> None:
        cur_sig = la.sig if la.critical else 0
        conflict = bool(self.M[entry]) or is_write

        if self._same_owner(entry, tid, wid):
            new_sig = entry_sig & cur_sig if entry_sig else cur_sig
            if new_sig != entry_sig:
                self._dirtied = True
            self.sig[entry] = new_sig
            if is_write:
                self._dirtied = True
                self.M[entry] = True
                self.tid[entry] = tid
                self.atomic[entry] = la.kind == AccessKind.ATOMIC
            return

        if entry_sig != 0 and cur_sig != 0:
            inter = entry_sig & cur_sig
            if inter == 0 and conflict:
                self._report(entry, la, access,
                             RaceKind.WAW if (self.M[entry] and is_write)
                             else (RaceKind.RAW if self.M[entry]
                                   else RaceKind.WAR),
                             RaceCategory.GLOBAL_LOCKSET)
                self._init_entry(entry, la, access,
                                 is_write or bool(self.M[entry]))
                return
            if (self.config.fence_check_enabled
                    and not is_write and self.M[entry]
                    and self.rrf.current_fence(int(self.wid[entry]))
                    == self.fence[entry]):
                self._report(entry, la, access, RaceKind.RAW,
                             RaceCategory.GLOBAL_FENCE)
                return
            if inter != entry_sig:
                self._dirtied = True
            self.sig[entry] = inter
            if is_write:
                self._dirtied = True
                self.M[entry] = True
                self.tid[entry] = tid
                self.wid[entry] = access.warp_id
                self.fence[entry] = access.fence_id & self.config.fence_id_mask
            elif not self._same_owner(entry, tid, wid):
                self.S[entry] = bool(self.S[entry]) and not self.M[entry]
            return

        if conflict:
            self._report(entry, la, access,
                         RaceKind.WAW if (self.M[entry] and is_write)
                         else (RaceKind.RAW if self.M[entry]
                               else RaceKind.WAR),
                         RaceCategory.GLOBAL_LOCKSET)
            self._init_entry(entry, la, access,
                             is_write or bool(self.M[entry]))
            return
        if self.sig[entry] != 0 or not self.S[entry]:
            self._dirtied = True
        self.sig[entry] = 0
        self.S[entry] = True
