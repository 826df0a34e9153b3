"""Shared-memory shadow table: the Fig. 3 state machine.

Each shared-memory shadow entry holds ``(tid, M, S)``:

- **State 1** ``M=1, S=1`` — virgin (no access since the last barrier);
- **State 2** ``M=0, S=0`` — read by exactly the thread in ``tid``;
- **State 3** ``M=1, S=0`` — written (at least once) by ``tid``;
- **State 4** ``M=0, S=1`` — read by threads of more than one warp.

Races are reported only between threads of *different warps* (threads of a
warp execute in lockstep and cannot race across instructions), except that
same-instruction WAW between lanes of one warp is caught before issue
(:meth:`SharedShadowTable.intra_warp_waw`). When dynamic warp re-grouping is
enabled, warp membership is unstable and comparisons fall back to thread
identity (§III-A).

Barriers reset every entry of the block to virgin. Fences and locksets are
evaluated only for global memory (§VI-C2), so this table is the pure
happens-before detector.

State is sparse: a dict maps each touched entry index to a ``[tid, wid, M,
S]`` list, and an absent entry is virgin. A kernel touches a small fraction
of its shadow entries, and a barrier reset is a ``dict.clear()``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.common.types import (
    AccessKind,
    MemSpace,
    RaceCategory,
    RaceKind,
    WarpAccess,
)
from repro.core.granularity import GranularityMap
from repro.core.races import RaceLog

#: field indices of a shared entry list
_TID, _WID, _M, _S = 0, 1, 2, 3


class SharedEntry(NamedTuple):
    """Snapshot of one shared shadow entry."""

    tid: int
    wid: int
    M: bool
    S: bool


#: the state of an entry no access has touched since the last barrier
VIRGIN_SHARED = SharedEntry(-1, -1, True, True)


def _writes_overlap(lanes: Sequence[Any]) -> bool:
    """Whether the byte footprints of two write lanes overlap.

    With footprints sorted by start, any overlapping pair implies an
    overlapping neighbour pair, so one sweep decides it.
    """
    spans = sorted((la[1], la[1] + la[2]) for la in lanes
                   if la[3] != AccessKind.READ)
    return any(nxt[0] < prev[1] for prev, nxt in zip(spans, spans[1:]))


def _overlapping_write(seen: dict, entry: int,
                       la: Any) -> Optional[object]:
    """Register write lane ``la`` under ``entry``; return a previously
    registered lane whose byte footprint overlaps it (None otherwise)."""
    lo, hi = la.footprint()
    bucket = seen.setdefault(entry, [])
    for prev in bucket:
        p_lo, p_hi = prev.footprint()
        if lo < p_hi and p_lo < hi:
            return prev
    bucket.append(la)
    return None


class SharedShadowTable:
    """Shadow entries for one thread block's shared memory."""

    def __init__(self, region_bytes: int, granularity: int,
                 log: RaceLog, regroup: bool = False) -> None:
        self.gmap = GranularityMap(granularity)
        self.n = self.gmap.num_entries(region_bytes)
        self.log = log
        self.regroup = regroup
        #: entry index -> [tid, wid, M, S]; absent means virgin
        self.entries: Dict[int, List[Any]] = {}
        self.resets = 0

    def entry_state(self, entry: int) -> SharedEntry:
        """The state of ``entry`` (:data:`VIRGIN_SHARED` if untouched)."""
        st = self.entries.get(entry)
        return VIRGIN_SHARED if st is None else SharedEntry(*st)

    # ------------------------------------------------------------------

    def barrier_reset(self) -> int:
        """Invalidate all entries at a barrier; returns entries reset."""
        self.entries.clear()
        self.resets += 1
        return self.n

    # ------------------------------------------------------------------

    def intra_warp_waw(self, access: WarpAccess) -> int:
        """Same-instruction WAW: two lanes of one warp write one *location*.

        The RDU checks simultaneous requests to the same location
        associatively before issue (§III-A / §IV-B). The comparison is on
        byte footprints, not shadow entries: a warp whose lanes write
        successive addresses covered by one coarse entry is implicitly
        synchronized and must not be reported (§VI-A1). Returns the number
        of distinct new races reported.
        """
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
        """Run the state machine for every (entry, lane) of a warp access.

        Returns the number of distinct new races reported. Owners compare
        by warp id, or by thread id under warp re-grouping.
        """
        checks, shares_entry = self.gmap.walk(access.lanes)
        new = 0
        if shares_entry and access.kind != AccessKind.READ:
            # lanes on distinct entries cannot overlap
            new = self.intra_warp_waw(access)
        entries = self.entries
        log = self.log
        regroup = self.regroup
        own = _TID if regroup else _WID
        wid = access.warp_id
        base = access.base_tid
        block = access.block_id
        read = AccessKind.READ
        for _, entry, la in checks:
            tid = base + la[0]
            is_write = la[3] != read
            st = entries.get(entry)
            if st is None:  # State 1: virgin
                entries[entry] = [tid, wid, is_write, False]
                continue
            same = st[own] == (tid if regroup else wid)
            if st[_M]:  # State 3: written by owner
                if same:
                    if is_write:
                        st[_TID] = tid  # latest writer
                    continue
                race = RaceKind.WAW if is_write else RaceKind.RAW
            elif not st[_S]:  # State 2: single reader
                if same:
                    if is_write:
                        # same warp's ordered write upgrades the entry
                        st[_TID] = tid
                        st[_WID] = wid
                        st[_M] = True
                    continue
                if not is_write:
                    st[_S] = True
                    continue
                race = RaceKind.WAR
            elif is_write:  # State 4: read by multiple warps
                race = RaceKind.WAR
            else:
                continue
            if log.trip(
                RaceCategory.SHARED_BARRIER, race, MemSpace.SHARED,
                entry, la[1],
                owner_tid=st[_TID],
                access_tid=tid,
                owner_block=block,
                access_block=block,
                pc=access.pc,
            ):
                new += 1
            # after reporting, a write takes ownership so later
            # conflicts are still observable
            if is_write:
                entries[entry] = [tid, wid, True, False]
        return new
