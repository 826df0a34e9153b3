"""Lower a :class:`FuzzProgram` to per-warp symbolic access streams.

The static analyzer cannot reason statement-by-statement, because the
simulator's warp scheduler groups pending lane operations by
``(opcode, space, itemsize)`` only (:func:`repro.gpu.ops.group_key`):
when lanes diverge, ops *from different statements* can merge into one
warp instruction, and the pre-issue intra-warp WAW check fires on the
merged footprint. So lowering is a faithful lockstep **emulation**: a
pure mirror of the interpreter in :mod:`repro.fuzz.program` yields each
thread's operation sequence, and a mirror of
:meth:`repro.gpu.warp.Warp.next_group` folds the 32 lane streams into
the warp's instruction stream — refill, barrier parking, group selection
(lock acquisitions issue last, else lowest pending lane first), and
in-order lock grants.

The emulation is *schedule-independent per warp*: non-lock groups always
drain before lock groups, a lane's ops issue in program order, and
cross-warp lock contention only delays retries without changing group
composition. Barrier epochs are exact for the same reason — every lane
of a block passes the same uniform barriers (the IR cannot express a
lane-dependent barrier), so "number of barriers passed" is the block's
barrier epoch at each access.

Outputs per warp: the ordered list of :class:`WarpInstr` (memory
instruction groups with per-lane byte footprints, locksets, and the
barrier epoch), plus the stream positions of its ``__threadfence``
issues — which makes "may this warp fence after position p" an exact
query instead of an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.analyze.scopes import SCOPE_DEVICE, fence_scope, publishes
from repro.common.bitops import align_up
from repro.fuzz.program import FuzzProgram

_WARP = 32
_ALIGN = 256  # DeviceMemory.ALLOC_ALIGN

#: array names used throughout the analyzer
A_GLOBAL = "fuzz_g"
A_BYTES = "fuzz_bytes"
A_SHARED = "sh"


def device_layout(program: FuzzProgram) -> Dict[str, int]:
    """Base device byte of each array, mirroring ``run_program``'s
    malloc order on the bump allocator (g, bytes, locks; align 256)."""
    g_bytes = max(1, program.global_words) * 4
    byte_base = align_up(g_bytes, _ALIGN)
    locks_base = align_up(byte_base + max(1, program.byte_bytes), _ALIGN)
    return {A_GLOBAL: 0, A_BYTES: byte_base, "fuzz_locks": locks_base,
            A_SHARED: 0}


# ---------------------------------------------------------------------------
# per-thread symbolic operation streams (mirrors program._fuzz_kernel)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymOp:
    """One symbolic thread operation before warp grouping."""

    code: str                 # load|store|atomic|barrier|fence|lock|unlock|compute
    array: Optional[str] = None   # fuzz_g | fuzz_bytes | sh (data accesses)
    addr: int = 0             # array-local byte offset (lock index for locks)
    size: int = 0
    stmt: int = -1            # statement index in program.stmts
    tag: str = ""             # human-readable site tag for witnesses
    fenced: bool = False      # store followed by a fence inside its
    #                           critical section before the unlock
    scope: int = SCOPE_DEVICE  # fence ops: lattice point (scopes.py)


def _space_of(array: Optional[str]) -> str:
    return "S" if array == A_SHARED else "G"


def thread_ops(program: FuzzProgram, gtid: int) -> Iterator[SymOp]:
    """The exact operation sequence of one thread (mirror interpreter)."""
    threads = program.threads
    block = gtid // threads
    tid = gtid % threads           # thread_linear
    lane = tid % _WARP
    has_shared = program.shared_words > 0

    for si, st in enumerate(program.stmts):
        op = st["op"]
        if op == "barrier":
            yield SymOp("barrier", stmt=si)
        elif op == "fence":
            # scope-faithful lowering: a FUZZ_SCHEMA-3 fence statement
            # with scope 1 is a __threadfence_system, not a plain
            # device fence (mirror of program._fuzz_kernel's dispatch)
            yield SymOp("fence", stmt=si,
                        scope=fence_scope(st.get("scope")))
        elif op == "g":
            if "only_tid" in st and st["only_tid"] != gtid:
                continue
            if "skip_warp_of" in st and \
                    st["skip_warp_of"] // _WARP == gtid // _WARP:
                continue
            span = max(1, st.get("span", 1))
            if st.get("scope", "grid") == "block":
                base = st["base"] + block * threads
                idx = tid
            else:
                base = st["base"]
                idx = gtid
            i = base + (idx * st.get("stride", 1)
                        + st.get("shift", 0)) % span
            kind = st.get("kind", "write")
            code = {"write": "store", "read": "load"}.get(kind, "atomic")
            yield SymOp(code, A_GLOBAL, i * 4, 4, si, f"g:{kind}")
        elif op == "s":
            if not has_shared:
                continue
            span = max(1, st.get("span", 1))
            i = st["base"] + (tid * st.get("stride", 1)
                              + st.get("shift", 0)) % span
            kind = st.get("kind", "write")
            code = {"write": "store", "read": "load"}.get(kind, "atomic")
            yield SymOp(code, A_SHARED, i * 4, 4, si, f"s:{kind}")
        elif op == "byte":
            span = max(1, st.get("span", 1))
            i = st["base"] + (gtid + st.get("shift", 0)) % span
            if st.get("kind", "write") == "write":
                yield SymOp("store", A_BYTES, i, 1, si, "byte:write")
            else:
                yield SymOp("load", A_BYTES, i, 1, si, "byte:read")
        elif op == "tree":
            if not has_shared:
                continue
            barriers = st.get("barriers", ())
            yield SymOp("store", A_SHARED, tid * 4, 4, si, "tree:seed")
            if not barriers or barriers[0]:
                yield SymOp("barrier", stmt=si)
            s = threads // 2
            level = 1
            while s > 0:
                if tid < s:
                    yield SymOp("load", A_SHARED, tid * 4, 4, si,
                                f"tree:lvl{level}")
                    yield SymOp("load", A_SHARED, (tid + s) * 4, 4, si,
                                f"tree:lvl{level}")
                    yield SymOp("store", A_SHARED, tid * 4, 4, si,
                                f"tree:lvl{level}")
                if level >= len(barriers) or barriers[level]:
                    yield SymOp("barrier", stmt=si)
                s //= 2
                level += 1
        elif op == "locked":
            if tid % max(1, st.get("mod", 16)) != 0:
                continue
            slot = st["slot"]
            lock_idx = st.get("lock", 0)
            naked = st.get("skip_tid") == gtid
            if st.get("wrong_lock_tid") == gtid:
                lock_idx = st.get("wrong_lock", lock_idx)
            fenced = bool(st.get("fence", True)) and not naked
            if not naked:
                yield SymOp("lock", addr=lock_idx, stmt=si)
            yield SymOp("load", A_GLOBAL, slot * 4, 4, si, "crit:load")
            yield SymOp("compute", stmt=si)
            yield SymOp("store", A_GLOBAL, slot * 4, 4, si, "crit:store",
                        fenced=fenced)
            if st.get("fence", True) and not naked:
                yield SymOp("fence", stmt=si)
            if not naked:
                yield SymOp("unlock", addr=lock_idx, stmt=si)
        else:  # "div" (a FuzzProgram admits only FUZZ_OPS)
            if lane < 16:
                yield SymOp("store", A_GLOBAL, (st["base"] + gtid) * 4, 4,
                            si, "div:write")
            else:
                yield SymOp("compute", stmt=si)


# ---------------------------------------------------------------------------
# warp grouping emulation (mirrors gpu.warp.Warp.next_group)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaneAccess:
    """One lane's slice of a warp memory instruction."""

    tid: int                  # global thread id
    lane: int
    array: str
    addr: int                 # array-local byte offset
    size: int
    locks: frozenset = frozenset()
    stmt: int = -1
    tag: str = ""
    fenced: bool = False


@dataclass(frozen=True)
class WarpInstr:
    """One issued warp memory instruction (a merged lane group)."""

    pos: int                  # issue position in the warp's stream
    epoch: int                # block barrier epoch at issue
    kind: str                 # read | write | atomic
    space: str                # G | S
    lanes: Tuple[LaneAccess, ...]


@dataclass
class WarpStream:
    """Everything the passes need to know about one warp."""

    warp: int                 # grid-wide warp id (gtid // 32)
    block: int
    instrs: List[WarpInstr] = field(default_factory=list)
    #: (stream position, fence-scope lattice point) per issued fence
    fence_positions: List[Tuple[int, int]] = field(default_factory=list)

    def may_fence_after(self, pos: int, scope: int = SCOPE_DEVICE) -> bool:
        """May this warp later issue a fence publishing at ``scope``?

        Single-device rules query device scope (any IR fence
        qualifies, preserving pre-scope behavior); the cross-device
        classifier queries system scope.
        """
        return any(f > pos and publishes(s, scope)
                   for f, s in self.fence_positions)


_KIND = {"load": "read", "store": "write", "atomic": "atomic"}


def _group_key(op: SymOp) -> Tuple:
    """Mirror of gpu.ops.group_key: memory ops group by
    (opcode, space, itemsize); everything else by opcode alone."""
    if op.code in ("load", "store", "atomic"):
        return (op.code, _space_of(op.array), op.size)
    return (op.code,)


class _Lane:
    __slots__ = ("gen", "pending", "done", "tid", "lane", "locks")

    def __init__(self, gen: Iterator[SymOp], tid: int, lane: int) -> None:
        self.gen = gen
        self.pending: Optional[SymOp] = None
        self.done = False
        self.tid = tid
        self.lane = lane
        self.locks: Set[int] = set()


def _emulate_warp(program: FuzzProgram, warp: int) -> WarpStream:
    base_tid = warp * _WARP
    block = base_tid // program.threads
    lanes = [_Lane(thread_ops(program, base_tid + i), base_tid + i, i)
             for i in range(_WARP)]
    stream = WarpStream(warp=warp, block=block)
    held: Dict[int, int] = {}     # lock addr -> holding lane index
    epoch = 0
    pos = 0
    guard = 0
    while True:
        guard += 1
        if guard > 1_000_000:  # pragma: no cover - malformed program
            raise RuntimeError(f"warp {warp} emulation does not converge")
        live = 0
        for ln in lanes:
            if ln.done:
                continue
            if ln.pending is None:
                ln.pending = next(ln.gen, None)
                if ln.pending is None:
                    ln.done = True
                    continue
            live += 1
        if not live:
            break

        groups: Dict[Tuple, List[int]] = {}
        barrier_lanes = []
        for i, ln in enumerate(lanes):
            if ln.done or ln.pending is None:
                continue
            if ln.pending.code == "barrier":
                barrier_lanes.append(i)
                continue
            groups.setdefault(_group_key(ln.pending), []).append(i)

        if not groups:
            # every live lane waits at the barrier; the block releases it
            # together (barriers are uniform across the IR), epoch += 1
            epoch += 1
            for i in barrier_lanes:
                lanes[i].pending = None
            continue

        key = min(groups, key=lambda k: (k[0] == "lock", groups[k][0]))
        members = groups[key]
        code = key[0]
        if code == "lock":
            granted = False
            for i in members:
                addr = lanes[i].pending.addr
                holder = held.get(addr)
                if holder is None or holder == i:
                    held[addr] = i
                    lanes[i].locks.add(addr)
                    lanes[i].pending = None
                    granted = True
                # else: lane keeps its pending op and retries
            if not granted and len(groups) == 1:  # pragma: no cover
                raise RuntimeError(f"warp {warp} deadlocks on locks")
        elif code == "unlock":
            for i in members:
                addr = lanes[i].pending.addr
                if held.get(addr) == i:
                    del held[addr]
                lanes[i].locks.discard(addr)
                lanes[i].pending = None
        elif code == "fence":
            # lanes from different fence statements can merge into one
            # issue slot (group key is opcode-only, like the simulator);
            # the issued instruction publishes at the strongest merged
            # scope, so record the lattice join over the members
            scope = max(lanes[i].pending.scope for i in members
                        if lanes[i].pending is not None)
            stream.fence_positions.append((pos, scope))
            for i in members:
                lanes[i].pending = None
        elif code == "compute":
            for i in members:
                lanes[i].pending = None
        else:  # load / store / atomic
            accesses = []
            for i in members:
                op = lanes[i].pending
                accesses.append(LaneAccess(
                    tid=lanes[i].tid, lane=lanes[i].lane, array=op.array,
                    addr=op.addr, size=op.size,
                    locks=frozenset(lanes[i].locks),
                    stmt=op.stmt, tag=op.tag, fenced=op.fenced))
                lanes[i].pending = None
            stream.instrs.append(WarpInstr(
                pos=pos, epoch=epoch, kind=_KIND[code],
                space=key[1], lanes=tuple(accesses)))
        pos += 1
    return stream


def lower_program(program: FuzzProgram) -> List[WarpStream]:
    """Emulate every warp of the grid; deterministic for one program."""
    if program.threads % _WARP != 0:
        raise ValueError(f"threads={program.threads} is not a multiple "
                         f"of the warp size")
    n_warps = program.total_threads // _WARP
    return [_emulate_warp(program, w) for w in range(n_warps)]
