"""Access-trace recording and detector replay.

Detection experiments often re-run the same benchmark under many detector
configurations (granularity sweeps, ablations). The kernel execution —
generators, scheduling, functional memory — dominates that cost, yet the
access stream it produces is identical every time (execution is
deterministic and hardware detection never perturbs it). This module
splits the two:

- :class:`TraceRecorder` is an event-bus subscriber that captures every
  warp access plus the synchronization events (barriers with block
  sync-IDs, fences, kernel/block boundaries) as compact records — it can
  ride a live run alongside an attached detector (same bus, observer
  priority) or record standalone;
- :func:`replay` feeds a recorded trace back through any
  :class:`~repro.core.detector.HAccRGDetector`-compatible detector's
  *detection* structures, producing the identical race log at a fraction
  of the cost;
- traces serialize to/from a JSON-lines text format for offline analysis
  or cross-tool exchange, and to a struct-packed binary format (versioned
  ``HART`` header) that fuzz corpora use to keep stores small.

Replay fidelity: hardware detection is passive, so replayed race results
are bit-identical to live runs at any granularity (asserted by the
tests). Timing-dependent detectors (the software baselines) cannot be
replayed — they change the interleaving they measure.

The trace also records lock acquire/release markers ("L"/"U" records with
the thread's global id and the lock address). Normal replay ignores them;
``replay(..., perfect_sigs=True)`` reconstructs each thread's *precise*
lockset from the markers and substitutes exact one-bit-per-lock
signatures for the recorded Bloom signatures — the fuzzer's ablation knob
for attributing Bloom-aliasing mismatches.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import DetectionMode, HAccRGConfig
from repro.common.errors import TraceFormatError
from repro.common.types import AccessKind, LaneAccess, MemSpace, WarpAccess
from repro.core.clocks import RaceRegisterFile
from repro.core.races import RaceLog
from repro.core.shadow import SharedShadowTable
from repro.core.shadow_memory import GlobalShadowMemory
from repro.events import Subscriber
from repro.events.records import (
    AccessIssued,
    BarrierReleased,
    BlockEnded,
    BlockStarted,
    FenceIssued,
    KernelStarted,
    LockAcquired,
    LockReleased,
)

#: trace record kinds
_ACCESS, _BARRIER, _FENCE, _BLOCK_START, _BLOCK_END, _KERNEL = (
    "A", "B", "F", "S", "E", "K")
_LOCK, _UNLOCK = "L", "U"


@dataclass
class TraceEvent:
    """One trace record (see the ``kind`` constants above)."""

    kind: str
    # access fields
    space: int = 0
    access_kind: int = 0
    # Lane records. The *wire* layout is 5-tuples (lane, addr, size, sig,
    # critical); a freshly recorded event instead aliases the simulator's
    # 6-field LaneAccess tuples (lane, addr, size, kind, sig, critical)
    # zero-copy. Indices 0-2 agree between the layouts; use
    # :meth:`lane_rows` for a normalized wire-layout view.
    lanes: List[Tuple] = field(default_factory=list)
    sm_id: int = 0
    block_id: int = 0
    warp_id: int = 0
    warp_in_block: int = 0
    base_tid: int = 0
    sync_id: int = 0
    fence_id: int = 0
    l1_hits: Optional[List[bool]] = None
    # barrier / fence / block fields
    shared_bytes: int = 0
    region_bytes: int = 0
    # lock marker fields ("L"/"U"): acquiring thread and lock address
    thread: int = 0
    addr: int = 0

    def lane_rows(self) -> List[Tuple[int, int, int, int, bool]]:
        """The lane records in wire layout (lane, addr, size, sig, critical)."""
        ls = self.lanes
        if ls and len(ls[0]) == 6:
            return [(l[0], l[1], l[2], l[4], l[5]) for l in ls]
        return ls

    def to_json(self) -> str:
        d = self.__dict__
        ls = d.get("lanes")
        if ls and len(ls[0]) == 6:
            d = dict(d)
            d["lanes"] = self.lane_rows()
        return json.dumps(d, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        try:
            d = json.loads(line)
            if not isinstance(d, dict):
                raise TraceFormatError("trace line is not a JSON object")
            lanes = d.get("lanes", [])
            if not isinstance(lanes, list) or any(
                    not isinstance(l, (list, tuple)) or len(l) != 5
                    for l in lanes):
                raise TraceFormatError("malformed lane list in trace line")
            d["lanes"] = [tuple(l) for l in lanes]
            ev = TraceEvent(**d)
            if ev.kind not in _BIN_KIND_CODES:
                raise TraceFormatError(
                    f"unknown trace record kind {ev.kind!r}")
            return ev
        except TraceFormatError:
            raise
        except (ValueError, TypeError) as exc:
            # json decode errors are ValueErrors; unknown/missing fields
            # surface as TypeErrors from the dataclass constructor
            raise TraceFormatError(
                f"corrupt JSON trace line: {exc}") from exc

    def to_warp_access(self, sig_for: Optional[Callable[[int], int]] = None
                       ) -> WarpAccess:
        """Build the WarpAccess; ``sig_for(tid)`` overrides critical-lane
        signatures (perfect-signature replay)."""
        kind = AccessKind(self.access_kind)
        ls = self.lanes
        recorded = bool(ls) and len(ls[0]) == 6
        _new = tuple.__new__
        if sig_for is None:
            if recorded:
                # freshly recorded events alias the simulator's LaneAccess
                # tuples — reuse them outright (replay-side zero-copy)
                lanes = ls
            else:
                # deserialized wire rows: rebuild the lane tuples through
                # tuple.__new__ to skip the generated NamedTuple
                # constructor frame per lane
                lanes = [_new(LaneAccess, (l[0], l[1], l[2], kind,
                                           l[3], l[4]))
                         for l in ls]
        else:
            base = self.base_tid
            if recorded:
                lanes = [
                    _new(LaneAccess,
                         (l[0], l[1], l[2], kind,
                          sig_for(base + l[0]) if l[5] else l[4], l[5]))
                    for l in ls
                ]
            else:
                lanes = [
                    _new(LaneAccess,
                         (l[0], l[1], l[2], kind,
                          sig_for(base + l[0]) if l[4] else l[3], l[4]))
                    for l in ls
                ]
        return WarpAccess(
            space=MemSpace(self.space),
            kind=kind,
            lanes=lanes,
            sm_id=self.sm_id,
            block_id=self.block_id,
            warp_id=self.warp_id,
            warp_in_block=self.warp_in_block,
            base_tid=self.base_tid,
            sync_id=self.sync_id,
            fence_id=self.fence_id,
        )


class TraceRecorder(Subscriber):
    """Bus subscriber that records every detection-relevant event of a run.

    Subscribe at observer priority (``sim.add_observer(recorder)``): it
    never perturbs timing or detection, so it can record the same live run
    a detector is analyzing. When recording standalone it also answers
    lock-signature queries with the paper's Bloom geometry, so critical
    sections carry real signatures into the trace.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.region_bytes = 0

    def on_kernel_start(self, ev: KernelStarted) -> None:
        # record the *application* footprint: a co-resident detector's
        # internal shadow reservation must not leak into the trace, or
        # concurrently recorded traces would differ from standalone ones
        region = ev.device_mem.app_bytes
        self.region_bytes = max(self.region_bytes, region)
        self.events.append(TraceEvent(kind=_KERNEL, region_bytes=region))

    def on_block_start(self, ev: BlockStarted) -> None:
        block = ev.block
        self.events.append(TraceEvent(
            kind=_BLOCK_START, block_id=block.block_id,
            sm_id=block.sm_id or 0,
            shared_bytes=block.launch.kernel.shared_bytes()))

    def on_block_end(self, ev: BlockEnded) -> None:
        self.events.append(TraceEvent(kind=_BLOCK_END,
                                      block_id=ev.block.block_id))

    def on_access(self, ev: AccessIssued):
        access = ev.access
        # per-access hot path: build the record through __new__ plus a
        # __dict__ literal (skipping the 16-parameter dataclass __init__)
        # and alias the access's LaneAccess list zero-copy — nothing
        # mutates lane tuples after decode, and every egress path
        # normalizes through ``lane_rows``. The dict keys must stay in
        # field declaration order so ``to_json`` output is unchanged.
        te = TraceEvent.__new__(TraceEvent)
        te.__dict__ = {
            "kind": _ACCESS,
            "space": int(access.space),
            "access_kind": int(access.kind),
            "lanes": access.lanes,
            "sm_id": access.sm_id,
            "block_id": access.block_id,
            "warp_id": access.warp_id,
            "warp_in_block": access.warp_in_block,
            "base_tid": access.base_tid,
            "sync_id": access.sync_id,
            "fence_id": access.fence_id,
            "l1_hits": (list(ev.lane_l1_hit)
                        if ev.lane_l1_hit is not None else None),
            "shared_bytes": 0,
            "region_bytes": 0,
            "thread": 0,
            "addr": 0,
        }
        self.events.append(te)
        return None

    def on_barrier(self, ev: BarrierReleased):
        self.events.append(TraceEvent(kind=_BARRIER,
                                      block_id=ev.block.block_id))
        return None

    def on_fence(self, ev: FenceIssued):
        self.events.append(TraceEvent(kind=_FENCE, warp_id=ev.warp.warp_id,
                                      fence_id=ev.warp.fence_id))
        return None

    def on_lock_acquired(self, ev: LockAcquired) -> int:
        # the marker itself is recorded so offline analyses (the oracle's
        # precise locksets, perfect-signature replay) can reconstruct the
        # exact set of locks each thread holds at every access
        self.events.append(TraceEvent(kind=_LOCK,
                                      thread=ev.thread.global_tid,
                                      addr=ev.addr))
        # signatures must reach the trace: encode with the paper geometry.
        # With a detector on the bus its (identical) answer wins — it sits
        # at detector priority, ahead of this observer.
        from repro.core.bloom import BloomSignature
        if not hasattr(self, "_bloom"):
            self._bloom = BloomSignature(16, 2)
        return self._bloom.insert(ev.thread.lock_sig, ev.addr)

    def on_lock_released(self, ev: LockReleased) -> None:
        self.events.append(TraceEvent(kind=_UNLOCK,
                                      thread=ev.thread.global_tid,
                                      addr=ev.addr))
        return None  # abstain: the bus default (clear-on-empty) applies

    # ------------------------------------------------------------------

    def dump(self) -> str:
        """Serialize the trace as JSON lines."""
        return "\n".join(e.to_json() for e in self.events)

    @staticmethod
    def load(text: str) -> List[TraceEvent]:
        return [TraceEvent.from_json(line)
                for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# compact binary format (versioned; fuzz corpora store traces this way)
# ---------------------------------------------------------------------------

#: magic + version header; bump the version on any layout change
_BIN_MAGIC = b"HART"
_BIN_VERSION = 1

_BIN_KIND_CODES = {_KERNEL: 0, _BLOCK_START: 1, _BLOCK_END: 2, _BARRIER: 3,
                   _FENCE: 4, _ACCESS: 5, _LOCK: 6, _UNLOCK: 7}
_BIN_KIND_NAMES = {v: k for k, v in _BIN_KIND_CODES.items()}

_S_HEADER = struct.Struct("<4sH")           # magic, version
_S_KIND = struct.Struct("<B")
_S_KERNEL = struct.Struct("<q")             # region_bytes
_S_BLOCK_START = struct.Struct("<iiq")      # block_id, sm_id, shared_bytes
_S_BLOCK = struct.Struct("<i")              # block_id (end / barrier)
_S_FENCE = struct.Struct("<iq")             # warp_id, fence_id
_S_LOCK = struct.Struct("<qq")              # thread, addr
#: space, access_kind, sm, block, warp, warp_in_block, base_tid, sync,
#: fence, l1-flag (0 absent / 1 present), lane count
_S_ACCESS = struct.Struct("<BBiiiiqqqBH")
_S_LANE = struct.Struct("<BqiqB")           # lane, addr, size, sig, critical


def dump_binary(events: Sequence[TraceEvent]) -> bytes:
    """Struct-pack a trace (~6x smaller than the JSON-lines form)."""
    out = [_S_HEADER.pack(_BIN_MAGIC, _BIN_VERSION)]
    for ev in events:
        out.append(_S_KIND.pack(_BIN_KIND_CODES[ev.kind]))
        if ev.kind == _KERNEL:
            out.append(_S_KERNEL.pack(ev.region_bytes))
        elif ev.kind == _BLOCK_START:
            out.append(_S_BLOCK_START.pack(ev.block_id, ev.sm_id,
                                           ev.shared_bytes))
        elif ev.kind in (_BLOCK_END, _BARRIER):
            out.append(_S_BLOCK.pack(ev.block_id))
        elif ev.kind == _FENCE:
            out.append(_S_FENCE.pack(ev.warp_id, ev.fence_id))
        elif ev.kind in (_LOCK, _UNLOCK):
            out.append(_S_LOCK.pack(ev.thread, ev.addr))
        elif ev.kind == _ACCESS:
            has_l1 = ev.l1_hits is not None
            out.append(_S_ACCESS.pack(
                ev.space, ev.access_kind, ev.sm_id, ev.block_id,
                ev.warp_id, ev.warp_in_block, ev.base_tid, ev.sync_id,
                ev.fence_id, 1 if has_l1 else 0, len(ev.lanes)))
            for lane, addr, size, sig, crit in ev.lane_rows():
                out.append(_S_LANE.pack(lane, addr, size, sig,
                                        1 if crit else 0))
            if has_l1:
                out.append(bytes(1 if h else 0 for h in ev.l1_hits))
        else:  # pragma: no cover - all kinds enumerated above
            raise ValueError(f"unknown trace kind {ev.kind!r}")
    return b"".join(out)


def load_binary(data: bytes) -> List[TraceEvent]:
    """Parse a binary trace produced by :func:`dump_binary`.

    Raises :class:`~repro.common.errors.TraceFormatError` on anything
    malformed — bad magic, unsupported version, unknown record kind, or a
    record truncated mid-field — never a bare ``struct.error``.
    """
    if len(data) < _S_HEADER.size:
        raise TraceFormatError("truncated trace (incomplete HART header)")
    magic, version = _S_HEADER.unpack_from(data, 0)
    if magic != _BIN_MAGIC:
        raise TraceFormatError("not a binary trace (bad magic)")
    if version != _BIN_VERSION:
        raise TraceFormatError(f"binary trace version {version} unsupported "
                               f"(expected {_BIN_VERSION})")
    pos = _S_HEADER.size
    events: List[TraceEvent] = []
    try:
        while pos < len(data):
            (code,) = _S_KIND.unpack_from(data, pos)
            pos += _S_KIND.size
            try:
                kind = _BIN_KIND_NAMES[code]
            except KeyError:
                raise TraceFormatError(
                    f"unknown trace record code {code} at byte "
                    f"{pos - _S_KIND.size}") from None
            if kind == _KERNEL:
                (region,) = _S_KERNEL.unpack_from(data, pos)
                pos += _S_KERNEL.size
                events.append(TraceEvent(kind=kind, region_bytes=region))
            elif kind == _BLOCK_START:
                bid, sm, shared = _S_BLOCK_START.unpack_from(data, pos)
                pos += _S_BLOCK_START.size
                events.append(TraceEvent(kind=kind, block_id=bid, sm_id=sm,
                                         shared_bytes=shared))
            elif kind in (_BLOCK_END, _BARRIER):
                (bid,) = _S_BLOCK.unpack_from(data, pos)
                pos += _S_BLOCK.size
                events.append(TraceEvent(kind=kind, block_id=bid))
            elif kind == _FENCE:
                wid, fid = _S_FENCE.unpack_from(data, pos)
                pos += _S_FENCE.size
                events.append(TraceEvent(kind=kind, warp_id=wid,
                                         fence_id=fid))
            elif kind in (_LOCK, _UNLOCK):
                thread, addr = _S_LOCK.unpack_from(data, pos)
                pos += _S_LOCK.size
                events.append(TraceEvent(kind=kind, thread=thread,
                                         addr=addr))
            else:  # access
                (space, akind, sm, bid, wid, wib, base_tid, sync, fence,
                 l1_flag, n_lanes) = _S_ACCESS.unpack_from(data, pos)
                pos += _S_ACCESS.size
                lanes = []
                for _ in range(n_lanes):
                    lane, addr, size, sig, crit = _S_LANE.unpack_from(
                        data, pos)
                    pos += _S_LANE.size
                    lanes.append((lane, addr, size, sig, bool(crit)))
                l1_hits: Optional[List[bool]] = None
                if l1_flag:
                    if pos + n_lanes > len(data):
                        raise TraceFormatError(
                            "truncated trace (incomplete L1-hit vector)")
                    l1_hits = [b != 0 for b in data[pos:pos + n_lanes]]
                    pos += n_lanes
                events.append(TraceEvent(
                    kind=kind, space=space, access_kind=akind, lanes=lanes,
                    sm_id=sm, block_id=bid, warp_id=wid, warp_in_block=wib,
                    base_tid=base_tid, sync_id=sync, fence_id=fence,
                    l1_hits=l1_hits))
    except struct.error as exc:
        raise TraceFormatError(
            f"truncated trace (record cut short at byte {pos})") from exc
    return events


def write_trace(path, events: Sequence[TraceEvent],
                binary: Optional[bool] = None) -> None:
    """Write a trace file; binary iff requested or the suffix is ``.bin``."""
    from pathlib import Path
    p = Path(path)
    if binary is None:
        binary = p.suffix == ".bin"
    if binary:
        p.write_bytes(dump_binary(events))
    else:
        p.write_text("\n".join(e.to_json() for e in events) + "\n",
                     encoding="utf-8")


def parse_trace(data: bytes) -> List[TraceEvent]:
    """Parse raw trace bytes, sniffing binary vs JSON-lines by the magic.

    Raises :class:`~repro.common.errors.TraceFormatError` on any corrupt
    or truncated input.
    """
    if data[:len(_BIN_MAGIC)] == _BIN_MAGIC:
        return load_binary(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            "trace is neither binary (bad magic) nor UTF-8 text") from exc
    return TraceRecorder.load(text)


def read_trace(path) -> List[TraceEvent]:
    """Read a trace file, sniffing binary vs JSON-lines by the magic."""
    from pathlib import Path
    return parse_trace(Path(path).read_bytes())


class _PreciseLocksets:
    """Track per-thread held locks from "L"/"U" records and hand out exact
    one-bit-per-lock signatures (first-seen lock order; deterministic)."""

    #: shadow sig fields are int64: cap the distinct-lock universe safely
    MAX_LOCKS = 62

    def __init__(self) -> None:
        self._held: Dict[int, List[int]] = {}
        self._bit: Dict[int, int] = {}

    def acquire(self, thread: int, addr: int) -> None:
        self._held.setdefault(thread, []).append(addr)

    def release(self, thread: int, addr: int) -> None:
        held = self._held.get(thread)
        if held and addr in held:
            held.remove(addr)

    def sig_for(self, thread: int) -> int:
        sig = 0
        for addr in self._held.get(thread, ()):
            bit = self._bit.setdefault(addr, len(self._bit))
            if bit >= self.MAX_LOCKS:
                raise ValueError(
                    f"perfect-signature replay supports at most "
                    f"{self.MAX_LOCKS} distinct locks")
            sig |= 1 << bit
        return sig


def record(benchmark_name: str, scale: float = 1.0,
           **overrides) -> List[TraceEvent]:
    """Run one benchmark with a recorder attached; return its trace."""
    from repro.bench.suite import get_benchmark
    from repro.common.config import scaled_gpu_config
    from repro.gpu.simulator import GPUSimulator

    recorder = TraceRecorder()
    sim = GPUSimulator(scaled_gpu_config(), timing_enabled=False)
    sim.add_observer(recorder)
    plan = get_benchmark(benchmark_name).plan(sim, scale=scale, **overrides)
    plan.run(sim)
    return recorder.events


def replay(events: Sequence[TraceEvent],
           config: Optional[HAccRGConfig] = None,
           perfect_sigs: bool = False) -> RaceLog:
    """Feed a recorded trace through fresh detection structures.

    Reproduces exactly what a live :class:`HAccRGDetector` run reports at
    the given configuration: per-block shared shadow tables (reset at
    barriers), a global shadow memory re-initialized per kernel, and the
    race register file driven by the trace's fence events.

    ``perfect_sigs=True`` replaces the recorded Bloom lock signatures with
    exact one-bit-per-lock signatures reconstructed from the trace's
    lock markers — a Bloom-aliasing ablation that no config switch can
    express, because the recorded lane signatures bake in the encoding
    geometry of record time.
    """
    cfg = config or HAccRGConfig(mode=DetectionMode.FULL,
                                 shared_granularity=4)
    log = RaceLog()
    rrf = RaceRegisterFile(cfg.fence_id_bits)
    shared_tables: dict = {}
    gsm: Optional[GlobalShadowMemory] = None
    locksets = _PreciseLocksets() if perfect_sigs else None

    for ev in events:
        if ev.kind == _KERNEL:
            if cfg.mode.global_enabled:
                gsm = GlobalShadowMemory(max(1, ev.region_bytes), cfg, log,
                                         rrf)
            shared_tables.clear()
        elif ev.kind == _BLOCK_START:
            if cfg.mode.shared_enabled and ev.shared_bytes:
                shared_tables[ev.block_id] = SharedShadowTable(
                    ev.shared_bytes, cfg.shared_granularity, log,
                    regroup=cfg.warp_regrouping)
        elif ev.kind == _BLOCK_END:
            shared_tables.pop(ev.block_id, None)
        elif ev.kind == _BARRIER:
            table = shared_tables.get(ev.block_id)
            if table is not None:
                table.barrier_reset()
        elif ev.kind == _FENCE:
            rrf.on_fence(ev.warp_id, ev.fence_id)
        elif ev.kind == _LOCK:
            if locksets is not None:
                locksets.acquire(ev.thread, ev.addr)
        elif ev.kind == _UNLOCK:
            if locksets is not None:
                locksets.release(ev.thread, ev.addr)
        elif ev.kind == _ACCESS:
            access = ev.to_warp_access(
                sig_for=locksets.sig_for if locksets is not None else None)
            if access.space == MemSpace.SHARED:
                table = shared_tables.get(ev.block_id)
                if table is not None:
                    table.check(access)
            elif gsm is not None:
                gsm.check(access, lane_l1_hit=ev.l1_hits)
    return log
