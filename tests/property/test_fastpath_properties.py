"""Production kernels must be bit-identical to their scalar references.

The sparse per-lane shadow kernels are run against the dense reference
walks in ``tests/reference/shadow_ref.py``; the address-list timing
kernels (segment coalescer, bank-conflict sweep, atomic serialization)
against the lane-wise coalescer and the per-lane references in
``tests/reference/timing_ref.py``, on randomized inputs. The golden-parity
digests pin the whole-system results; these properties localize a
divergence to the specific kernel that caused it.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.common.config import DetectionMode, GPUConfig, HAccRGConfig
from repro.common.types import AccessKind, LaneAccess, MemSpace, WarpAccess
from repro.core.clocks import RaceRegisterFile
from repro.core.races import RaceLog
from repro.core.shadow import SharedShadowTable
from repro.core.shadow_memory import GlobalShadowMemory
from repro.gpu.coalescer import coalesce
from repro.gpu.functional import decode_warp
from repro.gpu.ops import OP_ATOMIC, OP_LOAD, OP_STORE
from repro.gpu.timing import TimingModel, coalesce_fast
from tests.reference.shadow_ref import (
    RefGlobalShadowMemory,
    RefSharedShadowTable,
)
from tests.reference.timing_ref import SharedMemoryModel, atomic_serialization

KINDS = (AccessKind.READ, AccessKind.WRITE, AccessKind.ATOMIC)
REGION = 64 * 4

#: one warp access: (warp, kind index, [(lane, slot)], sig, critical,
#: lane bytes, fence after, per-lane L1 hits). 8-byte lanes on 4-byte
#: slots straddle entries at granularity 4; at granularity 16 four slots
#: share an entry, so write warps trip the intra-warp WAW check.
access_specs = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.lists(st.tuples(st.integers(0, 31), st.integers(0, 15)),
                 min_size=1, max_size=8, unique_by=lambda t: t[0]),
        st.integers(0, 3),
        st.booleans(),
        st.sampled_from([4, 8]),
        st.booleans(),
        st.lists(st.booleans(), min_size=8, max_size=8),
    ),
    min_size=1, max_size=25,
)


def _warp_access(spec, space, sync_id=0, fence_id=0):
    warp, kind_i, lane_slots, sig, critical, size = spec[:6]
    kind = KINDS[kind_i]
    lanes = [LaneAccess(lane, slot * 4, size, kind, sig, critical)
             for lane, slot in sorted(lane_slots)]
    # warps 0-1 form block 0 on SM 0, warps 2-3 block 1 on SM 1
    return WarpAccess(space=space, kind=kind, lanes=lanes,
                      sm_id=warp // 2, block_id=warp // 2, warp_id=warp,
                      warp_in_block=warp % 2, base_tid=warp * 32,
                      sync_id=sync_id, fence_id=fence_id)


class TestSharedShadowKernel:
    @given(access_specs, st.booleans(), st.sampled_from([4, 16]),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_reference(self, specs, barrier_mid,
                                      granularity, regroup):
        """Same access stream into both: same races, same state."""
        log, ref_log = RaceLog(), RaceLog()
        table = SharedShadowTable(REGION, granularity, log, regroup=regroup)
        ref = RefSharedShadowTable(REGION, granularity, ref_log,
                                   regroup=regroup)
        for i, spec in enumerate(specs):
            if barrier_mid and i == len(specs) // 2:
                assert table.barrier_reset() == ref.barrier_reset()
            acc = _warp_access(spec, MemSpace.SHARED)
            assert table.check(acc) == ref.check(acc)
        assert log == ref_log
        assert [table.entry_state(e) for e in range(table.n)] == \
            [ref.entry_state(e) for e in range(ref.n)]


class TestGlobalShadowKernel:
    @given(access_specs, st.integers(0, 3), st.sampled_from([4, 16]),
           st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_reference(self, specs, sync_bumps, granularity,
                                      regroup, dirty_only):
        log, ref_log = RaceLog(), RaceLog()
        rrf, ref_rrf = RaceRegisterFile(8), RaceRegisterFile(8)
        cfg = HAccRGConfig(mode=DetectionMode.GLOBAL,
                           global_granularity=granularity,
                           warp_regrouping=regroup,
                           shadow_writeback_dirty_only=dirty_only)
        g = GlobalShadowMemory(REGION, cfg, log, rrf)
        ref = RefGlobalShadowMemory(REGION, cfg, ref_log, ref_rrf)
        sync = 0
        fences = [0, 0, 0, 0]
        for i, spec in enumerate(specs):
            if sync_bumps and i % (len(specs) // sync_bumps + 1) == 0:
                sync += 1
            warp, fence_after, hits = spec[0], spec[6], spec[7]
            acc = _warp_access(spec, MemSpace.GLOBAL, sync_id=sync,
                               fence_id=fences[warp])
            hits = hits[:len(acc.lanes)]
            entries = g.check(acc, lane_l1_hit=hits)
            assert entries == ref.check(acc, lane_l1_hit=hits)
            assert len(entries) == len(set(entries))
            if fence_after:
                fences[warp] += 1
                rrf.on_fence(warp, fences[warp])
                ref_rrf.on_fence(warp, fences[warp])
        assert log == ref_log
        assert g.stats == ref.stats
        assert [g.entry_state(e) for e in range(g.n)] == \
            [ref.entry_state(e) for e in range(ref.n)]
        g.invalidate()
        ref.invalidate()
        assert [g.entry_state(e) for e in range(g.n)] == \
            [ref.entry_state(e) for e in range(ref.n)]


#: one warp's lanes as (byte address, access size); few distinct
#: addresses so lanes collide on words, banks and atomic targets
warp_lanes = st.lists(
    st.tuples(st.integers(0, 255).map(lambda w: w * 4),
              st.sampled_from([1, 2, 4, 8])),
    min_size=0, max_size=32,
)

#: (banks, bank width): GPUConfig requires power-of-two banks only
bank_geometries = st.sampled_from([(16, 4), (32, 4), (16, 8), (16, 3),
                                   (8, 12), (32, 6)])


def _decode(code, lanes_spec, clean=False):
    """Decode one warp op-group through the production decoder."""
    lanes = [(i, SimpleNamespace(pending=(code, None, addr, size),
                                 lock_sig=0, critical_depth=0))
             for i, (addr, size) in enumerate(lanes_spec)]
    return decode_warp(code, lanes, clean=clean)


class TestTimingBatch:
    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=32),
           st.sampled_from([1, 2, 4, 8]),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_coalesce_fast_matches_scalar(self, slots, size, is_write):
        addrs = [slot * size for slot in slots]
        lanes = [LaneAccess(i, a, size, AccessKind.READ)
                 for i, a in enumerate(addrs)]
        assert coalesce_fast(addrs, size, is_write, lanes) == \
            coalesce(lanes, is_write)

    @given(st.lists(st.integers(0, 1021), min_size=1, max_size=32),
           st.sampled_from([4, 8]))
    @settings(max_examples=300, deadline=None)
    def test_coalesce_fast_handles_straddlers(self, byte_addrs, size):
        """Unaligned lanes may straddle segments: fallback must kick in."""
        lanes = [LaneAccess(i, a, size, AccessKind.WRITE)
                 for i, a in enumerate(byte_addrs)]
        assert coalesce_fast(byte_addrs, size, True, lanes) == \
            coalesce(lanes, True)

    @given(warp_lanes, bank_geometries)
    @settings(max_examples=300, deadline=None)
    def test_conflict_passes_match_scalar(self, lanes_spec, geometry):
        """Bank sweep on the decoded address list == per-lane reference,
        with mixed lane sizes and non-power-of-two bank widths."""
        banks, width = geometry
        config = GPUConfig(shared_mem_banks=banks, shared_bank_width=width)
        dec = _decode(OP_LOAD, lanes_spec)
        ref = SharedMemoryModel(banks, width)
        assert TimingModel(config).shared_cost(dec.addrs, 1) == \
            config.shared_latency + ref.conflict_passes(dec.lanes)

    @given(warp_lanes, st.sampled_from([1, 4]))
    @settings(max_examples=300, deadline=None)
    def test_atomic_serialization_matches_reference(self, lanes_spec, issue):
        dec = _decode(OP_ATOMIC, lanes_spec)
        assert TimingModel(GPUConfig()).atomic_serialization(
            dec.addrs, issue) == atomic_serialization(dec.lanes, issue)

    @given(warp_lanes, st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_global_transactions_match_scalar(self, lanes_spec, is_write,
                                              clean):
        """Decode picks the kernel: uniform sizes take the segment sweep,
        mixed sizes the lane-wise coalescer; both equal ``coalesce``."""
        dec = _decode(OP_STORE if is_write else OP_LOAD, lanes_spec, clean)
        uniform = len({size for _, size in lanes_spec}) <= 1
        assert (dec.size > 0) == (uniform and bool(lanes_spec))
        assert TimingModel(GPUConfig()).global_transactions(
            dec.lanes, dec.addrs, dec.size, is_write) == \
            coalesce(dec.lanes, is_write)
