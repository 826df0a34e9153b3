"""Access-pattern characterization of the benchmark kernels.

The paper's experiments depend on *how* each benchmark touches memory —
coalescing quality, element sizes, bank behaviour, synchronization
placement. These tests pin those patterns with a trace-collecting hook so
kernel refactors can't silently change the workload the detector is
evaluated on.
"""

from collections import Counter

import pytest

from repro.bench.suite import get_benchmark
from repro.common.config import GPUConfig
from repro.common.types import MemSpace, WarpAccess
from repro.gpu.coalescer import coalesce
from repro.gpu.hooks import DetectorHooks, NO_EFFECT
from repro.gpu.simulator import GPUSimulator

RACE_FREE = {
    "SCAN": {"num_blocks": 1},
    "KMEANS": {"num_update_blocks": 1},
    "OFFT": {"fix_bug": True},
}


class PatternCollector(DetectorHooks):
    """Records per-access structure without altering timing."""

    def __init__(self) -> None:
        from repro.core.bloom import BloomSignature

        self.global_accesses = []
        self.shared_accesses = []
        self.lane_sizes = Counter()
        self._bloom = BloomSignature(16, 2)

    def on_warp_access(self, access: WarpAccess, now, lane_l1_hit=None):
        store = (self.shared_accesses if access.space == MemSpace.SHARED
                 else self.global_accesses)
        store.append(access)
        for la in access.lanes:
            self.lane_sizes[la.size] += 1
        return NO_EFFECT

    def on_lock_acquire(self, thread, addr):
        return self._bloom.insert(thread.lock_sig, addr)


def collect(name, scale=0.5, **overrides):
    sim = GPUSimulator(GPUConfig(num_sms=4, num_clusters=2),
                       timing_enabled=False)
    collector = PatternCollector()
    sim.attach_detector(collector)
    plan = get_benchmark(name).plan(sim, scale=scale,
                                    **RACE_FREE.get(name, {}), **overrides)
    plan.run(sim)
    return collector


def coalescing_ratio(accesses):
    """Average transactions per multi-lane warp access (1.0 = perfect)."""
    counts = []
    for acc in accesses:
        if len(acc.lanes) >= 16:
            counts.append(len(coalesce(acc.lanes, acc.is_write)))
    return sum(counts) / len(counts) if counts else 0.0


class TestCoalescingQuality:
    def test_streaming_benchmarks_fully_coalesce(self):
        """PSUM/REDUCE read unit-stride slices: one txn per warp access."""
        for name in ("PSUM", "REDUCE"):
            c = collect(name)
            assert coalescing_ratio(c.global_accesses) <= 1.5, name

    def test_mcarlo_sample_reads_coalesce(self):
        c = collect("MCARLO")
        assert coalescing_ratio(c.global_accesses) <= 1.5


class TestElementSizes:
    def test_hist_shared_counters_are_bytes(self):
        """Table III's HIST story requires 1-byte shared elements."""
        c = collect("HIST")
        shared_sizes = Counter()
        for acc in c.shared_accesses:
            for la in acc.lanes:
                shared_sizes[la.size] += 1
        assert shared_sizes[1] > 0
        assert shared_sizes[1] == sum(shared_sizes.values())

    def test_global_elements_at_least_words(self):
        """§VI-A1: global data-structure elements are >= 4 bytes."""
        for name in ("SCAN", "REDUCE", "HIST", "HASH"):
            c = collect(name)
            for acc in c.global_accesses:
                for la in acc.lanes:
                    assert la.size >= 4, f"{name} has sub-word global access"


class TestOfftRowSpread:
    def test_fft_shared_accesses_span_many_rows(self):
        """The Fig. 8 outlier needs one warp access to touch many
        shared-memory rows (stride-33 layout)."""
        from tests.reference.timing_ref import SharedMemoryModel

        c = collect("OFFT")
        model = SharedMemoryModel(16, 4)
        max_rows = 0
        for acc in c.shared_accesses:
            if len(acc.lanes) >= 16:
                max_rows = max(max_rows, len(model.rows_touched(acc.lanes)))
        assert max_rows >= 8

    def test_other_benchmarks_stay_row_local(self):
        from tests.reference.timing_ref import SharedMemoryModel

        c = collect("SCAN")
        model = SharedMemoryModel(16, 4)
        for acc in c.shared_accesses:
            if len(acc.lanes) >= 16:
                assert len(model.rows_touched(acc.lanes)) <= 4


class TestCriticalSections:
    def test_hash_data_accesses_carry_signatures(self):
        """HASH's bucket updates must reach the detector flagged as
        critical with non-zero atomic-ID signatures."""
        c = collect("HASH", scale=0.25)
        critical = [
            la
            for acc in c.global_accesses
            for la in acc.lanes
            if la.critical
        ]
        assert critical
        assert all(la.sig != 0 for la in critical)

    def test_non_lock_benchmarks_never_critical(self):
        for name in ("SCAN", "REDUCE"):
            c = collect(name)
            for acc in c.global_accesses + c.shared_accesses:
                assert not any(la.critical for la in acc.lanes), name


class TestSynchronizationPlacement:
    def test_fence_benchmarks_fence_before_ticket(self):
        """REDUCE/PSUM attach a pre-fence epoch to the partial write and
        a post-fence epoch to later accesses."""
        c = collect("REDUCE")
        fence_ids = {acc.fence_id for acc in c.global_accesses}
        assert len(fence_ids) >= 2  # accesses before and after the fence

    def test_sync_ids_advance_with_barriers(self):
        c = collect("PSUM")
        sync_ids = {acc.sync_id for acc in c.global_accesses}
        assert len(sync_ids) >= 2
