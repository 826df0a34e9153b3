"""Unit tests for the reference banked shared-memory conflict model."""

from repro.common.types import AccessKind, LaneAccess
from tests.reference.timing_ref import SharedMemoryModel


def lanes_at(addrs, size=4):
    return [LaneAccess(i, a, size, AccessKind.READ) for i, a in enumerate(addrs)]


class TestBankMapping:
    def test_bank_of_interleaves_words(self):
        m = SharedMemoryModel(16, 4)
        assert [m.bank_of(i * 4) for i in range(16)] == list(range(16))
        assert m.bank_of(16 * 4) == 0  # wraps

    def test_row_of(self):
        m = SharedMemoryModel(16, 4)
        assert m.row_of(0) == 0
        assert m.row_of(63) == 0
        assert m.row_of(64) == 1


class TestConflictPasses:
    def test_conflict_free_unit_stride(self):
        m = SharedMemoryModel(16, 4)
        assert m.conflict_passes(lanes_at([i * 4 for i in range(16)])) == 1

    def test_broadcast_same_word_is_one_pass(self):
        m = SharedMemoryModel(16, 4)
        assert m.conflict_passes(lanes_at([8] * 16)) == 1

    def test_two_way_conflict(self):
        """Stride-2 words: lanes pairwise collide on 8 banks -> 2 passes."""
        m = SharedMemoryModel(16, 4)
        addrs = [i * 8 for i in range(16)]  # words 0,2,4,... stride 2
        assert m.conflict_passes(lanes_at(addrs)) == 2

    def test_worst_case_same_bank(self):
        m = SharedMemoryModel(16, 4)
        addrs = [i * 16 * 4 for i in range(8)]  # all bank 0, different words
        assert m.conflict_passes(lanes_at(addrs)) == 8

    def test_empty(self):
        assert SharedMemoryModel(16, 4).conflict_passes([]) == 0


class TestRowsTouched:
    def test_unit_stride_one_row(self):
        m = SharedMemoryModel(16, 4)
        assert m.rows_touched(lanes_at([i * 4 for i in range(16)])) == {0}

    def test_fft_stride_spreads_rows(self):
        """Stride-33-words (the OFFT layout) touches one row per lane."""
        m = SharedMemoryModel(16, 4)
        lanes = lanes_at([i * 33 * 4 for i in range(32)])
        assert len(m.rows_touched(lanes)) > 16
