"""Reference timing kernels: the lane-wise bank-conflict and atomic models.

Shared memory is divided into ``num_banks`` banks of ``bank_width`` bytes,
interleaved by address (paper §II-A). A warp's shared access completes in
one pass when every lane maps to a distinct bank (or lanes reading the
same word broadcast); lanes colliding on a bank serialize into extra
passes. Same-address atomics serialize in lane order.

These per-lane walks are the executable spec for the address-list kernels
in :mod:`repro.gpu.timing`; ``tests/property/test_fastpath_properties.py``
drives both with the same lanes and asserts equal results.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from repro.common.types import LaneAccess


class SharedMemoryModel:
    """Computes bank-conflict serialization for warp shared accesses."""

    def __init__(self, num_banks: int, bank_width: int) -> None:
        self.num_banks = num_banks
        self.bank_width = bank_width

    def bank_of(self, addr: int) -> int:
        """Bank index serving byte address ``addr``."""
        return (addr // self.bank_width) % self.num_banks

    def row_of(self, addr: int) -> int:
        """Row (word line across banks) containing byte address ``addr``."""
        return addr // (self.bank_width * self.num_banks)

    def conflict_passes(self, lanes: Sequence[LaneAccess]) -> int:
        """Number of serialized passes needed to service the lane set.

        Same-word accesses broadcast (count once per bank/word pair);
        different words in the same bank serialize.
        """
        per_bank: Dict[int, Set[int]] = {}
        for la in lanes:
            word = la.addr // self.bank_width
            per_bank.setdefault(word % self.num_banks, set()).add(word)
        if not per_bank:
            return 0
        return max(len(words) for words in per_bank.values())

    def rows_touched(self, lanes: Sequence[LaneAccess]) -> Set[int]:
        """Distinct shared-memory rows a lane set touches.

        When shared-memory shadow entries live in global memory (the
        Fig. 8 experiment), each distinct row can map to a distinct
        shadow cache line, multiplying the shadow fetches per access.
        """
        return {self.row_of(la.addr) for la in lanes}


def atomic_serialization(lanes: Sequence[LaneAccess], issue: int) -> int:
    """Extra cycles for same-address atomics: (max lanes per address - 1)."""
    per_addr: Dict[int, int] = {}
    for la in lanes:
        per_addr[la.addr] = per_addr.get(la.addr, 0) + 1
    if not per_addr:
        return 0
    return (max(per_addr.values()) - 1) * issue
