"""Shared-memory Race Detection Unit — one per SM (paper §IV-A).

The shared-memory RDU sits beside the SM's shared-memory banks. Because the
shared memory is small and on-chip, its shadow entries are held in dedicated
hardware extending each shared row (Fig. 5), so detection is performed in
parallel with the access and costs the warp nothing. The only timing effect
is the barrier-time invalidation of the block's shadow entries, performed
``banks`` entries per cycle.

For the Fig. 8 experiment (``shared_shadow_in_global``) the shadow entries
live in global memory instead: every shared access must first fetch the
shadow lines covering its entries through the SM's L1. L1 hits keep the RDU
fed in parallel (no stall); misses stall the access until the entry arrives,
and a warp whose lanes span many shared-memory rows touches many shadow
lines per access — the OFFT pathology.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.bitops import ceil_div
from repro.common.config import GPUConfig, HAccRGConfig
from repro.common.types import WarpAccess
from repro.core.races import RaceLog
from repro.core.shadow import SharedShadowTable


class SharedRDU:
    """Per-SM shared-memory RDU: shadow tables for resident blocks."""

    def __init__(self, sm_id: int, gpu_config: GPUConfig,
                 config: HAccRGConfig, log: RaceLog) -> None:
        self.sm_id = sm_id
        self.gpu_config = gpu_config
        self.config = config
        self.log = log
        self._tables: Dict[int, SharedShadowTable] = {}  # block_id -> table
        self._shadow_base: Dict[int, int] = {}           # Fig. 8 region base
        self.invalidation_cycles = 0
        self.shadow_line_fetches = 0

    # ------------------------------------------------------------------

    def block_started(self, block: Any,
                      shadow_base: Optional[int] = None) -> None:
        region = block.launch.kernel.shared_bytes()
        if region <= 0:
            return
        self._tables[block.block_id] = SharedShadowTable(
            region, self.config.shared_granularity, self.log,
            regroup=self.config.warp_regrouping,
        )
        if shadow_base is not None:
            self._shadow_base[block.block_id] = shadow_base

    def block_ended(self, block: Any) -> None:
        self._tables.pop(block.block_id, None)
        self._shadow_base.pop(block.block_id, None)

    def table_for(self, block_id: int) -> Optional[SharedShadowTable]:
        return self._tables.get(block_id)

    # ------------------------------------------------------------------

    def check_access(self, access: WarpAccess) -> int:
        """Race-check one shared warp access; returns new distinct races."""
        table = self._tables.get(access.block_id)
        if table is None:
            return 0
        return table.check(access)

    def shadow_fetch_lines(self, access: WarpAccess) -> List[int]:
        """Fig. 8 mode: global-memory line addresses holding the shadow
        entries this access needs (one per distinct shared-memory row,
        since row-parallel bank accesses map to distinct shadow words)."""
        base = self._shadow_base.get(access.block_id)
        table = self._tables.get(access.block_id)
        if base is None or table is None:
            return []
        entry_bytes = ceil_div(self.config.shared_entry_bits(), 8)
        line = self.gpu_config.l1d_line
        lines = set()
        for la in access.lanes:
            for e in table.gmap.entries_of_range(la.addr, la.size):
                lines.add((base + e * entry_bytes) // line * line)
        self.shadow_line_fetches += len(lines)
        return sorted(lines)

    # ------------------------------------------------------------------

    def barrier_invalidate(self, block: Any) -> int:
        """Reset the block's shadow entries; returns the stall cycles.

        The shadow bits extend the shared-memory rows (Fig. 5), so the RDU
        clears them with a row-parallel flash reset: all banks clear eight
        rows per cycle, plus a fixed trigger cost (§V "extra clock cycles
        required to invalidate the shared memory shadow entries").
        """
        table = self._tables.get(block.block_id)
        if table is None:
            return 0
        entries = table.barrier_reset()
        cycles = 2 + ceil_div(entries, self.gpu_config.shared_mem_banks * 8)
        self.invalidation_cycles += cycles
        return cycles
