"""Tracking granularity: byte address -> shadow entry mapping (paper §IV-C).

One shadow entry covers ``granularity`` consecutive bytes of the tracked
space. One-to-one mapping (granularity == element size) reports no false
positives; coarser mappings can merge accesses from different threads into
one entry and report false races, trading accuracy for shadow storage —
the Table III experiment.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Tuple

from repro.common.bitops import ceil_div, is_power_of_two, log2_exact
from repro.common.errors import ConfigError


class GranularityMap:
    """Address <-> entry arithmetic for one tracked region."""

    def __init__(self, granularity: int) -> None:
        if not is_power_of_two(granularity):
            raise ConfigError("granularity must be a power of two")
        self.granularity = granularity
        self._shift = log2_exact(granularity)

    def entry_of(self, addr: int) -> int:
        """Shadow entry index covering byte ``addr``."""
        return addr >> self._shift

    def entries_of_range(self, addr: int, size: int) -> range:
        """Entry indices covering the byte range [addr, addr+size)."""
        first = addr >> self._shift
        last = (addr + size - 1) >> self._shift
        return range(first, last + 1)

    def num_entries(self, region_bytes: int) -> int:
        """Entries needed to cover a region of ``region_bytes`` bytes."""
        return ceil_div(region_bytes, self.granularity)

    def base_addr(self, entry: int) -> int:
        """First byte address covered by ``entry``."""
        return entry << self._shift

    def lanes_to_entries(self, lanes: Iterable[Any]) -> List[Tuple[int, object]]:
        """Flatten lane accesses to (entry, lane) pairs, in lane order.

        A lane whose footprint spans multiple entries contributes one pair
        per entry (matching the hardware generating one shadow check per
        covered entry).
        """
        out: List[Tuple[int, object]] = []
        for la in lanes:
            for e in self.entries_of_range(la.addr, la.size):
                out.append((e, la))
        return out

    def walk(self, lanes: Sequence[Any]
             ) -> Tuple[Iterable[Tuple[int, int, Any]], bool]:
        """The (lane index, entry, lane) checks of a warp, in lane order,
        and whether two of them share an entry.

        The common warp has every lane inside one entry; it is zipped
        straight from the lane list. Lanes that span entries expand to one
        check per covered entry, as in :meth:`lanes_to_entries`.
        """
        shift = self._shift
        firsts = [la[1] >> shift for la in lanes]
        lasts = [(la[1] + la[2] - 1) >> shift for la in lanes]
        if firsts == lasts:
            return (zip(range(len(lanes)), firsts, lanes),
                    len(set(firsts)) < len(firsts))
        checks = [(i, e, la)
                  for i, (la, first, last) in enumerate(zip(lanes, firsts, lasts))
                  for e in range(first, last + 1)]
        return checks, len({c[1] for c in checks}) < len(checks)
