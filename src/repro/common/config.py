"""Hardware and detector configuration.

:class:`GPUConfig` encodes the paper's Table I (GPGPU-Sim configured as an
NVIDIA Quadro FX5800 with Fermi-style L1/L2 caches). :class:`HAccRGConfig`
encodes the detector parameters chosen in §VI (16-byte shared tracking
granularity, 4-byte global granularity, 8-bit sync/fence IDs, 16-bit 2-bin
Bloom atomic IDs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Dict

from repro.common.bitops import is_power_of_two
from repro.common.errors import ConfigError


class DetectionMode(enum.IntEnum):
    """Which memory spaces race detection covers."""

    OFF = 0
    SHARED = 1         #: shared-memory RDUs only
    GLOBAL = 2         #: global-memory RDUs only
    FULL = 3           #: shared + global (the paper's combined 27% config)

    @property
    def shared_enabled(self) -> bool:
        return self in (DetectionMode.SHARED, DetectionMode.FULL)

    @property
    def global_enabled(self) -> bool:
        return self in (DetectionMode.GLOBAL, DetectionMode.FULL)


class DetectorBackend(enum.IntEnum):
    """How the detection algorithm is executed."""

    HARDWARE = 0   #: dedicated RDUs alongside the memory pipeline (HAccRG)
    SOFTWARE = 1   #: HAccRG algorithm instrumented into the kernel (§VI-B)
    GRACE = 2      #: GRace-addr style instrumentation baseline


@dataclass(frozen=True)
class GPUConfig:
    """GPU hardware parameters (paper Table I).

    All sizes are bytes, all latencies are core cycles. The defaults model
    the Quadro FX5800 configuration with Fermi-style caches used in the
    paper's evaluation.
    """

    # --- compute -----------------------------------------------------------
    num_sms: int = 30
    num_clusters: int = 10
    simd_width: int = 8
    warp_size: int = 32
    max_threads_per_sm: int = 1024
    registers_per_sm: int = 16384
    max_blocks_per_sm: int = 8

    # --- shared memory -----------------------------------------------------
    shared_mem_per_sm: int = 16 * 1024
    shared_mem_banks: int = 16
    shared_bank_width: int = 4          # bytes served per bank per access
    shared_latency: int = 1

    # --- caches ------------------------------------------------------------
    l1d_size: int = 48 * 1024
    l1d_assoc: int = 6
    l1d_line: int = 128
    l1_latency: int = 18
    l2_slice_size: int = 64 * 1024
    l2_assoc: int = 8
    l2_line: int = 128
    l2_latency: int = 60

    # --- memory system -----------------------------------------------------
    num_mem_slices: int = 8
    dram_latency: int = 220             # row-miss service latency, cycles
    dram_row_hit_latency: int = 120     # FR-FCFS row-locality discount
    dram_queue_size: int = 32
    dram_bytes_per_cycle: float = 8.0   # per-channel peak bandwidth
    dram_row_size: int = 2048

    # --- interconnect ------------------------------------------------------
    flit_size: int = 32
    icnt_latency: int = 12              # SM <-> memory slice hop latency
    icnt_extra_flit_id_bits: int = 32   # sync+fence+atomic ID payload bits

    def __post_init__(self) -> None:
        for name in ("simd_width", "warp_size", "l1d_line", "l2_line",
                     "shared_mem_banks", "flit_size"):
            if not is_power_of_two(getattr(self, name)):
                raise ConfigError(f"{name} must be a power of two")
        if self.warp_size % self.simd_width:
            raise ConfigError("warp_size must be a multiple of simd_width")
        if self.num_sms % self.num_clusters:
            raise ConfigError("num_sms must be divisible by num_clusters")
        if self.max_threads_per_sm % self.warp_size:
            raise ConfigError("max_threads_per_sm must be a multiple of warp_size")
        if self.shared_bank_width < 1:
            raise ConfigError("shared_bank_width must be >= 1")

    @property
    def warps_per_sm(self) -> int:
        """Maximum resident warps per SM."""
        return self.max_threads_per_sm // self.warp_size

    @property
    def warp_issue_cycles(self) -> int:
        """Cycles to issue one warp instruction through the SIMD pipeline."""
        return self.warp_size // self.simd_width

    @property
    def l2_total_size(self) -> int:
        return self.l2_slice_size * self.num_mem_slices

    def slice_of(self, addr: int) -> int:
        """Map a global byte address to its memory slice (line-interleaved)."""
        return (addr // self.l2_line) % self.num_mem_slices

    def describe(self) -> Dict[str, str]:
        """Human-readable Table I rows (used by the table1 experiment)."""
        return {
            "# SMs / GPU Clusters": f"{self.num_sms} / {self.num_clusters}",
            "SIMD Pipeline Width / Warp Size": f"{self.simd_width} / {self.warp_size}",
            "# Threads / Registers per SM": f"{self.max_threads_per_sm} / {self.registers_per_sm}",
            "Warp Scheduling": "Round Robin",
            "Shared Memory per SM": f"{self.shared_mem_per_sm // 1024}KB",
            "L1 Data Cache per SM": (
                f"{self.l1d_size // 1024}KB/{self.l1d_assoc} way/{self.l1d_line}B line"
            ),
            "Unified L2 Cache": (
                f"{self.l2_slice_size // 1024}KB/Memory Slice: "
                f"{self.l2_assoc} way/{self.l2_line}B line"
            ),
            "# Memory Slices": str(self.num_mem_slices),
            "DRAM Request Queue Size": str(self.dram_queue_size),
            "Memory Controller": "Out-of-Order (FR-FCFS)",
            "Flit Size": f"{self.flit_size}B",
        }


def scaled_gpu_config(**overrides: Any) -> GPUConfig:
    """Table I configuration with caches scaled to the scaled benchmarks.

    The paper runs MB-scale inputs against a 48 KB L1 / 512 KB L2; our
    benchmark inputs are scaled ~50-100x down so a pure-Python simulation
    finishes in seconds, and keeping the paper's cache sizes would let the
    whole working set (data *and* shadow) live in L2, hiding the shadow
    traffic the global RDUs generate. This configuration shrinks the
    caches by the same factor as the inputs — 4 KB L1 per SM, 8 KB L2 per
    slice — preserving the capacity-pressure ratios that produce Fig. 7's
    overhead and Fig. 9's bandwidth shapes. Everything else is Table I.
    """
    params = dict(
        l1d_size=4 * 1024,
        l1d_assoc=4,
        l2_slice_size=8 * 1024,
    )
    params.update(overrides)
    return GPUConfig(**params)


@dataclass(frozen=True)
class HAccRGConfig:
    """Detector parameters (paper §III/IV, values chosen in §VI)."""

    mode: DetectionMode = DetectionMode.FULL
    backend: DetectorBackend = DetectorBackend.HARDWARE

    # tracking granularity: one shadow entry per this many bytes
    shared_granularity: int = 16
    global_granularity: int = 4

    # logical-clock widths (bits)
    sync_id_bits: int = 8
    fence_id_bits: int = 8

    # Bloom-filter atomic IDs
    atomic_sig_bits: int = 16
    atomic_sig_bins: int = 2

    # shadow-entry field widths (bits), for the hardware cost model
    tid_bits: int = 10
    bid_bits: int = 3
    sid_bits: int = 5

    # Fig. 8: store shared-memory shadow entries in global memory instead of
    # dedicated per-SM hardware
    shared_shadow_in_global: bool = False

    # dynamic warp re-grouping: report races regardless of warp membership
    warp_regrouping: bool = False

    # --- ablation switches (all True = the paper's design) ---------------
    #: suppress cross-warp RAW when the producer fenced since its write
    fence_check_enabled: bool = True
    #: report cross-SM RAW on an L1 hit (the stale-line coherence check)
    stale_l1_check_enabled: bool = True
    #: increment a block's sync ID at a barrier only if the block touched
    #: global memory since its previous barrier (§IV-B traffic optimization)
    sync_id_lazy_increment: bool = True
    #: only *modified* shadow entries generate write-back traffic; when
    #: False every checked entry is written back (naive RDU)
    shadow_writeback_dirty_only: bool = True

    def __post_init__(self) -> None:
        for name in ("shared_granularity", "global_granularity"):
            g = getattr(self, name)
            if not is_power_of_two(g) or g < 1:
                raise ConfigError(f"{name} must be a positive power of two")
        if self.atomic_sig_bins < 1:
            raise ConfigError("atomic_sig_bins must be >= 1")
        if self.atomic_sig_bits % self.atomic_sig_bins:
            raise ConfigError("atomic_sig_bits must divide evenly into bins")
        if not is_power_of_two(self.atomic_sig_bits // self.atomic_sig_bins):
            raise ConfigError("bits per bin must be a power of two")
        if self.sync_id_bits < 1 or self.fence_id_bits < 1:
            raise ConfigError("ID widths must be positive")

    @property
    def sync_id_mask(self) -> int:
        return (1 << self.sync_id_bits) - 1

    @property
    def fence_id_mask(self) -> int:
        return (1 << self.fence_id_bits) - 1

    @property
    def bits_per_bin(self) -> int:
        return self.atomic_sig_bits // self.atomic_sig_bins

    def with_mode(self, mode: DetectionMode) -> "HAccRGConfig":
        """Return a copy with a different detection mode."""
        return replace(self, mode=mode)

    def with_backend(self, backend: DetectorBackend) -> "HAccRGConfig":
        """Return a copy with a different execution backend."""
        return replace(self, backend=backend)

    def with_granularity(self, shared: int | None = None,
                         global_: int | None = None) -> "HAccRGConfig":
        """Return a copy with adjusted tracking granularities."""
        kwargs = {}
        if shared is not None:
            kwargs["shared_granularity"] = shared
        if global_ is not None:
            kwargs["global_granularity"] = global_
        return replace(self, **kwargs)

    def shared_entry_bits(self) -> int:
        """Bits per shared-memory shadow entry: M + S + tid (§VI-C2: 12)."""
        return 1 + 1 + self.tid_bits

    def global_entry_bits(self, with_fence: bool = True,
                          with_atomic: bool = True) -> int:
        """Bits per global shadow entry (§VI-C2: 28 basic / 36 / 52)."""
        bits = 1 + 1 + self.tid_bits + self.bid_bits + self.sid_bits + self.sync_id_bits
        if with_fence:
            bits += self.fence_id_bits
        if with_atomic:
            bits += self.atomic_sig_bits
        return bits
