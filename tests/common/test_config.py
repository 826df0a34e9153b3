"""Unit tests for GPU and detector configuration."""

import pytest

from repro.common.config import (
    DetectionMode,
    DetectorBackend,
    GPUConfig,
    HAccRGConfig,
    scaled_gpu_config,
)
from repro.common.errors import ConfigError


class TestGPUConfig:
    def test_table1_defaults(self):
        """Defaults encode the paper's Table I."""
        c = GPUConfig()
        assert c.num_sms == 30
        assert c.num_clusters == 10
        assert c.simd_width == 8
        assert c.warp_size == 32
        assert c.max_threads_per_sm == 1024
        assert c.registers_per_sm == 16384
        assert c.shared_mem_per_sm == 16 * 1024
        assert c.num_mem_slices == 8
        assert c.dram_queue_size == 32

    def test_warp_issue_cycles(self):
        assert GPUConfig().warp_issue_cycles == 4  # 32 lanes / 8-wide SIMD

    def test_warps_per_sm(self):
        assert GPUConfig().warps_per_sm == 32

    def test_slice_interleaving(self):
        c = GPUConfig()
        # consecutive cache lines map to consecutive slices
        slices = [c.slice_of(i * c.l2_line) for i in range(c.num_mem_slices)]
        assert slices == list(range(c.num_mem_slices))
        # wraps around
        assert c.slice_of(c.num_mem_slices * c.l2_line) == 0

    def test_same_line_same_slice(self):
        c = GPUConfig()
        assert c.slice_of(0) == c.slice_of(127)

    def test_describe_has_paper_rows(self):
        rows = GPUConfig().describe()
        assert rows["# SMs / GPU Clusters"] == "30 / 10"
        assert rows["Warp Scheduling"] == "Round Robin"
        assert "16KB" in rows["Shared Memory per SM"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            GPUConfig(simd_width=7)
        with pytest.raises(ConfigError):
            GPUConfig(warp_size=24)
        with pytest.raises(ConfigError):
            GPUConfig(num_sms=7, num_clusters=2)
        with pytest.raises(ConfigError):
            GPUConfig(shared_bank_width=0)

    def test_scaled_config_keeps_compute(self):
        c = scaled_gpu_config()
        assert c.num_sms == 30
        assert c.warp_size == 32
        assert c.l1d_size < GPUConfig().l1d_size
        assert c.l2_slice_size < GPUConfig().l2_slice_size

    def test_scaled_config_overrides(self):
        c = scaled_gpu_config(num_sms=10, num_clusters=5)
        assert c.num_sms == 10


class TestDetectionMode:
    def test_shared_enabled(self):
        assert DetectionMode.SHARED.shared_enabled
        assert DetectionMode.FULL.shared_enabled
        assert not DetectionMode.GLOBAL.shared_enabled
        assert not DetectionMode.OFF.shared_enabled

    def test_global_enabled(self):
        assert DetectionMode.GLOBAL.global_enabled
        assert DetectionMode.FULL.global_enabled
        assert not DetectionMode.SHARED.global_enabled


class TestHAccRGConfig:
    def test_paper_defaults(self):
        c = HAccRGConfig()
        assert c.shared_granularity == 16  # §VI-A1 choice
        assert c.global_granularity == 4
        assert c.sync_id_bits == 8
        assert c.fence_id_bits == 8
        assert c.atomic_sig_bits == 16
        assert c.atomic_sig_bins == 2

    def test_entry_bits_match_paper(self):
        c = HAccRGConfig()
        assert c.shared_entry_bits() == 12
        assert c.global_entry_bits(False, False) == 28
        assert c.global_entry_bits(True, False) == 36
        assert c.global_entry_bits(True, True) == 52

    def test_masks(self):
        c = HAccRGConfig()
        assert c.sync_id_mask == 0xFF
        assert c.fence_id_mask == 0xFF

    def test_with_helpers(self):
        c = HAccRGConfig()
        assert c.with_mode(DetectionMode.SHARED).mode == DetectionMode.SHARED
        assert c.with_backend(DetectorBackend.GRACE).backend == DetectorBackend.GRACE
        g = c.with_granularity(shared=64, global_=8)
        assert g.shared_granularity == 64
        assert g.global_granularity == 8
        # original untouched (frozen)
        assert c.shared_granularity == 16

    def test_validation(self):
        with pytest.raises(ConfigError):
            HAccRGConfig(shared_granularity=3)
        with pytest.raises(ConfigError):
            HAccRGConfig(atomic_sig_bits=16, atomic_sig_bins=3)
        with pytest.raises(ConfigError):
            HAccRGConfig(atomic_sig_bits=12, atomic_sig_bins=2)  # 6 not pow2
        with pytest.raises(ConfigError):
            HAccRGConfig(sync_id_bits=0)
