"""Unit tests for Bloom-filter atomic-ID signatures."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.core.bloom import BloomSignature


def encode_set(sig, addrs):
    """The signature of a lock set: ``insert`` folded over the addresses."""
    acc = 0
    for a in addrs:
        acc = sig.insert(acc, a)
    return acc


class TestEncoding:
    def test_one_bit_per_bin(self):
        sig = BloomSignature(16, 2)
        s = sig.encode(0x40)
        # exactly one bit set in each 8-bit bin
        assert bin(s & 0xFF).count("1") == 1
        assert bin((s >> 8) & 0xFF).count("1") == 1

    def test_insert_is_or(self):
        sig = BloomSignature(16, 2)
        s = sig.insert(sig.encode(0x40), 0x44)
        assert s == (sig.encode(0x40) | sig.encode(0x44))

    def test_encode_set(self):
        sig = BloomSignature(16, 2)
        assert encode_set(sig, [0x40, 0x44]) == sig.insert(sig.encode(0x40),
                                                           0x44)

    def test_deterministic(self):
        sig = BloomSignature(16, 2)
        assert sig.encode(0x1234) == sig.encode(0x1234)

    def test_distinct_nearby_addresses_distinct_signatures(self):
        sig = BloomSignature(16, 2)
        sigs = {sig.encode(a * 4) for a in range(8)}
        assert len(sigs) == 8  # 8 low-order words all distinguishable


class TestIntersection:
    def test_common_lock_survives_intersection(self):
        sig = BloomSignature(16, 2)
        a = encode_set(sig, [0x40, 0x80])
        b = encode_set(sig, [0x40, 0xC0])
        assert sig.may_share_lock(a, b)

    def test_disjoint_locks_intersect_empty(self):
        sig = BloomSignature(32, 2)
        a = sig.encode(0x40)
        b = sig.encode(0x44)
        assert BloomSignature.intersect(a, b) == 0
        assert not sig.may_share_lock(a, b)

    def test_zero_signature_never_shares(self):
        sig = BloomSignature(16, 2)
        assert not sig.may_share_lock(0, sig.encode(0x40))


class TestAliasing:
    def test_collision_at_bin_period(self):
        """Addresses differing by the bin period alias (the miss source)."""
        sig = BloomSignature(8, 2)  # 4-bit bins, indexed by 2 address bits
        assert sig.collides(0 * 4, 4 * 4)  # words 0 and 4 alias mod 4

    def test_paper_miss_rates_2bins(self):
        """§VI-A2: 8/16/32-bit 2-bin signatures miss 25% / 12.5% / 6.25%."""
        rng = np.random.Generator(np.random.PCG64(3))
        addrs = rng.integers(0, 1 << 28, size=1 << 16, dtype=np.int64) * 4
        for bits, expected in ((8, 0.25), (16, 0.125), (32, 0.0625)):
            rate = BloomSignature(bits, 2).miss_rate(addrs)
            assert rate == pytest.approx(expected, rel=0.05)

    def test_four_bins_worse_than_two(self):
        """§VI-A2: at equal size, 2 bins are more accurate than 4."""
        rng = np.random.Generator(np.random.PCG64(4))
        addrs = rng.integers(0, 1 << 28, size=1 << 15, dtype=np.int64) * 4
        for bits in (8, 16, 32):
            two = BloomSignature(bits, 2).miss_rate(addrs)
            four = BloomSignature(bits, 4).miss_rate(addrs)
            assert four > two

    def test_miss_rate_tiny_inputs(self):
        sig = BloomSignature(16, 2)
        assert sig.miss_rate(np.array([4])) == 0.0
        assert sig.miss_rate(np.array([], dtype=np.int64)) == 0.0


class TestValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            BloomSignature(16, 3)
        with pytest.raises(ConfigError):
            BloomSignature(12, 2)  # 6-bit bins not a power of two
        with pytest.raises(ConfigError):
            BloomSignature(16, 0)

    def test_encode_many_matches_scalar(self):
        sig = BloomSignature(16, 2)
        addrs = np.arange(0, 256, 4, dtype=np.int64)
        vec = sig.encode_many(addrs)
        for a, s in zip(addrs, vec):
            assert sig.encode(int(a)) == int(s)
