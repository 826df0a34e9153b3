"""Property-based tests for Bloom signatures (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.bloom import BloomSignature
from tests.core.test_bloom import encode_set

geometries = st.sampled_from([(8, 2), (16, 2), (16, 4), (32, 2), (32, 4)])
addrs = st.integers(min_value=0, max_value=(1 << 40) - 1).map(lambda a: a * 4)


class TestEncodingInvariants:
    @given(geometries, addrs)
    def test_exactly_one_bit_per_bin(self, geo, addr):
        bits, bins = geo
        sig = BloomSignature(bits, bins)
        s = sig.encode(addr)
        bin_mask = (1 << sig.bin_bits) - 1
        for b in range(bins):
            assert bin((s >> (b * sig.bin_bits)) & bin_mask).count("1") == 1

    @given(geometries, addrs)
    def test_signature_fits_width(self, geo, addr):
        bits, bins = geo
        sig = BloomSignature(bits, bins)
        assert 0 < sig.encode(addr) < (1 << bits)

    @given(geometries, st.lists(addrs, min_size=1, max_size=8))
    def test_insert_monotone(self, geo, lock_addrs):
        """Inserting can only set bits, never clear them."""
        sig = BloomSignature(*geo)
        s = 0
        for a in lock_addrs:
            s2 = sig.insert(s, a)
            assert s2 & s == s
            s = s2

    @given(geometries, st.lists(addrs, min_size=1, max_size=8))
    def test_no_false_negatives(self, geo, lock_addrs):
        """A held lock always intersects: Bloom filters never miss a
        *common* element (they only report phantom ones)."""
        sig = BloomSignature(*geo)
        held = encode_set(sig, lock_addrs)
        for a in lock_addrs:
            assert sig.may_share_lock(held, sig.encode(a))

    @given(geometries, st.lists(addrs, min_size=2, max_size=8))
    def test_order_independent(self, geo, lock_addrs):
        sig = BloomSignature(*geo)
        assert encode_set(sig, lock_addrs) == encode_set(
            sig, list(reversed(lock_addrs)))

    @given(geometries, st.lists(addrs, min_size=1, max_size=64,
                                unique=True))
    def test_encode_many_matches_scalar(self, geo, lock_addrs):
        sig = BloomSignature(*geo)
        vec = sig.encode_many(np.array(lock_addrs, dtype=np.int64))
        for a, s in zip(lock_addrs, vec):
            assert sig.encode(a) == int(s)


class TestIntersectionProperties:
    @given(geometries, st.lists(addrs, min_size=1, max_size=4),
           st.lists(addrs, min_size=1, max_size=4))
    def test_intersection_commutative(self, geo, a_locks, b_locks):
        sig = BloomSignature(*geo)
        a = encode_set(sig, a_locks)
        b = encode_set(sig, b_locks)
        assert BloomSignature.intersect(a, b) == BloomSignature.intersect(b, a)

    @given(geometries, st.lists(addrs, min_size=1, max_size=4),
           st.lists(addrs, min_size=1, max_size=4))
    def test_shared_element_implies_may_share(self, geo, a_locks, b_locks):
        sig = BloomSignature(*geo)
        common = a_locks[0]
        a = encode_set(sig, a_locks)
        b = encode_set(sig, b_locks + [common])
        assert sig.may_share_lock(a, b)
