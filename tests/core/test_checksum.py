"""Internet checksum (RFC 1071) and L4 pseudo-header checksums."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.checksum import (
    icmp_checksum, internet_checksum, tcp_checksum, udp_checksum,
    verify_checksum,
)
from repro.utils.bitutil import BitUtil


class TestInternetChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example header.
        data = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
        assert internet_checksum(data) == 0

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == \
            internet_checksum(b"\x01\x00")

    def test_verify_roundtrip(self):
        data = bytearray(b"\x45\x00\x00\x14" + b"\x00" * 16)
        BitUtil.set16(data, 10, internet_checksum(data))
        assert verify_checksum(data)

    def test_detects_single_bit_flip(self):
        data = bytearray(b"\x45\x00\x00\x14" + b"\x11" * 16)
        BitUtil.set16(data, 10, internet_checksum(data))
        data[3] ^= 0x01
        assert not verify_checksum(data)

    def test_icmp_checksum_alias(self):
        assert icmp_checksum(b"\x08\x00\x00\x00") == \
            internet_checksum(b"\x08\x00\x00\x00")


class TestPseudoHeader:
    def test_udp_checksum_nonzero(self):
        csum = udp_checksum(0x0A000001, 0x0A000002, b"\x00" * 8)
        assert 0 < csum <= 0xFFFF

    def test_udp_zero_becomes_ffff(self):
        # Craft a datagram whose sum would be 0; regardless, the result
        # is never transmitted as 0.
        for filler in range(256):
            payload = bytes([filler]) * 6
            csum = udp_checksum(0, 0, payload)
            assert csum != 0

    def test_udp_checksum_depends_on_ips(self):
        payload = b"\x12\x34" * 4
        assert udp_checksum(1, 2, payload) != udp_checksum(1, 3, payload)

    def test_tcp_checksum_verifies(self):
        from repro.core.protocols.tcp import build_tcp_segment, TCPFlags
        src, dst = 0x0A000001, 0x0A000002
        segment = bytearray(build_tcp_segment(80, 1234, 0, 0,
                                              TCPFlags.SYN))
        BitUtil.set16(segment, 16, tcp_checksum(src, dst, segment))
        assert tcp_checksum(src, dst, segment) == 0


@given(st.binary(max_size=64).filter(lambda d: len(d) % 2 == 0))
def test_property_checksummed_data_verifies(data):
    """Inserting the checksum 16-bit-aligned makes the total sum 0."""
    buf = bytearray(data + b"\x00\x00")
    csum = internet_checksum(buf)
    BitUtil.set16(buf, len(buf) - 2, csum)
    assert verify_checksum(buf)


@given(st.binary(max_size=64))
def test_property_checksum_is_16_bit(data):
    assert 0 <= internet_checksum(data) <= 0xFFFF


# -- the big-integer residue against the RFC 1071 word loop -------------------

def rfc1071(data):
    """The reference: sum big-endian 16-bit words (odd tail padded
    with a zero byte), fold carries end-around, complement."""
    data = bytes(data)
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@pytest.mark.parametrize("length",
                         list(range(130)) + [1499, 1500, 8999, 9000])
def test_checksum_equals_word_loop_at_every_length(length):
    rng = random.Random(length)
    for data in (bytes(rng.getrandbits(8) for _ in range(length)),
                 bytes(length),                  # all zero: the sum is +0
                 b"\xFF" * length):              # every word is -0
        assert internet_checksum(data) == rfc1071(data)


@pytest.mark.parametrize("data", [
    b"\xFF\xFF", b"\x7F\xFF\x80\x00", b"\x00\x01\xFF\xFE",
    b"\xFF\xFF" * 3, b"\x80\x00\x7F\xFF\x00", b"\xFE\xFF\x01",
    b"\x00\x00\xFF\xFF\x00\x00", b"\x12\x34\xED\xCB",
])
def test_sum_of_exactly_ffff_is_minus_zero(data):
    """Non-zero data whose words sum to a multiple of 0xFFFF folds to
    0xFFFF (checksum 0), never to +0 (checksum 0xFFFF)."""
    assert rfc1071(data) == 0
    assert internet_checksum(data) == 0
    assert verify_checksum(data)


@given(st.binary(max_size=300))
def test_property_checksum_equals_word_loop(data):
    expected = rfc1071(data)
    assert internet_checksum(data) == expected
    assert internet_checksum(bytearray(data)) == expected
    assert internet_checksum(memoryview(data)) == expected


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.binary(min_size=8, max_size=80))
def test_property_l4_checksums_equal_word_loop(src, dst, segment):
    def pseudo(protocol):
        return (src.to_bytes(4, "big") + dst.to_bytes(4, "big") +
                bytes([0, protocol]) + len(segment).to_bytes(2, "big"))
    assert tcp_checksum(src, dst, segment) == \
        rfc1071(pseudo(6) + segment)
    assert udp_checksum(src, dst, bytearray(segment)) == \
        (rfc1071(pseudo(17) + segment) or 0xFFFF)


def test_udp_computed_zero_is_sent_as_ffff():
    # Pseudo-header (0, 0, proto 17, length 8) sums to 0x0019; the
    # datagram supplies the complement, so the computed checksum is 0.
    datagram = b"\xFF\xE6" + bytes(6)
    assert rfc1071(bytes(9) + b"\x11\x00\x08" + datagram) == 0
    assert udp_checksum(0, 0, datagram) == 0xFFFF
