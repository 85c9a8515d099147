"""BitUtil: typed field access over byte buffers (paper Fig. 4)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import BitRangeError
from repro.utils.bitutil import BitUtil


class TestGetSet:
    def test_get8(self):
        assert BitUtil.get8(bytearray(b"\x12\x34"), 1) == 0x34

    def test_get16_big_endian(self):
        assert BitUtil.get16(bytearray(b"\x12\x34"), 0) == 0x1234

    def test_get32(self):
        buf = bytearray(b"\xDE\xAD\xBE\xEF")
        assert BitUtil.get32(buf, 0) == 0xDEADBEEF

    def test_get48_mac_width(self):
        buf = bytearray(b"\x02\x00\x00\x00\x00\xAA")
        assert BitUtil.get48(buf, 0) == 0x0200000000AA

    def test_get64(self):
        buf = bytearray(8)
        BitUtil.set64(buf, 0, 0x0102030405060708)
        assert BitUtil.get64(buf, 0) == 0x0102030405060708

    def test_set_then_get_roundtrip(self):
        buf = bytearray(8)
        BitUtil.set32(buf, 2, 0xCAFEBABE)
        assert BitUtil.get32(buf, 2) == 0xCAFEBABE

    def test_set_truncates_to_width(self):
        buf = bytearray(2)
        BitUtil.set16(buf, 0, 0x12345)
        assert BitUtil.get16(buf, 0) == 0x2345

    def test_set_in_place_mutation_visible_to_aliases(self):
        buf = bytearray(4)
        alias = buf
        BitUtil.set16(buf, 0, 0xBEEF)
        assert alias[0] == 0xBE

    def test_negative_value_rejected(self):
        with pytest.raises(BitRangeError):
            BitUtil.set16(bytearray(2), 0, -1)

    def test_overrun_rejected(self):
        with pytest.raises(BitRangeError):
            BitUtil.get32(bytearray(3), 0)

    def test_negative_offset_rejected(self):
        with pytest.raises(BitRangeError):
            BitUtil.get8(bytearray(3), -1)


class TestBits:
    def test_get_bit(self):
        buf = bytearray(b"\x80")
        assert BitUtil.get_bit(buf, 0, 7) == 1
        assert BitUtil.get_bit(buf, 0, 0) == 0

    def test_set_bit(self):
        buf = bytearray(1)
        BitUtil.set_bit(buf, 0, 3, 1)
        assert buf[0] == 0x08
        BitUtil.set_bit(buf, 0, 3, 0)
        assert buf[0] == 0

    def test_bit_index_range(self):
        with pytest.raises(BitRangeError):
            BitUtil.get_bit(bytearray(1), 0, 8)

    def test_get_bits_ipv4_version(self):
        buf = bytearray(b"\x45")       # version 4, IHL 5
        assert BitUtil.get_bits(buf, 0, 7, 4) == 4
        assert BitUtil.get_bits(buf, 0, 3, 4) == 5

    def test_set_bits_preserves_neighbours(self):
        buf = bytearray(b"\xFF")
        BitUtil.set_bits(buf, 0, 5, 2, 0)
        assert buf[0] == 0b11001111

    def test_bits_out_of_byte_rejected(self):
        with pytest.raises(BitRangeError):
            BitUtil.get_bits(bytearray(1), 0, 9, 2)


class TestBytes:
    def test_get_bytes_returns_immutable_copy(self):
        buf = bytearray(b"abcdef")
        chunk = BitUtil.get_bytes(buf, 1, 3)
        assert chunk == b"bcd"
        assert isinstance(chunk, bytes)

    def test_set_bytes(self):
        buf = bytearray(6)
        BitUtil.set_bytes(buf, 2, b"xy")
        assert bytes(buf) == b"\x00\x00xy\x00\x00"


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=4))
def test_property_set_get_roundtrip_32(value, offset):
    buf = bytearray(8)
    BitUtil.set32(buf, offset, value)
    assert BitUtil.get32(buf, offset) == value


@given(st.binary(min_size=2, max_size=16),
       st.integers(min_value=0, max_value=14))
def test_property_get16_matches_int_from_bytes(data, offset):
    if offset + 2 > len(data):
        return
    buf = bytearray(data)
    assert BitUtil.get16(buf, offset) == \
        int.from_bytes(data[offset:offset + 2], "big")


# -- the struct-backed named widths against the generic reference -----------

WIDTHS = {1: (BitUtil.get8, BitUtil.set8), 2: (BitUtil.get16, BitUtil.set16),
          4: (BitUtil.get32, BitUtil.set32), 8: (BitUtil.get64, BitUtil.set64)}


def _tdata(data):
    from repro.core.dataplane import TData
    return TData(data)


READABLE = (bytes, bytearray, memoryview, _tdata)
WRITABLE = (bytearray, lambda data: memoryview(bytearray(data)), _tdata)


def _outcome(call):
    try:
        return call()
    except BitRangeError:
        return BitRangeError


@given(st.sampled_from(sorted(WIDTHS)), st.binary(max_size=20),
       st.integers(min_value=-3, max_value=22), st.sampled_from(READABLE))
def test_named_getters_equal_generic_get(nbytes, data, offset, kind):
    """Same value or the same BitRangeError (negative offset, overrun
    by one or more) on every buffer type."""
    getter, _ = WIDTHS[nbytes]
    assert _outcome(lambda: getter(kind(data), offset)) == \
        _outcome(lambda: BitUtil.get(kind(data), offset, nbytes))


@given(st.sampled_from(sorted(WIDTHS)), st.binary(max_size=20),
       st.integers(min_value=-3, max_value=22),
       st.one_of(st.integers(min_value=-2, max_value=2 ** 70),
                 st.sampled_from([0, 0xFF, 0x100, 0xFFFF, 0x10000,
                                  2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
                                  2 ** 64])),
       st.sampled_from(WRITABLE))
def test_named_setters_equal_generic_set(nbytes, data, offset, value, kind):
    """Same bytes written (truncated to the field width) or the same
    BitRangeError (negative offset, overrun, negative value), and a
    refused write leaves the buffer untouched."""
    _, setter = WIDTHS[nbytes]
    fast, reference = kind(data), kind(data)
    assert _outcome(lambda: setter(fast, offset, value)) == \
        _outcome(lambda: BitUtil.set(reference, offset, nbytes, value))
    assert bytes(fast) == bytes(reference)
    assert len(fast) == len(data)


@pytest.mark.parametrize("nbytes", sorted(WIDTHS))
def test_named_widths_reject_the_edges(nbytes):
    getter, setter = WIDTHS[nbytes]
    buf = bytearray(range(1, nbytes + 3))
    last = len(buf) - nbytes
    assert getter(buf, last) == BitUtil.get(buf, last, nbytes)
    for bad_offset in (-1, -nbytes, last + 1, len(buf), len(buf) + 5):
        with pytest.raises(BitRangeError):
            getter(buf, bad_offset)
        with pytest.raises(BitRangeError):
            setter(buf, bad_offset, 1)
    with pytest.raises(BitRangeError):
        setter(buf, 0, -1)
    assert bytes(buf) == bytes(range(1, nbytes + 3))
    setter(buf, 1, (1 << (8 * nbytes)) + 5)          # truncates
    assert getter(buf, 1) == 5


def test_setters_refuse_immutable_buffers():
    for _, setter in WIDTHS.values():
        with pytest.raises(TypeError):
            setter(b"\x00" * 8, 0, 1)
