"""Typed field access over byte buffers (paper Fig. 4).

The Emu library exposes ``BitUtil.Get32``/``BitUtil.Set32`` so protocol
wrappers can define named, typed properties over a raw frame.  Network
byte order (big-endian) is used throughout, matching wire formats.

All setters operate on :class:`bytearray` in place, because the wrappers
share one underlying frame buffer (the dataplane ``tdata``).

The named widths ``struct`` has (8/16/32/64 bits) go through one
precompiled :class:`struct.Struct` each — ``unpack_from``/``pack_into``
read and write the shared buffer without copying it.  The generic
``get``/``set`` remain for the widths it lacks (48-bit MACs).  The
header builders in ``repro.core.protocols`` pack a whole header in one
call and share the setters' sign check through the module-level
``_unsigned`` (library-internal, like ``_check``).
"""

import struct

from repro.errors import BitRangeError


def _check(buf, offset, nbytes):
    if offset < 0:
        raise BitRangeError("negative offset %d" % offset)
    if offset + nbytes > len(buf):
        raise BitRangeError(
            "access of %d bytes at offset %d overruns %d-byte buffer"
            % (nbytes, offset, len(buf))
        )


def _unsigned(*fields):
    """The setters' sign check for builders that pack a whole header in
    one call (they mask each field to its width themselves)."""
    if min(fields) < 0:
        raise BitRangeError("header fields must be unsigned, got %d"
                            % min(fields))


def _fixed_width(fmt):
    """``(get, set)`` for one ``struct`` width, same checks as the
    generic pair: ``unpack_from``/``pack_into`` bound the far end
    themselves but read a negative offset from the end of the buffer,
    so that one is rejected here."""
    codec = struct.Struct(fmt)
    unpack_from, pack_into, nbytes = \
        codec.unpack_from, codec.pack_into, codec.size
    mask = (1 << (8 * nbytes)) - 1

    def getter(buf, offset):
        if offset < 0:
            raise BitRangeError("negative offset %d" % offset)
        try:
            return unpack_from(buf, offset)[0]
        except struct.error:
            _check(buf, offset, nbytes)
            raise

    def setter(buf, offset, value):
        if offset < 0:
            raise BitRangeError("negative offset %d" % offset)
        if value < 0:
            raise BitRangeError("value must be unsigned, got %d" % value)
        try:
            pack_into(buf, offset, value & mask)
        except struct.error:
            _check(buf, offset, nbytes)
            raise

    return staticmethod(getter), staticmethod(setter)


class BitUtil:
    """Static helpers for reading and writing big-endian fields."""

    @staticmethod
    def get(buf, offset, nbytes):
        """Read *nbytes* at *offset* as an unsigned big-endian integer."""
        _check(buf, offset, nbytes)
        return int.from_bytes(buf[offset:offset + nbytes], "big")

    @staticmethod
    def set(buf, offset, nbytes, value):
        """Write *value* as *nbytes* big-endian bytes at *offset*."""
        _check(buf, offset, nbytes)
        if value < 0:
            raise BitRangeError("value must be unsigned, got %d" % value)
        mask = (1 << (8 * nbytes)) - 1
        buf[offset:offset + nbytes] = (value & mask).to_bytes(nbytes, "big")

    # Named-width variants mirroring the paper's API surface.

    get8, set8 = _fixed_width("!B")
    get16, set16 = _fixed_width("!H")
    get32, set32 = _fixed_width("!I")
    get64, set64 = _fixed_width("!Q")

    @staticmethod
    def get48(buf, offset):
        return BitUtil.get(buf, offset, 6)

    @staticmethod
    def set48(buf, offset, value):
        BitUtil.set(buf, offset, 6, value)

    @staticmethod
    def get_bit(buf, byte_offset, bit):
        """Read a single bit; bit 7 is the most significant of the byte."""
        if not 0 <= bit <= 7:
            raise BitRangeError("bit index %d out of range" % bit)
        return (BitUtil.get8(buf, byte_offset) >> bit) & 1

    @staticmethod
    def set_bit(buf, byte_offset, bit, value):
        """Write a single bit in place."""
        if not 0 <= bit <= 7:
            raise BitRangeError("bit index %d out of range" % bit)
        byte = BitUtil.get8(buf, byte_offset)
        if value:
            byte |= 1 << bit
        else:
            byte &= ~(1 << bit) & 0xFF
        BitUtil.set8(buf, byte_offset, byte)

    @staticmethod
    def get_bits(buf, byte_offset, msb, width):
        """Read *width* bits ending-aligned below *msb* within one byte."""
        if width < 1 or msb - width + 1 < 0 or msb > 7:
            raise BitRangeError("bit field [%d:%d] out of byte" % (msb, width))
        byte = BitUtil.get8(buf, byte_offset)
        return (byte >> (msb - width + 1)) & ((1 << width) - 1)

    @staticmethod
    def set_bits(buf, byte_offset, msb, width, value):
        """Write a sub-byte bit field in place."""
        if width < 1 or msb - width + 1 < 0 or msb > 7:
            raise BitRangeError("bit field [%d:%d] out of byte" % (msb, width))
        shift = msb - width + 1
        mask = ((1 << width) - 1) << shift
        byte = BitUtil.get8(buf, byte_offset)
        byte = (byte & ~mask & 0xFF) | ((value << shift) & mask)
        BitUtil.set8(buf, byte_offset, byte)

    @staticmethod
    def get_bytes(buf, offset, nbytes):
        """Copy *nbytes* out of the buffer as immutable ``bytes``."""
        _check(buf, offset, nbytes)
        return bytes(buf[offset:offset + nbytes])

    @staticmethod
    def set_bytes(buf, offset, data):
        """Copy *data* into the buffer at *offset*."""
        _check(buf, offset, len(data))
        buf[offset:offset + len(data)] = data
