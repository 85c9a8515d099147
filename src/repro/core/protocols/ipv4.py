"""IPv4 header wrapper (paper Fig. 4 shows two of these accessors)."""

import struct

from repro.core.checksum import internet_checksum
from repro.core.protocols.ethernet import EtherTypes, HEADER_BYTES, \
    build_ethernet
from repro.errors import ParseError
from repro.utils.bitutil import BitUtil, _unsigned

MIN_HEADER_BYTES = 20
# version/IHL, DSCP, total length, identification, flags/fragment, TTL,
# protocol, checksum, source, destination.
_HEADER = struct.Struct("!BBHHHBBHII")


class IPProtocols:
    ICMP = 1
    TCP = 6
    UDP = 17


def _payload_offset(buf, offset=HEADER_BYTES):
    """Where the IPv4 header at *offset* ends, after checking that a
    minimal one fits.  :class:`IPv4Wrapper` answers with it; the L4
    wrappers call it directly, as they only need the number."""
    if len(buf) < offset + MIN_HEADER_BYTES:
        raise ParseError("frame too short for IPv4: %d bytes" % len(buf))
    return offset + (buf[offset] & 0x0F) * 4


class IPv4Wrapper:
    """Typed view of an IPv4 header following the Ethernet header."""

    def __init__(self, buf, offset=HEADER_BYTES):
        _payload_offset(buf, offset)         # raises on a short frame
        self._buf = buf
        self._off = offset

    @property
    def version(self):
        return BitUtil.get8(self._buf, self._off) >> 4

    @version.setter
    def version(self, value):
        BitUtil.set_bits(self._buf, self._off, 7, 4, value)

    @property
    def ihl(self):
        return BitUtil.get8(self._buf, self._off) & 0x0F

    @ihl.setter
    def ihl(self, value):
        BitUtil.set_bits(self._buf, self._off, 3, 4, value)

    @property
    def header_bytes(self):
        return self.ihl * 4

    @property
    def dscp_ecn(self):
        return BitUtil.get8(self._buf, self._off + 1)

    @dscp_ecn.setter
    def dscp_ecn(self, value):
        BitUtil.set8(self._buf, self._off + 1, value)

    @property
    def total_length(self):
        return BitUtil.get16(self._buf, self._off + 2)

    @total_length.setter
    def total_length(self, value):
        BitUtil.set16(self._buf, self._off + 2, value)

    @property
    def identification(self):
        return BitUtil.get16(self._buf, self._off + 4)

    @identification.setter
    def identification(self, value):
        BitUtil.set16(self._buf, self._off + 4, value)

    @property
    def flags_fragment(self):
        return BitUtil.get16(self._buf, self._off + 6)

    @flags_fragment.setter
    def flags_fragment(self, value):
        BitUtil.set16(self._buf, self._off + 6, value)

    @property
    def ttl(self):
        return BitUtil.get8(self._buf, self._off + 8)

    @ttl.setter
    def ttl(self, value):
        BitUtil.set8(self._buf, self._off + 8, value)

    @property
    def protocol(self):
        return BitUtil.get8(self._buf, self._off + 9)

    @protocol.setter
    def protocol(self, value):
        BitUtil.set8(self._buf, self._off + 9, value)

    @property
    def header_checksum(self):
        return BitUtil.get16(self._buf, self._off + 10)

    @header_checksum.setter
    def header_checksum(self, value):
        BitUtil.set16(self._buf, self._off + 10, value)

    # Fig. 4 of the paper defines exactly these two accessors.

    @property
    def source_ip_address(self):
        return BitUtil.get32(self._buf, self._off + 12)

    @source_ip_address.setter
    def source_ip_address(self, value):
        BitUtil.set32(self._buf, self._off + 12, value)

    @property
    def destination_ip_address(self):
        return BitUtil.get32(self._buf, self._off + 16)

    @destination_ip_address.setter
    def destination_ip_address(self, value):
        BitUtil.set32(self._buf, self._off + 16, value)

    # -- derived -----------------------------------------------------------

    def payload_offset(self):
        return _payload_offset(self._buf, self._off)

    def header(self):
        return bytes(self._buf[self._off:self._off + self.header_bytes])

    def update_checksum(self):
        """Recompute the header checksum in place."""
        self.header_checksum = 0
        self.header_checksum = internet_checksum(self.header())

    def checksum_ok(self):
        return internet_checksum(self.header()) == 0

    def swap_ips(self):
        off = self._off + 12
        pair = BitUtil.get_bytes(self._buf, off, 8)     # range-checked
        self._buf[off:off + 8] = pair[4:] + pair[:4]


def build_ipv4(src_ip, dst_ip, protocol, payload, ttl=64, identification=0):
    """Assemble an IPv4 header (20 bytes, checksummed) + payload."""
    _unsigned(identification, ttl, protocol, src_ip, dst_ip)
    header = bytearray(_HEADER.pack(
        0x45, 0,                                  # version 4, IHL 5
        (MIN_HEADER_BYTES + len(payload)) & 0xFFFF,
        identification & 0xFFFF, 0, ttl & 0xFF, protocol & 0xFF, 0,
        src_ip & 0xFFFFFFFF, dst_ip & 0xFFFFFFFF))
    BitUtil.set16(header, 10, internet_checksum(header))
    return b"".join((header, payload))


def build_ipv4_frame(dst_mac, src_mac, src_ip, dst_ip, protocol, payload,
                     ttl=64, identification=0):
    """Assemble a complete Ethernet+IPv4 frame."""
    return build_ethernet(
        dst_mac, src_mac, EtherTypes.IPV4,
        build_ipv4(src_ip, dst_ip, protocol, payload, ttl, identification))
