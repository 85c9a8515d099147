"""UDP: the field wrapper (DNS, Memcached-over-UDP, NAT all ride on
this) and :class:`UDPRequest`, a whole Ethernet+IPv4+UDP request decoded
once and answered in place."""

import struct

from repro.core.checksum import internet_checksum, udp_checksum
from repro.core.protocols.ethernet import EtherTypes
from repro.core.protocols.ethernet import HEADER_BYTES as ETHERNET_BYTES
from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper, \
    _payload_offset
from repro.errors import ParseError
from repro.utils.bitutil import BitUtil, _unsigned

HEADER_BYTES = 8
_HEADER = struct.Struct("!HHHH")    # source, destination, length, checksum
_U16 = struct.Struct("!H")
# Ethertype, version/IHL, identification+flags/fragment, TTL, protocol,
# source, destination: what a request decodes ahead of its UDP header.
_REQUEST = struct.Struct("!12xHBx2xIBB2xII")
# The IPv4 header from total length on, as a reply rewrites it.
_REPLY_IPV4 = struct.Struct("!HIBBHII")
# Ethernet (MACs as 16+32 bits: no struct code is 48 wide), IPv4, UDP.
_FRAME = struct.Struct("!HIHIH" "BBHHHBBHII" "HHHH")
_IPV4_END = ETHERNET_BYTES + 20


class UDPWrapper:
    """Typed view of a UDP datagram inside an IPv4 packet."""

    def __init__(self, buf, offset=None):
        if offset is None:
            offset = _payload_offset(buf)
        if len(buf) < offset + HEADER_BYTES:
            raise ParseError("frame too short for UDP: %d bytes" % len(buf))
        self._buf = buf
        self._off = offset

    @property
    def source_port(self):
        return BitUtil.get16(self._buf, self._off + 0)

    @source_port.setter
    def source_port(self, value):
        BitUtil.set16(self._buf, self._off + 0, value)

    @property
    def destination_port(self):
        return BitUtil.get16(self._buf, self._off + 2)

    @destination_port.setter
    def destination_port(self, value):
        BitUtil.set16(self._buf, self._off + 2, value)

    @property
    def length(self):
        return BitUtil.get16(self._buf, self._off + 4)

    @length.setter
    def length(self, value):
        BitUtil.set16(self._buf, self._off + 4, value)

    @property
    def checksum(self):
        return BitUtil.get16(self._buf, self._off + 6)

    @checksum.setter
    def checksum(self, value):
        BitUtil.set16(self._buf, self._off + 6, value)

    def payload_offset(self):
        return self._off + HEADER_BYTES

    def payload(self):
        length = self.length
        end = self._off + length if length else len(self._buf)
        return bytes(self._buf[self._off + HEADER_BYTES:end])

    def set_payload(self, payload):
        """Replace the payload, truncating/extending the frame."""
        del self._buf[self._off + HEADER_BYTES:]
        self._buf.extend(payload)
        self.length = HEADER_BYTES + len(payload)

    def datagram(self):
        length = self.length
        end = self._off + length if length else len(self._buf)
        return bytes(self._buf[self._off:end])

    def swap_ports(self):
        off = self._off
        pair = BitUtil.get_bytes(self._buf, off, 4)     # range-checked
        self._buf[off:off + 4] = pair[2:] + pair[:2]

    def update_checksum(self, ip=None):
        ip = ip or IPv4Wrapper(self._buf)
        self.checksum = 0
        self.checksum = udp_checksum(
            ip.source_ip_address, ip.destination_ip_address, self.datagram())

    def checksum_ok(self, ip=None):
        stored = self.checksum
        if stored == 0:             # checksum disabled
            return True
        ip = ip or IPv4Wrapper(self._buf)
        data = bytearray(self.datagram())
        BitUtil.set16(data, 6, 0)
        return udp_checksum(ip.source_ip_address, ip.destination_ip_address,
                            data) == stored


class UDPRequest:
    """An Ethernet+IPv4+UDP request, decoded once.

    The field wrappers re-read the shared buffer on every access, which
    suits services that rewrite arbitrary fields.  A request/reply
    service reads the same fields of every frame and answers with the
    same turn-around: :meth:`parse` range-checks and decodes the three
    headers in two ``unpack_from`` calls, :meth:`reply` writes the
    answer over the request.
    """

    __slots__ = ("_buf", "_off", "_id_flags", "ttl", "source_ip_address",
                 "destination_ip_address", "source_port",
                 "destination_port", "length")

    @classmethod
    def parse(cls, buf):
        """The view of *buf*; ``None`` when it is not IPv4/UDP.  Raises
        :class:`ParseError` exactly where ``IPv4Wrapper(buf)`` and then
        ``UDPWrapper(buf)`` do."""
        try:
            ethertype, version_ihl, id_flags, ttl, protocol, source, \
                destination = _REQUEST.unpack_from(buf)
        except struct.error:            # no room for a fixed IPv4 header
            if buf[12:14] != b"\x08\x00":       # nor is it IPv4
                return None
            raise ParseError("frame too short for IPv4: %d bytes"
                             % len(buf)) from None
        if ethertype != EtherTypes.IPV4 or protocol != IPProtocols.UDP:
            return None
        self = cls.__new__(cls)
        self._off = ETHERNET_BYTES + (version_ihl & 0x0F) * 4
        try:
            self.source_port, self.destination_port, self.length, _ = \
                _HEADER.unpack_from(buf, self._off)
        except struct.error:
            raise ParseError("frame too short for UDP: %d bytes"
                             % len(buf)) from None
        self._buf = buf
        self._id_flags = id_flags
        self.ttl = ttl
        self.source_ip_address = source
        self.destination_ip_address = destination
        return self

    payload = UDPWrapper.payload        # the same bounds: the same code

    def reply(self, payload, ttl=64):
        """Turn the request buffer into the answer carrying *payload*:
        MACs, addresses and ports swapped, TTL reset, identification,
        flags, DSCP and options kept, lengths set, each checksum
        computed once over the final bytes."""
        buf = self._buf
        offset = self._off
        source = self.destination_ip_address
        destination = self.source_ip_address
        length = (HEADER_BYTES + len(payload)) & 0xFFFF
        buf[0:12] = buf[6:12] + buf[0:6]
        _REPLY_IPV4.pack_into(
            buf, ETHERNET_BYTES + 2,
            (offset - ETHERNET_BYTES + length) & 0xFFFF, self._id_flags,
            ttl, IPProtocols.UDP, 0, source, destination)
        _U16.pack_into(buf, ETHERNET_BYTES + 10,
                       internet_checksum(buf[ETHERNET_BYTES:offset]))
        _HEADER.pack_into(buf, offset, self.destination_port,
                          self.source_port, length, 0)
        buf[offset + HEADER_BYTES:] = payload
        _U16.pack_into(buf, offset + 6,
                       udp_checksum(source, destination, buf[offset:]))


def build_udp(dst_mac, src_mac, src_ip, dst_ip, src_port, dst_port,
              payload, with_checksum=True):
    """Assemble a complete Ethernet+IPv4+UDP frame: the three headers
    in one pack, then the two checksums."""
    _unsigned(dst_mac, src_mac, src_ip, dst_ip, src_port, dst_port)
    size = HEADER_BYTES + len(payload)
    frame = bytearray(_FRAME.pack(
        dst_mac >> 32 & 0xFFFF, dst_mac & 0xFFFFFFFF,
        src_mac >> 32 & 0xFFFF, src_mac & 0xFFFFFFFF, EtherTypes.IPV4,
        0x45, 0, (20 + size) & 0xFFFF, 0, 0, 64, IPProtocols.UDP, 0,
        src_ip & 0xFFFFFFFF, dst_ip & 0xFFFFFFFF,
        src_port & 0xFFFF, dst_port & 0xFFFF, size & 0xFFFF, 0))
    frame += payload
    _U16.pack_into(frame, ETHERNET_BYTES + 10,
                   internet_checksum(frame[ETHERNET_BYTES:_IPV4_END]))
    if with_checksum:
        _U16.pack_into(frame, _IPV4_END + 6,
                       udp_checksum(src_ip, dst_ip, frame[_IPV4_END:]))
    return frame
