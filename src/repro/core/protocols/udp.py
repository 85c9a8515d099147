"""UDP wrapper (DNS, Memcached-over-UDP, NAT all ride on this)."""

import struct

from repro.core.checksum import udp_checksum
from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper, \
    _payload_offset, build_ipv4_frame
from repro.errors import ParseError
from repro.utils.bitutil import BitUtil, _unsigned

HEADER_BYTES = 8
_HEADER = struct.Struct("!HHHH")    # source, destination, length, checksum


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


def build_udp_datagram(src_port, dst_port, payload):
    """Assemble a UDP header + payload (checksum left 0 = disabled)."""
    _unsigned(src_port, dst_port)
    return _HEADER.pack(src_port & 0xFFFF, dst_port & 0xFFFF,
                        (HEADER_BYTES + len(payload)) & 0xFFFF, 0) + \
        bytes(payload)


def build_udp(dst_mac, src_mac, src_ip, dst_ip, src_port, dst_port,
              payload, with_checksum=True):
    """Assemble a complete Ethernet+IPv4+UDP frame."""
    datagram = bytearray(build_udp_datagram(src_port, dst_port, payload))
    if with_checksum:
        BitUtil.set16(datagram, 6,
                      udp_checksum(src_ip, dst_ip, datagram))
    return build_ipv4_frame(dst_mac, src_mac, src_ip, dst_ip,
                            IPProtocols.UDP, datagram)
