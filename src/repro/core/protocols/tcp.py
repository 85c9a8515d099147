"""TCP wrapper — enough for TCP Ping (SYN/SYN-ACK, §4.2) and NAT (§4.4)."""

import struct

from repro.core.checksum import tcp_checksum
from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper, \
    _payload_offset, build_ipv4_frame
from repro.errors import ParseError
from repro.utils.bitutil import BitUtil, _unsigned

MIN_HEADER_BYTES = 20
# ports, sequence, ack, data offset, flags, window, checksum, urgent.
_HEADER = struct.Struct("!HHIIBBHHH")


class TCPFlags:
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


class TCPWrapper:
    """Typed view of a TCP segment inside an IPv4 packet."""

    def __init__(self, buf, offset=None):
        if offset is None:
            offset = _payload_offset(buf)
        if len(buf) < offset + MIN_HEADER_BYTES:
            raise ParseError("frame too short for TCP: %d bytes" % len(buf))
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
    def sequence_number(self):
        return BitUtil.get32(self._buf, self._off + 4)

    @sequence_number.setter
    def sequence_number(self, value):
        BitUtil.set32(self._buf, self._off + 4, value)

    @property
    def ack_number(self):
        return BitUtil.get32(self._buf, self._off + 8)

    @ack_number.setter
    def ack_number(self, value):
        BitUtil.set32(self._buf, self._off + 8, value)

    @property
    def data_offset(self):
        return BitUtil.get8(self._buf, self._off + 12) >> 4

    @data_offset.setter
    def data_offset(self, value):
        BitUtil.set_bits(self._buf, self._off + 12, 7, 4, value)

    @property
    def flags(self):
        return BitUtil.get8(self._buf, self._off + 13)

    @flags.setter
    def flags(self, value):
        BitUtil.set8(self._buf, self._off + 13, value)

    @property
    def window(self):
        return BitUtil.get16(self._buf, self._off + 14)

    @window.setter
    def window(self, value):
        BitUtil.set16(self._buf, self._off + 14, value)

    @property
    def checksum(self):
        return BitUtil.get16(self._buf, self._off + 16)

    @checksum.setter
    def checksum(self, value):
        BitUtil.set16(self._buf, self._off + 16, value)

    @property
    def urgent_pointer(self):
        return BitUtil.get16(self._buf, self._off + 18)

    @urgent_pointer.setter
    def urgent_pointer(self, value):
        BitUtil.set16(self._buf, self._off + 18, value)

    # -- flag helpers -------------------------------------------------------

    def flag(self, bit):
        return bool(self.flags & bit)

    @property
    def is_syn(self):
        return self.flag(TCPFlags.SYN) and not self.flag(TCPFlags.ACK)

    @property
    def is_syn_ack(self):
        return self.flag(TCPFlags.SYN) and self.flag(TCPFlags.ACK)

    @property
    def is_rst(self):
        return self.flag(TCPFlags.RST)

    def segment(self):
        return bytes(self._buf[self._off:])

    def swap_ports(self):
        off = self._off
        pair = BitUtil.get_bytes(self._buf, off, 4)     # range-checked
        self._buf[off:off + 4] = pair[2:] + pair[:2]

    def update_checksum(self, ip=None):
        ip = ip or IPv4Wrapper(self._buf)
        self.checksum = 0
        self.checksum = tcp_checksum(
            ip.source_ip_address, ip.destination_ip_address, self.segment())

    def checksum_ok(self, ip=None):
        ip = ip or IPv4Wrapper(self._buf)
        return tcp_checksum(ip.source_ip_address, ip.destination_ip_address,
                            self.segment()) == 0


def build_tcp_segment(src_port, dst_port, seq, ack, flags, window=65535,
                      payload=b""):
    """Assemble a TCP header (no options) + payload, checksum 0."""
    _unsigned(src_port, dst_port, seq, ack, flags, window)
    return _HEADER.pack(
        src_port & 0xFFFF, dst_port & 0xFFFF,
        seq & 0xFFFFFFFF, ack & 0xFFFFFFFF,
        (MIN_HEADER_BYTES // 4) << 4, flags & 0xFF, window & 0xFFFF, 0, 0) + \
        bytes(payload)


def build_tcp(dst_mac, src_mac, src_ip, dst_ip, src_port, dst_port,
              flags, seq=0, ack=0, payload=b""):
    """Assemble a complete Ethernet+IPv4+TCP frame with valid checksums."""
    segment = bytearray(build_tcp_segment(src_port, dst_port, seq, ack,
                                          flags, payload=payload))
    BitUtil.set16(segment, 16, tcp_checksum(src_ip, dst_ip, segment))
    return build_ipv4_frame(dst_mac, src_mac, src_ip, dst_ip,
                            IPProtocols.TCP, segment)
