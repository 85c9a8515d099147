"""ICMP (echo request/reply) for the ICMP Echo service (§4.2)."""

import struct

from repro.core.checksum import internet_checksum
from repro.core.protocols.ipv4 import IPProtocols, _payload_offset, \
    build_ipv4_frame
from repro.errors import ParseError
from repro.utils.bitutil import BitUtil, _unsigned

HEADER_BYTES = 8
_HEADER = struct.Struct("!BBHHH")   # type, code, checksum, id, sequence


class ICMPTypes:
    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


class ICMPWrapper:
    """Typed view of an ICMP message inside an IPv4 packet."""

    def __init__(self, buf, offset=None):
        if offset is None:
            offset = _payload_offset(buf)
        if len(buf) < offset + HEADER_BYTES:
            raise ParseError("frame too short for ICMP: %d bytes" % len(buf))
        self._buf = buf
        self._off = offset

    @property
    def icmp_type(self):
        return BitUtil.get8(self._buf, self._off + 0)

    @icmp_type.setter
    def icmp_type(self, value):
        BitUtil.set8(self._buf, self._off + 0, value)

    @property
    def code(self):
        return BitUtil.get8(self._buf, self._off + 1)

    @code.setter
    def code(self, value):
        BitUtil.set8(self._buf, self._off + 1, value)

    @property
    def checksum(self):
        return BitUtil.get16(self._buf, self._off + 2)

    @checksum.setter
    def checksum(self, value):
        BitUtil.set16(self._buf, self._off + 2, value)

    @property
    def identifier(self):
        return BitUtil.get16(self._buf, self._off + 4)

    @identifier.setter
    def identifier(self, value):
        BitUtil.set16(self._buf, self._off + 4, value)

    @property
    def sequence(self):
        return BitUtil.get16(self._buf, self._off + 6)

    @sequence.setter
    def sequence(self, value):
        BitUtil.set16(self._buf, self._off + 6, value)

    @property
    def is_echo_request(self):
        return self.icmp_type == ICMPTypes.ECHO_REQUEST

    @property
    def is_echo_reply(self):
        return self.icmp_type == ICMPTypes.ECHO_REPLY

    def message(self):
        """All ICMP bytes (header + payload) to the end of the frame."""
        return bytes(self._buf[self._off:])

    def update_checksum(self):
        self.checksum = 0
        self.checksum = internet_checksum(self.message())

    def checksum_ok(self):
        return internet_checksum(self.message()) == 0


def build_icmp_echo_request(dst_mac, src_mac, src_ip, dst_ip,
                            identifier=1, sequence=1, payload=b"emu-ping"):
    """Assemble a complete Ethernet+IPv4+ICMP echo request frame."""
    _unsigned(identifier, sequence)
    icmp = bytearray(_HEADER.pack(ICMPTypes.ECHO_REQUEST, 0, 0,
                                  identifier & 0xFFFF, sequence & 0xFFFF))
    icmp.extend(payload)
    BitUtil.set16(icmp, 2, internet_checksum(icmp))
    return build_ipv4_frame(dst_mac, src_mac, src_ip, dst_ip,
                            IPProtocols.ICMP, icmp)
