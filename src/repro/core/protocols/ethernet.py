"""Ethernet II framing."""

from repro.errors import ParseError
from repro.utils.bitutil import BitUtil, _unsigned

HEADER_BYTES = 14
_MAC_MASK = (1 << 48) - 1


class EtherTypes:
    """Well-known EtherType values (paper Fig. 2 uses ``EtherTypes.IPv4``)."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100
    IPV6 = 0x86DD
    # The direction-packet EtherType is private/experimental (§3.5).
    DIRECTION = 0x88B5


class EthernetWrapper:
    """Typed view of the Ethernet header at the start of a frame."""

    def __init__(self, buf):
        if len(buf) < HEADER_BYTES:
            raise ParseError(
                "frame too short for Ethernet header: %d bytes" % len(buf))
        self._buf = buf

    @property
    def destination_mac(self):
        return BitUtil.get48(self._buf, 0)

    @destination_mac.setter
    def destination_mac(self, value):
        BitUtil.set48(self._buf, 0, value)

    @property
    def source_mac(self):
        return BitUtil.get48(self._buf, 6)

    @source_mac.setter
    def source_mac(self, value):
        BitUtil.set48(self._buf, 6, value)

    @property
    def ethertype(self):
        return BitUtil.get16(self._buf, 12)

    @ethertype.setter
    def ethertype(self, value):
        BitUtil.set16(self._buf, 12, value)

    @property
    def is_broadcast(self):
        return self.destination_mac == 0xFFFFFFFFFFFF

    @property
    def is_multicast(self):
        return bool((self.destination_mac >> 40) & 0x01)

    def swap_macs(self):
        """Swap source and destination (echo/reply services)."""
        macs = BitUtil.get_bytes(self._buf, 0, 12)      # range-checked
        self._buf[0:12] = macs[6:] + macs[:6]

    def payload_offset(self):
        return HEADER_BYTES


def build_ethernet(dst_mac, src_mac, ethertype, payload=b""):
    """Assemble an Ethernet frame (unpadded; see ``Frame.pad``)."""
    _unsigned(dst_mac, src_mac, ethertype)
    # No struct code is 48 bits wide: the header is one 112-bit integer.
    buf = bytearray(((dst_mac & _MAC_MASK) << 64 |
                     (src_mac & _MAC_MASK) << 16 |
                     ethertype & 0xFFFF).to_bytes(HEADER_BYTES, "big"))
    buf.extend(payload)
    return buf
