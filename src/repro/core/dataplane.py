"""The dataplane bundle a service's main loop receives.

Matches the paper's ``NetFPGA_Data``: ``tdata`` is the frame (a byte
buffer shared with every protocol wrapper — Fig. 3 instantiates four
wrappers over the same ``dataplane.tdata``), and the metadata sideband
carries the input port and the one-hot output-port bitmap.
"""

from repro.core.protocols.ethernet import EtherTypes
from repro.net.packet import Frame
from repro.utils.bitutil import BitUtil


class TData(bytearray):
    """The frame buffer, with the protocol-test helpers used in Fig. 2.

    ``dataplane.tdata.ethertype_is(EtherTypes.IPV4)`` mirrors the
    listing's ``dataplane.tdata.EtherType_Is(EtherTypes.IPv4)``.
    """

    def ethertype(self):
        return BitUtil.get16(self, 12) if len(self) >= 14 else 0

    def ethertype_is(self, ethertype):
        return self.ethertype() == ethertype

    def is_ipv4(self):
        return self.ethertype() == EtherTypes.IPV4

    def is_arp(self):
        return self.ethertype() == EtherTypes.ARP


class NetFPGAData:
    """Frame + metadata as presented to the main logical core."""

    __slots__ = ("tdata", "src_port", "dst_ports", "tuser")

    NUM_PORTS = 4

    def __init__(self, frame=None, src_port=0):
        if frame is None:
            self.tdata = TData()
            self.src_port = src_port
        elif isinstance(frame, Frame):
            self.tdata = TData(frame.data)
            self.src_port = frame.src_port
        else:
            self.tdata = TData(frame)
            self.src_port = src_port
        self.dst_ports = 0
        self.tuser = 0

    @property
    def dropped(self):
        """No output port selected: the frame is implicitly dropped."""
        return self.dst_ports == 0

    def to_frame(self):
        """Convert back to a :class:`~repro.net.packet.Frame`."""
        return Frame(self.tdata, self.src_port, self.dst_ports)

    def __repr__(self):
        return "NetFPGAData(%d bytes, src=%d, dst=0x%x)" % (
            len(self.tdata), self.src_port, self.dst_ports)
