"""Frames and address helpers.

A :class:`Frame` is a mutable Ethernet frame plus the sideband metadata
the NetFPGA datapath carries next to ``tdata``: the source port it
arrived on and the one-hot destination-port bitmap chosen by the logical
core (``Set_Output_Port`` / ``Broadcast`` in Fig. 6 manipulate exactly
this metadata).
"""

from repro.errors import ParseError

MIN_FRAME_BYTES = 60        # 64 on the wire minus the 4-byte FCS
MAX_FRAME_BYTES = 1514


def mac_to_int(text):
    """``"aa:bb:cc:dd:ee:ff"`` → 48-bit integer."""
    parts = text.split(":")
    if len(parts) != 6:
        raise ParseError("bad MAC address %r" % text)
    try:
        value = 0
        for part in parts:
            byte = int(part, 16)
            if not 0 <= byte <= 0xFF:
                raise ValueError
            value = (value << 8) | byte
        return value
    except ValueError:
        raise ParseError("bad MAC address %r" % text)


def int_to_mac(value):
    """48-bit integer → ``"aa:bb:cc:dd:ee:ff"``."""
    return ":".join("%02x" % ((value >> shift) & 0xFF)
                    for shift in range(40, -8, -8))


def ip_to_int(text):
    """``"10.0.0.1"`` → 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ParseError("bad IPv4 address %r" % text)
    try:
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise ValueError
            value = (value << 8) | octet
        return value
    except ValueError:
        raise ParseError("bad IPv4 address %r" % text)


def int_to_ip(value):
    """32-bit integer → dotted quad."""
    return ".".join(str((value >> shift) & 0xFF)
                    for shift in range(24, -8, -8))


class Frame:
    """An Ethernet frame plus dataplane metadata.

    ``data`` is the frame bytes (a :class:`bytearray`, shared with the
    protocol wrappers); ``src_port`` is the physical port of arrival;
    ``dst_ports`` is the one-hot output bitmap (bit *i* = send on port
    *i*); ``timestamp_ns`` carries the arrival time for measurement.
    """

    __slots__ = ("data", "src_port", "dst_ports", "timestamp_ns")

    def __init__(self, data=b"", src_port=0, dst_ports=0, timestamp_ns=0):
        self.data = bytearray(data)
        self.src_port = src_port
        self.dst_ports = dst_ports
        self.timestamp_ns = timestamp_ns

    def copy(self):
        return Frame(self.data, self.src_port, self.dst_ports,
                     self.timestamp_ns)

    def pad(self, minimum=MIN_FRAME_BYTES):
        """Pad with zero bytes up to the Ethernet minimum."""
        if len(self.data) < minimum:
            self.data.extend(b"\x00" * (minimum - len(self.data)))
        return self

    def output_ports(self, num_ports=4):
        """Decode ``dst_ports`` into a list of port numbers."""
        return [p for p in range(num_ports) if self.dst_ports & (1 << p)]

    def set_output(self, port):
        self.dst_ports = 1 << port

    def broadcast(self, num_ports=4, exclude_source=True):
        mask = (1 << num_ports) - 1
        if exclude_source:
            mask &= ~(1 << self.src_port)
        self.dst_ports = mask

    def drop(self):
        self.dst_ports = 0

    @property
    def dropped(self):
        return self.dst_ports == 0

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        return "Frame(%d bytes, src_port=%d, dst_ports=0x%x)" % (
            len(self.data), self.src_port, self.dst_ports)
