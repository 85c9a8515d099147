"""Internet checksums (RFC 1071) and L4 pseudo-header checksums.

The paper's §5.5 debugging anecdote is literally about a checksum bug
found via direction packets; these functions are both the library code
services use and the oracle the debug example checks against.
"""

import struct

_PSEUDO_HEADER = struct.Struct("!IIBBH")


def internet_checksum(data):
    """One's-complement 16-bit checksum over *data*.

    ``2**16 == 1 (mod 0xFFFF)``, so the end-around-carry sum of the
    big-endian 16-bit words is the whole buffer, read as one big
    integer, modulo ``0xFFFF`` (an odd trailing byte is the high half
    of a zero-padded word: shift left 8).  The residue cannot tell the
    sum's two zeros apart: the carry-folded sum is ``0xFFFF`` (−0) for
    any non-zero data that is a multiple of ``0xFFFF``, and ``0`` (+0)
    only for all-zero data.
    """
    total = int.from_bytes(data, "big")
    if len(data) & 1:
        total <<= 8
    if total == 0:
        return 0xFFFF
    return 0xFFFF - (total % 0xFFFF or 0xFFFF)


def verify_checksum(data):
    """True iff *data* (with its checksum field in place) sums to zero."""
    return internet_checksum(data) == 0


def icmp_checksum(icmp_bytes):
    """Checksum over the ICMP header+payload (checksum field zeroed)."""
    return internet_checksum(icmp_bytes)


def _pseudo_header(src_ip, dst_ip, protocol, length):
    return _PSEUDO_HEADER.pack(src_ip & 0xFFFFFFFF, dst_ip & 0xFFFFFFFF,
                               0, protocol, length & 0xFFFF)


def udp_checksum(src_ip, dst_ip, udp_bytes):
    """UDP checksum with IPv4 pseudo-header; 0 results become 0xFFFF."""
    pseudo = _pseudo_header(src_ip, dst_ip, 17, len(udp_bytes))
    value = internet_checksum(b"".join((pseudo, udp_bytes)))
    # In UDP a computed 0 is transmitted as 0xFFFF (0 means "no checksum").
    return value if value != 0 else 0xFFFF


def tcp_checksum(src_ip, dst_ip, tcp_bytes):
    """TCP checksum with IPv4 pseudo-header."""
    pseudo = _pseudo_header(src_ip, dst_ip, 6, len(tcp_bytes))
    return internet_checksum(b"".join((pseudo, tcp_bytes)))
