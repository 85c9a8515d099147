"""Flow keys: what the cluster hashes to pick a shard.

:class:`~repro.cluster.target.ClusterTarget` routes every request by
walking its flow key through the Pearson construction
(:mod:`repro.ip.pearson`, Fig. 5's hash core) onto the ring.  The key
is the memcached key when the frame is memcached-over-UDP (so GET and
SET of the same key always reach the same shard despite memaslap's
random ephemeral source ports), the 5-tuple otherwise.
"""

import struct

from repro.core.protocols.ethernet import EtherTypes
from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper
from repro.core.protocols.memcached import (
    BinaryMagic, MemcachedBinaryWrapper, parse_ascii_command,
    split_udp_frame,
)
from repro.core.protocols.udp import UDPRequest
from repro.errors import ParseError
from repro.utils.bitutil import BitUtil

MEMCACHED_PORT = 11211


_FIVE_TUPLE = struct.Struct("!IIBHH")


def _udp_request(buf):
    """*buf* decoded once as a UDP request; ``None`` for anything else,
    a truncated one included."""
    try:
        return UDPRequest.parse(buf)
    except ParseError:
        return None


def _memcached_key(request):
    if request.destination_port != MEMCACHED_PORT:
        return None
    try:
        _, body = split_udp_frame(request.payload())
        if body[:1] and body[0] == BinaryMagic.REQUEST:
            return MemcachedBinaryWrapper(body).key()
        return parse_ascii_command(body).key
    except ParseError:
        return None


def memcached_key(buf):
    """The memcached key carried by *buf*, or ``None`` if not memcached."""
    request = _udp_request(buf)
    return None if request is None else _memcached_key(request)


def five_tuple_key(buf):
    """``src_ip·dst_ip·proto·sport·dport`` as bytes (L4 flow identity)."""
    try:
        if len(buf) < 14 or BitUtil.get16(buf, 12) != EtherTypes.IPV4:
            return bytes(buf[:14]) or None
        ip = IPv4Wrapper(buf)
        proto = ip.protocol
        ports = b"\x00\x00\x00\x00"
        if proto in (IPProtocols.TCP, IPProtocols.UDP):
            offset = ip.payload_offset()
            if len(buf) >= offset + 4:
                ports = bytes(buf[offset:offset + 4])
        return (int(ip.source_ip_address).to_bytes(4, "big") +
                int(ip.destination_ip_address).to_bytes(4, "big") +
                bytes([proto]) + ports)
    except ParseError:
        return bytes(buf[:14]) or None


def flow_key(buf):
    """Default key extractor: memcached key, else the 5-tuple — for a
    UDP request both from one parse."""
    request = _udp_request(buf)
    if request is None:
        return five_tuple_key(buf)
    key = _memcached_key(request)
    if key is None:
        key = _FIVE_TUPLE.pack(
            request.source_ip_address, request.destination_ip_address,
            IPProtocols.UDP, request.source_port, request.destination_port)
    return key
