"""Reusable protocol parsers (paper Fig. 3/4).

Each wrapper shares the underlying frame buffer — mutating a field
through a wrapper mutates the frame, exactly like the paper's C#
wrappers over ``dataplane.tdata``:

    eth = EthernetWrapper(dataplane.tdata)
    ip  = IPv4Wrapper(dataplane.tdata)
    tcp = TCPWrapper(dataplane.tdata)
    arp = ARPWrapper(dataplane.tdata)

Each module also provides ``build_*`` constructors so workloads and
tests can assemble valid packets.
"""

from repro.core.protocols.ethernet import EthernetWrapper, EtherTypes, \
    build_ethernet
from repro.core.protocols.arp import ARPWrapper, build_arp_request, \
    build_arp_reply
from repro.core.protocols.ipv4 import IPv4Wrapper, IPProtocols, build_ipv4
from repro.core.protocols.icmp import ICMPWrapper, ICMPTypes, \
    build_icmp_echo_request
from repro.core.protocols.udp import UDPRequest, UDPWrapper, build_udp
from repro.core.protocols.tcp import TCPWrapper, TCPFlags, build_tcp
from repro.core.protocols.dns import (
    DNSWrapper, DNSHeader, DNSQuestion, encode_name, decode_name,
    build_dns_query, build_dns_response, RCode, QType, QClass,
)
from repro.core.protocols.memcached import (
    MemcachedBinaryWrapper, BinaryOpcodes, BinaryMagic, BinaryStatus,
    build_binary_get, build_binary_set, build_binary_delete,
    build_binary_response, parse_ascii_command, build_ascii_get,
    build_ascii_set, build_ascii_delete, AsciiCommand,
)

__all__ = [
    "EthernetWrapper", "EtherTypes", "build_ethernet",
    "ARPWrapper", "build_arp_request", "build_arp_reply",
    "IPv4Wrapper", "IPProtocols", "build_ipv4",
    "ICMPWrapper", "ICMPTypes", "build_icmp_echo_request",
    "UDPRequest", "UDPWrapper", "build_udp",
    "TCPWrapper", "TCPFlags", "build_tcp",
    "DNSWrapper", "DNSHeader", "DNSQuestion", "encode_name", "decode_name",
    "build_dns_query", "build_dns_response", "RCode", "QType", "QClass",
    "MemcachedBinaryWrapper", "BinaryOpcodes", "BinaryMagic", "BinaryStatus",
    "build_binary_get", "build_binary_set", "build_binary_delete",
    "build_binary_response", "parse_ascii_command", "build_ascii_get",
    "build_ascii_set", "build_ascii_delete", "AsciiCommand",
]
