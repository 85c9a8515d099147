"""Builders stay byte-identical: hex captured from the commit before
the wire codecs moved onto ``struct`` (setter-by-setter builders, byte
loop checksums)."""

import pytest

from repro.core.dataplane import NetFPGAData
from repro.core.protocols.dns import DNSQuestion, build_dns_query, \
    build_dns_response
from repro.core.protocols.icmp import build_icmp_echo_request
from repro.core.protocols.memcached import build_binary_get, \
    build_binary_response, build_binary_set, build_udp_frame_header
from repro.core.protocols.tcp import TCPFlags, build_tcp
from repro.core.protocols.udp import build_udp
from repro.core.protocols.udp import UDPWrapper
from repro.errors import BitRangeError
from repro.net.packet import Frame
from repro.services.dns_server import DnsServerService
from repro.services.icmp_echo import IcmpEchoService
from repro.services.kvcache import KVCacheService
from repro.services.memcached import MemcachedService

DST_MAC, SRC_MAC = 0x020000000001, 0x0200000000AA
SRC_IP, DST_IP = 0x0A000001, 0x0A000002


def test_build_udp():
    frame = build_udp(DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 11211,
                      b"emu-golden!")
    assert bytes(frame).hex() == (
        "0200000000010200000000aa0800"
        "4500002700000000401166c40a0000010a000002"
        "9c402bcb0013eedc" "656d752d676f6c64656e21")
    plain = build_udp(DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 11211,
                      b"emu-golden!", with_checksum=False)
    assert bytes(plain).hex() == bytes(frame).hex().replace(
        "0013eedc", "00130000")


def test_build_tcp():
    frame = build_tcp(DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 80,
                      TCPFlags.SYN, seq=0x01020304, ack=7, payload=b"hi")
    assert bytes(frame).hex() == (
        "0200000000010200000000aa0800"
        "4500002a00000000400666cc0a0000010a000002"
        "9c40005001020304000000075002ffff92d70000" "6869")


def test_memcached_builders():
    assert build_binary_response(
        0x00, status=0, key=b"k", value=b"12345678",
        extras=b"\x00\x00\x00\x07", opaque=0xDEADBEEF,
        cas=0x0102030405060708).hex() == (
        "81000001040000000000000ddeadbeef0102030405060708"
        "00000007" "6b" "3132333435363738")
    assert build_binary_set(b"abcdef", b"12345678", flags=5, expiry=9,
                            opaque=3).hex() == (
        "800100060800000000000016000000030000000000000000"
        "0000000500000009" "616263646566" "3132333435363738")
    assert build_udp_frame_header(0x1234, 1, 2).hex() == \
        "1234000100020000"


def test_dns_builders():
    assert build_dns_response(0xBEEF, DNSQuestion("a.example.com"),
                              address=0x0A000005).hex() == (
        "beef80000001000100000000"
        "0161076578616d706c6503636f6d0000010001"
        "c00c000100010000012c00040a000005")
    assert build_dns_response(0xBEEF, DNSQuestion("nope.invalid"),
                              rcode=3).hex() == (
        "beef80030001000000000000"
        "046e6f706507696e76616c69640000010001")
    assert build_dns_query(0xBEEF, "a.example.com",
                           recursion_desired=True).hex() == (
        "beef01000001000000000000"
        "0161076578616d706c6503636f6d0000010001")


def test_icmp_echo_request_and_reply():
    request = build_icmp_echo_request(
        DST_MAC, SRC_MAC, SRC_IP, DST_IP, identifier=0x77,
        sequence=0x1234, payload=b"emu-golden-ping")
    assert bytes(request).hex() == (
        "0200000000010200000000aa0800"
        "4500002b00000000400166d00a0000010a000002"
        "0800d39800771234" "656d752d676f6c64656e2d70696e67")
    dataplane = NetFPGAData(Frame(bytes(request), src_port=0))
    for _ in IcmpEchoService(DST_IP).on_frame(dataplane):
        pass
    assert dataplane.dst_ports == 1
    # MACs and IPs swapped, type 0, both checksums regenerated.
    assert bytes(dataplane.tdata).hex() == (
        "0200000000aa0200000000010800"
        "4500002b00000000400166d00a0000020a000001"
        "0000db9800771234" "656d752d676f6c64656e2d70696e67")


def _served(service, payload, port, src_port=0):
    """The padded request through *service*; reply hex (``None``: drop)."""
    frame = Frame(build_udp(DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, port,
                            payload), src_port=src_port).pad()
    dataplane = service.process(frame)
    assert dataplane.dst_ports in (0, 1 << src_port)
    return bytes(dataplane.tdata).hex() if dataplane.dst_ports else None


#: Ethernet + IPv4 up to the total length, and from the identification
#: to the checksum, of every reply below (MACs swapped, TTL 64, UDP).
_REPLY_ETH = "0200000000aa0200000000010800" "4500"
_REPLY_ADDRS = "0a0000020a000001"


def test_memcached_replies():
    """Captured from the commit before the reply services moved onto
    ``UDPRequest`` (wrapper-by-wrapper turn-around)."""
    service = MemcachedService(DST_IP)
    header = build_udp_frame_header(0x1234)
    assert _served(service, header + build_binary_get(b"abcdef", opaque=7),
                   11211) == (
        _REPLY_ETH + "003c" "00000000401166af" + _REPLY_ADDRS +
        "2bcb9c4000289052" "1234000000010000"
        "810000000000000100000000000000070000000000000000")
    assert _served(service, header + build_binary_set(
        b"abcdef", b"12345678", flags=5, opaque=8), 11211) == (
        _REPLY_ETH + "003c" "00000000401166af" + _REPLY_ADDRS +
        "2bcb9c4000289051" "1234000000010000"
        "810100000000000000000000000000080000000000000000")
    assert _served(service, header + build_binary_get(b"abcdef", opaque=9),
                   11211) == (
        _REPLY_ETH + "0048" "00000000401166a3" + _REPLY_ADDRS +
        "2bcb9c400034bb53" "1234000000010000"
        "81000000040000000000000c00000009000000000000000000000005"
        "3132333435363738")
    assert _served(service, header + b"set emu 3 0 5\r\nhello\r\n",
                   11211) == (
        _REPLY_ETH + "002c" "00000000401166bf" + _REPLY_ADDRS +
        "2bcb9c4000181c86" "1234000000010000" "53544f5245440d0a")
    assert _served(service, header + b"get emu\r\n", 11211) == (
        _REPLY_ETH + "003f" "00000000401166ac" + _REPLY_ADDRS +
        "2bcb9c40002b6a39" "1234000000010000"
        "56414c554520656d75203320350d0a" "68656c6c6f0d0a" "454e440d0a")


def test_kvcache_hit_reply():
    service = KVCacheService()
    header = build_udp_frame_header(0x1234)
    populate = Frame(build_udp(
        SRC_MAC, DST_MAC, DST_IP, SRC_IP, 11211, 40000,
        header + build_binary_response(
            0, key=b"abcdef", value=b"12345678", extras=bytes(4),
            opaque=1)), src_port=1)
    assert service.process(populate).dst_ports == 1      # on to the client
    assert _served(service, header + build_binary_get(
        b"abcdef", opaque=0x55), 11211) == (
        _REPLY_ETH + "0048" "00000000401166a3" + _REPLY_ADDRS +
        "2bcb9c400034bb0c" "1234000000010000"
        "81000000040000000000000c00000055000000000000000000000000"
        "3132333435363738")


def test_dns_replies():
    service = DnsServerService(DST_IP, table={"a.example.com": 0x0A000005})
    assert _served(service, build_dns_query(0xBEEF, "a.example.com"),
                   53) == (
        _REPLY_ETH + "004b" "00000000401166a0" + _REPLY_ADDRS +
        "00359c400037fc7c" "beef80000001000100000000"
        "0161076578616d706c6503636f6d0000010001"
        "c00c000100010000012c00040a000005")
    assert _served(service, build_dns_query(0xBEEF, "nope.invalid"),
                   53) == (
        _REPLY_ETH + "003a" "00000000401166b1" + _REPLY_ADDRS +
        "00359c4000268714" "beef80030001000000000000"
        "046e6f706507696e76616c69640000010001")


def test_builders_keep_the_setters_checks():
    """One ``pack`` per header still refuses negative fields and
    truncates wide ones, as the setter-by-setter builders did."""
    with pytest.raises(BitRangeError):
        build_udp(DST_MAC, SRC_MAC, SRC_IP, DST_IP, -1, 11211, b"x")
    with pytest.raises(BitRangeError):
        build_udp(DST_MAC, SRC_MAC, -SRC_IP, DST_IP, 40000, 11211, b"x")
    with pytest.raises(BitRangeError):
        build_udp(-DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 11211, b"x")
    with pytest.raises(BitRangeError):
        build_udp_frame_header(-1)
    with pytest.raises(BitRangeError):
        build_binary_response(0, opaque=-1)
    wide = build_udp(DST_MAC | 1 << 48, SRC_MAC, SRC_IP | 1 << 32, DST_IP,
                     0x10000 + 40000, 11211, b"emu-golden!")
    assert bytes(wide) == bytes(build_udp(
        DST_MAC, SRC_MAC, SRC_IP, DST_IP, 40000, 11211, b"emu-golden!"))
    assert UDPWrapper(wide).source_port == 40000
    assert build_udp_frame_header(0x11234) == build_udp_frame_header(0x1234)
