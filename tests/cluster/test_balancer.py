"""Flow-key extraction: the keys the cluster routes by."""

from repro.cluster.balancer import five_tuple_key, flow_key, memcached_key
from repro.core.dataplane import TData
from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper
from repro.core.protocols.memcached import (
    BinaryMagic, MemcachedBinaryWrapper, build_udp_frame_header,
    parse_ascii_command, split_udp_frame,
)
from repro.core.protocols.udp import UDPWrapper, build_udp
from repro.errors import ParseError
from repro.net.packet import Frame, ip_to_int
from repro.net.workloads import (
    dns_query_stream, memaslap_mix, ping_flood, tcp_syn_stream,
)

SERVICE_IP = ip_to_int("10.0.0.1")
CLIENT_IP = ip_to_int("10.0.0.2")


def mix(count, **kwargs):
    kwargs.setdefault("seed", 13)
    return list(memaslap_mix(SERVICE_IP, CLIENT_IP, count=count, **kwargs))


class TestKeyExtraction:
    def test_memcached_key_from_ascii_get(self):
        frames = mix(20, get_ratio=1.0)
        keys = [memcached_key(f.data) for f in frames]
        assert all(k is not None and k.startswith(b"k") for k in keys)

    def test_memcached_key_from_binary(self):
        frames = mix(20, protocol="binary")
        keys = [memcached_key(f.data) for f in frames]
        assert all(k is not None and len(k) == 6 for k in keys)

    def test_memcached_key_same_for_get_and_set(self):
        """memaslap randomizes source ports, so only key-based hashing
        keeps a key's GETs and SETs on one shard."""
        gets = {memcached_key(f.data) for f in mix(300, get_ratio=1.0)}
        sets = {memcached_key(f.data) for f in mix(300, get_ratio=0.0)}
        assert gets & sets                      # overlapping key space

    def test_non_memcached_falls_back_to_five_tuple(self):
        frame = next(iter(tcp_syn_stream(SERVICE_IP, CLIENT_IP, count=1)))
        assert memcached_key(frame.data) is None
        key = flow_key(frame.data)
        assert key == five_tuple_key(frame.data)
        assert len(key) == 13                   # ips + proto + ports

    def test_icmp_five_tuple_has_no_ports(self):
        frame = next(iter(ping_flood(SERVICE_IP, CLIENT_IP, count=1)))
        key = five_tuple_key(frame.data)
        assert key[-4:] == b"\x00\x00\x00\x00"

    def test_runt_frame_yields_none(self):
        assert flow_key(bytearray()) is None


def wrapper_memcached_key(buf):
    """``memcached_key`` as it read the frame before the one parse."""
    try:
        if not TData(buf).is_ipv4():
            return None
        if IPv4Wrapper(buf).protocol != IPProtocols.UDP:
            return None
        udp = UDPWrapper(buf)
        if udp.destination_port != 11211:
            return None
        _, body = split_udp_frame(udp.payload())
        if body[:1] and body[0] == BinaryMagic.REQUEST:
            return MemcachedBinaryWrapper(body).key()
        return parse_ascii_command(body).key
    except ParseError:
        return None


def wrapper_five_tuple_key(buf):
    try:
        if not TData(buf).is_ipv4():
            return bytes(buf[:14]) or None
        ip = IPv4Wrapper(buf)
        ports = bytes(4)
        if ip.protocol in (IPProtocols.TCP, IPProtocols.UDP):
            offset = ip.payload_offset()
            if len(buf) >= offset + 4:
                ports = bytes(buf[offset:offset + 4])
        return (ip.source_ip_address.to_bytes(4, "big") +
                ip.destination_ip_address.to_bytes(4, "big") +
                bytes([ip.protocol]) + ports)
    except ParseError:
        return bytes(buf[:14]) or None


class TestKeysUnchangedByTheOneParse:
    """Ring placement must not move: every extractor returns what the
    two wrapper chains returned, on whole and truncated frames."""

    @staticmethod
    def frames():
        out = mix(12, protocol="binary") + mix(12) + \
            mix(6, get_ratio=0.0)
        out += list(dns_query_stream(SERVICE_IP, CLIENT_IP,
                                    ["a.example", "b.example"], count=6))
        out += list(tcp_syn_stream(SERVICE_IP, CLIENT_IP, count=3))
        out += list(ping_flood(SERVICE_IP, CLIENT_IP, count=2))
        out.append(Frame(bytes(12) + b"\x08\x06" + bytes(28)))     # ARP
        out.append(Frame(build_udp(1, 2, CLIENT_IP, SERVICE_IP, 40000,
                                   11211, b"short")))    # no frame header
        out.append(Frame(build_udp(
            1, 2, CLIENT_IP, SERVICE_IP, 40000, 11211,
            build_udp_frame_header(1) + b"bogus\r\n")))
        return out

    def test_whole_and_truncated_frames(self):
        checked = 0
        for frame in self.frames():
            data = bytes(frame.data)
            for cut in list(range(0, 60)) + [len(data)]:
                buf = bytearray(data[:cut])
                expected = wrapper_memcached_key(buf)
                assert memcached_key(buf) == expected, (data.hex(), cut)
                assert five_tuple_key(buf) == \
                    wrapper_five_tuple_key(buf), (data.hex(), cut)
                assert flow_key(buf) == (
                    expected if expected is not None
                    else wrapper_five_tuple_key(buf)), (data.hex(), cut)
                checked += 1
        assert checked > 2000

    def test_kinds_of_buffer(self):
        for frame in self.frames():
            data = bytes(frame.data)
            assert flow_key(data) == flow_key(bytearray(data)) == \
                flow_key(TData(data))
