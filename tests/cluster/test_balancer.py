"""The shard balancer as an Emu program, plus key extraction."""

import pytest

from repro.cluster.balancer import (
    LOOKUP_CYCLES, PARSE_CYCLES, ShardBalancerService, five_tuple_key,
    flow_key, memcached_key,
)
from repro.cluster.ring import HashRing, max_over_mean
from repro.core.dataplane import NetFPGAData, TData
from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper
from repro.core.protocols.memcached import (
    BinaryMagic, MemcachedBinaryWrapper, build_ascii_get,
    build_udp_frame_header, parse_ascii_command, split_udp_frame,
)
from repro.core.protocols.udp import UDPWrapper, build_udp
from repro.errors import ClusterError, ParseError
from repro.net.packet import Frame, ip_to_int
from repro.net.workloads import (
    dns_query_stream, memaslap_mix, ping_flood, tcp_syn_stream,
)
from repro.targets.fpga import FpgaTarget

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


class TestBalancerService:
    def build(self, num_shards=4):
        return ShardBalancerService(
            {"shard%d" % i: 1 + i for i in range(num_shards)},
            uplink_port=0)

    def test_request_goes_to_exactly_one_shard_port(self):
        balancer = self.build()
        frame = mix(1)[0]
        dataplane = balancer.process(NetFPGAData(frame))
        ports = [p for p in range(5) if dataplane.dst_ports & (1 << p)]
        assert len(ports) == 1
        assert ports[0] in (1, 2, 3, 4)

    def test_same_key_always_same_port(self):
        balancer = self.build()
        frames = mix(200)
        port_by_key = {}
        for frame in frames:
            dataplane = balancer.process(NetFPGAData(frame))
            key = memcached_key(frame.data)
            port_by_key.setdefault(key, set()).add(dataplane.dst_ports)
        assert all(len(ports) == 1 for ports in port_by_key.values())

    def test_reply_path_forwards_to_uplink(self):
        balancer = self.build()
        reply = mix(1)[0]
        reply.src_port = 2                      # arrived from a shard
        dataplane = balancer.process(NetFPGAData(reply))
        assert dataplane.dst_ports == 1         # uplink port 0
        assert balancer.replies_forwarded == 1

    def test_dispatch_counters_spread(self):
        balancer = self.build(num_shards=8)
        for frame in mix(1000):
            balancer.process(NetFPGAData(frame))
        assert sum(balancer.dispatched.values()) == 1000
        assert max_over_mean(balancer.dispatched.values()) <= 1.35

    def test_unparseable_frame_dropped(self):
        balancer = ShardBalancerService({"s0": 1})
        dataplane = balancer.process(NetFPGAData(Frame(b"")))
        assert dataplane.dropped
        assert balancer.unroutable == 1

    def test_uplink_port_collision_rejected(self):
        with pytest.raises(ClusterError):
            ShardBalancerService({"s0": 0}, uplink_port=0)

    def test_runs_on_fpga_target(self):
        """The balancer is a service like any other: it runs as the
        main logical core with a measurable cycle count."""
        balancer = self.build()
        target = FpgaTarget(balancer, num_ports=5)
        emitted, latency_ns, cycles, _ = target.send(mix(1)[0])
        assert len(emitted) == 1
        assert emitted[0][0] in (1, 2, 3, 4)
        assert latency_ns > 0
        assert cycles > 0

    def test_external_ring_is_honoured(self):
        ring = HashRing(["a", "b"])
        balancer = ShardBalancerService({"a": 1, "b": 2}, ring=ring)
        frame = mix(1)[0]
        expected = ring.lookup(memcached_key(frame.data))
        dataplane = balancer.process(NetFPGAData(frame))
        assert dataplane.dst_ports == \
            1 << balancer.shard_ports[expected]


class TestDatapathCycleModel:
    """Regression for the ISSUE-2 fix: the byte-serial Pearson walk
    must scale with the flow-key length, not return a constant."""

    def build(self):
        return ShardBalancerService({"s0": 1, "s1": 2})

    def memcached_frame(self, key):
        payload = build_udp_frame_header(0) + build_ascii_get(key)
        return Frame(build_udp(0x02, 0x01, ip_to_int("10.0.0.2"),
                               ip_to_int("10.0.0.1"), 40000, 11211,
                               payload)).pad()

    def test_pins_the_cycle_model_for_memcached_keys(self):
        balancer = self.build()
        for key_len in (1, 6, 32, 64, 128):
            frame = self.memcached_frame(b"k" * key_len)
            assert balancer.datapath_extra_cycles(frame) == \
                PARSE_CYCLES + key_len + LOOKUP_CYCLES

    def test_monotone_in_key_length(self):
        balancer = self.build()
        cycles = [balancer.datapath_extra_cycles(
            self.memcached_frame(b"k" * key_len))
            for key_len in range(1, 100, 7)]
        assert cycles == sorted(cycles)
        assert cycles[0] < cycles[-1]

    def test_five_tuple_fallback_pays_thirteen_bytes(self):
        balancer = self.build()
        frame = next(iter(tcp_syn_stream(SERVICE_IP, CLIENT_IP,
                                         count=1)))
        assert balancer.datapath_extra_cycles(frame) == \
            PARSE_CYCLES + 13 + LOOKUP_CYCLES

    def test_unroutable_frame_pays_the_parse_only(self):
        balancer = self.build()
        assert balancer.datapath_extra_cycles(Frame(b"")) == \
            PARSE_CYCLES + LOOKUP_CYCLES

    def test_key_length_shows_up_in_fpga_latency(self):
        """The model change is visible end to end: a longer key costs
        measurably more cycles through the FPGA target."""
        short_target = FpgaTarget(self.build(), num_ports=3, seed=1)
        long_target = FpgaTarget(self.build(), num_ports=3, seed=1)
        short_ns = short_target.send(self.memcached_frame(b"k"))[1]
        long_ns = long_target.send(self.memcached_frame(b"k" * 120))[1]
        assert long_ns > short_ns
