"""ICMP echo, TCP ping, DNS, Memcached, NAT, KV cache (§4.2-§4.4)."""

import pytest

from repro.core.protocols.dns import DNSWrapper, RCode, build_dns_query
from repro.core.protocols.icmp import ICMPWrapper, build_icmp_echo_request
from repro.core.protocols.ipv4 import IPv4Wrapper
from repro.core.protocols.memcached import (
    BinaryStatus, MemcachedBinaryWrapper, build_ascii_get,
    build_ascii_set, build_binary_delete, build_binary_get,
    build_binary_set, build_udp_frame_header, split_udp_frame,
)
from repro.core.protocols.tcp import TCPFlags, TCPWrapper, build_tcp
from repro.core.protocols.udp import UDPWrapper, build_udp
from repro.net.packet import Frame, ip_to_int, mac_to_int
from repro.services import (
    DnsServerService, IcmpEchoService, KVCacheService, MemcachedService,
    NatService, TcpPingService,
)

MAC_SVC = mac_to_int("02:00:00:00:00:01")
MAC_CLI = mac_to_int("02:00:00:00:00:aa")
IP_SVC = ip_to_int("10.0.0.1")
IP_CLI = ip_to_int("10.0.0.2")


def udp_frame(payload, dst_port, src_port_l4=4000):
    return Frame(build_udp(MAC_SVC, MAC_CLI, IP_CLI, IP_SVC,
                           src_port_l4, dst_port, payload),
                 src_port=1).pad()


class TestIcmpEcho:
    def make(self):
        return IcmpEchoService(my_ip=IP_SVC, my_mac=MAC_SVC)

    def ping(self, svc, dst_ip=IP_SVC):
        frame = Frame(build_icmp_echo_request(
            MAC_SVC, MAC_CLI, IP_CLI, dst_ip), src_port=2).pad()
        return svc.process(frame)

    def test_replies_to_echo_request(self):
        dp = self.ping(self.make())
        icmp = ICMPWrapper(dp.tdata)
        assert icmp.is_echo_reply
        assert icmp.checksum_ok()
        assert dp.dst_ports == 0b0100       # back out of port 2

    def test_reply_swaps_addresses(self):
        dp = self.ping(self.make())
        ip = IPv4Wrapper(dp.tdata)
        assert ip.source_ip_address == IP_SVC
        assert ip.destination_ip_address == IP_CLI
        assert ip.checksum_ok()

    def test_other_destination_dropped(self):
        dp = self.ping(self.make(), dst_ip=ip_to_int("10.0.0.99"))
        assert dp.dst_ports == 0

    def test_non_icmp_dropped(self):
        svc = self.make()
        dp = svc.process(udp_frame(b"x", 9999))
        assert dp.dst_ports == 0

    def test_corrupted_checksum_dropped(self):
        svc = self.make()
        raw = bytearray(build_icmp_echo_request(MAC_SVC, MAC_CLI,
                                                IP_CLI, IP_SVC))
        raw[40] ^= 0xFF
        dp = svc.process(Frame(raw, src_port=0).pad())
        assert dp.dst_ports == 0

    def test_counters(self):
        svc = self.make()
        self.ping(svc)
        self.ping(svc)
        assert svc.requests_seen == 2
        assert svc.replies_sent == 2


class TestTcpPing:
    def make(self):
        return TcpPingService(my_ip=IP_SVC, open_ports=(80,))

    def syn(self, dst_port, seq=1000):
        return Frame(build_tcp(MAC_SVC, MAC_CLI, IP_CLI, IP_SVC, 5555,
                               dst_port, TCPFlags.SYN, seq=seq),
                     src_port=0).pad()

    def test_open_port_gets_synack(self):
        dp = self.make().process(self.syn(80))
        tcp = TCPWrapper(dp.tdata)
        assert tcp.is_syn_ack
        assert tcp.ack_number == 1001
        assert tcp.checksum_ok()

    def test_closed_port_gets_rst(self):
        dp = self.make().process(self.syn(81))
        tcp = TCPWrapper(dp.tdata)
        assert tcp.is_rst
        assert dp.dst_ports == 0b0001

    def test_non_syn_ignored(self):
        svc = self.make()
        ack = Frame(build_tcp(MAC_SVC, MAC_CLI, IP_CLI, IP_SVC, 5555, 80,
                              TCPFlags.ACK), src_port=0).pad()
        dp = svc.process(ack)
        assert dp.dst_ports == 0

    def test_stateless_no_table_growth(self):
        svc = self.make()
        for seq in range(50):
            svc.process(self.syn(80, seq=seq))
        assert svc.synacks_sent == 50


class TestDnsServer:
    def make(self):
        return DnsServerService(
            my_ip=IP_SVC,
            table={"host.example": ip_to_int("192.0.2.1")})

    def query(self, svc, name, txid=0x77):
        dp = svc.process(udp_frame(build_dns_query(txid, name), 53))
        if dp.dst_ports == 0:
            return dp, None
        return dp, DNSWrapper(UDPWrapper(dp.tdata).payload())

    def test_resolves_known_name(self):
        dp, response = self.query(self.make(), "host.example")
        assert response.header.txid == 0x77
        assert response.first_a_record() == ip_to_int("192.0.2.1")
        assert UDPWrapper(dp.tdata).checksum_ok()
        assert UDPWrapper(dp.tdata).destination_port == 4000

    def test_case_insensitive(self):
        _, response = self.query(self.make(), "HOST.Example")
        assert response.first_a_record() == ip_to_int("192.0.2.1")

    def test_unknown_name_nxdomain(self):
        _, response = self.query(self.make(), "missing.example")
        assert response.header.rcode == RCode.NAME_ERROR
        assert response.first_a_record() is None

    def test_paper_name_length_limit(self):
        svc = self.make()
        with pytest.raises(Exception):
            svc.add_record("x" * 30 + ".example", 1)

    def test_record_management(self):
        svc = self.make()
        svc.add_record("new.example", 5)
        _, response = self.query(svc, "new.example")
        assert response.first_a_record() == 5
        svc.remove_record("new.example")
        _, response = self.query(svc, "new.example")
        assert response.header.rcode == RCode.NAME_ERROR

    def test_wrong_port_ignored(self):
        svc = self.make()
        dp = svc.process(udp_frame(build_dns_query(1, "host.example"),
                                   5353))
        assert dp.dst_ports == 0


class TestMemcached:
    def make(self, profile="extended"):
        return MemcachedService(my_ip=IP_SVC, profile=profile)

    def request(self, svc, body, request_id=1):
        payload = build_udp_frame_header(request_id) + body
        dp = svc.process(udp_frame(payload, 11211))
        if dp.dst_ports == 0:
            return None
        _, response = split_udp_frame(UDPWrapper(dp.tdata).payload())
        return response

    def test_binary_set_get_delete(self):
        svc = self.make()
        self.request(svc, build_binary_set(b"abc", b"12345678"))
        response = self.request(svc, build_binary_get(b"abc"))
        msg = MemcachedBinaryWrapper(response)
        assert msg.value() == b"12345678"
        self.request(svc, build_binary_delete(b"abc"))
        response = self.request(svc, build_binary_get(b"abc"))
        assert MemcachedBinaryWrapper(response).status == \
            BinaryStatus.KEY_NOT_FOUND

    def test_ascii_protocol(self):
        svc = self.make()
        assert self.request(svc, build_ascii_set(b"foo", b"bar")) == \
            b"STORED\r\n"
        assert b"VALUE foo 0 3\r\nbar\r\n" in \
            self.request(svc, build_ascii_get(b"foo"))

    def test_ascii_get_miss(self):
        assert self.request(self.make(), build_ascii_get(b"nope")) == \
            b"END\r\n"

    def test_paper_initial_profile_limits(self):
        svc = self.make(profile="paper-initial")
        response = self.request(
            svc, build_binary_set(b"longerkey", b"12345678"))
        assert MemcachedBinaryWrapper(response).status == \
            BinaryStatus.INVALID_ARGUMENTS
        assert not svc.ascii_enabled

    def test_lru_eviction_at_capacity(self):
        svc = self.make()
        svc.capacity = 2
        svc.store_set(b"a", b"1")
        svc.store_set(b"b", b"2")
        svc.store_get(b"a")
        svc.store_set(b"c", b"3")      # evicts b (LRU)
        assert svc.store_get(b"b") is None
        assert svc.store_get(b"a") is not None

    def test_recency_matches_the_list_model_on_a_seeded_trace(self):
        """Eviction order, ``store_delete`` and ``reset()`` against the
        recency *list* this store used to keep (scan, remove, append;
        evict index 0), on SET/GET/DELETE at capacity."""
        import random
        rng = random.Random(0xE17C)
        svc = self.make()
        svc.capacity = 8
        keys = [b"k%02d" % index for index in range(24)]
        store, recency, evictions = {}, [], 0

        def touch(key):
            if key in recency:
                recency.remove(key)
            recency.append(key)

        for step in range(4000):
            key = rng.choice(keys)
            roll = rng.random()
            if step == 2000:
                svc.reset()
                store, recency = {}, []
            elif roll < 0.5:
                if key not in store and len(store) >= svc.capacity:
                    del store[recency.pop(0)]
                    evictions += 1
                store[key] = b"v%d" % step
                touch(key)
                assert svc.store_set(key, store[key]) == \
                    BinaryStatus.NO_ERROR
            elif roll < 0.85:
                entry = svc.store_get(key)
                assert (entry[0] if entry else None) == store.get(key)
                if key in store:
                    touch(key)
            else:
                assert svc.store_delete(key) == (key in store)
                if key in store:
                    del store[key]
                    recency.remove(key)
            assert {k: v for k, (v, _) in svc._store.items()} == store
            assert list(svc._recency) == recency
        assert evictions > 100                  # the trace ran full

    def test_stats_counters(self):
        svc = self.make()
        self.request(svc, build_ascii_set(b"k", b"v"))
        self.request(svc, build_ascii_get(b"k"))
        self.request(svc, build_ascii_get(b"missing"))
        assert (svc.sets, svc.gets) == (1, 2)
        assert (svc.hits, svc.misses) == (1, 1)


class TestNat:
    PUBLIC = ip_to_int("198.51.100.1")
    REMOTE = ip_to_int("203.0.113.9")

    def make(self):
        return NatService(public_ip=self.PUBLIC)

    def outbound(self, nat, sport=3333):
        raw = build_udp(mac_to_int("02:00:00:00:00:05"), MAC_CLI,
                        IP_CLI, self.REMOTE, sport, 53, b"q")
        return nat.process(Frame(raw, src_port=0).pad())

    def test_outbound_rewrite(self):
        nat = self.make()
        dp = self.outbound(nat)
        ip = IPv4Wrapper(dp.tdata)
        udp = UDPWrapper(dp.tdata)
        assert ip.source_ip_address == self.PUBLIC
        assert udp.source_port >= 10000
        assert ip.checksum_ok() and udp.checksum_ok()
        assert dp.dst_ports == 0b0010          # WAN port

    def test_inbound_translation_back(self):
        nat = self.make()
        dp_out = self.outbound(nat)
        public_port = UDPWrapper(dp_out.tdata).source_port
        raw = build_udp(mac_to_int("02:00:00:00:00:05"),
                        mac_to_int("02:00:00:00:01:00"),
                        self.REMOTE, self.PUBLIC, 53, public_port, b"r")
        dp_in = nat.process(Frame(raw, src_port=1).pad())
        ip = IPv4Wrapper(dp_in.tdata)
        udp = UDPWrapper(dp_in.tdata)
        assert ip.destination_ip_address == IP_CLI
        assert udp.destination_port == 3333
        assert dp_in.dst_ports == 0b0001       # LAN port

    def test_same_flow_reuses_mapping(self):
        nat = self.make()
        port1 = UDPWrapper(self.outbound(nat).tdata).source_port
        port2 = UDPWrapper(self.outbound(nat).tdata).source_port
        assert port1 == port2

    def test_distinct_flows_get_distinct_ports(self):
        nat = self.make()
        port1 = UDPWrapper(self.outbound(nat, sport=1111).tdata).source_port
        port2 = UDPWrapper(self.outbound(nat, sport=2222).tdata).source_port
        assert port1 != port2

    def test_unsolicited_inbound_dropped(self):
        nat = self.make()
        raw = build_udp(mac_to_int("02:00:00:00:00:05"),
                        mac_to_int("02:00:00:00:01:00"),
                        self.REMOTE, self.PUBLIC, 53, 44444, b"r")
        dp = nat.process(Frame(raw, src_port=1).pad())
        assert dp.dst_ports == 0
        assert nat.dropped == 1

    def test_tcp_translated_too(self):
        nat = self.make()
        raw = build_tcp(mac_to_int("02:00:00:00:00:05"), MAC_CLI,
                        IP_CLI, self.REMOTE, 5000, 80, TCPFlags.SYN)
        dp = nat.process(Frame(raw, src_port=0).pad())
        tcp = TCPWrapper(dp.tdata)
        assert IPv4Wrapper(dp.tdata).source_ip_address == self.PUBLIC
        assert tcp.checksum_ok()

    def test_icmp_identifier_translation(self):
        nat = self.make()
        raw = build_icmp_echo_request(
            mac_to_int("02:00:00:00:00:05"), MAC_CLI, IP_CLI,
            self.REMOTE, identifier=77)
        dp = nat.process(Frame(raw, src_port=0).pad())
        icmp = ICMPWrapper(dp.tdata)
        assert icmp.identifier >= 10000
        assert icmp.checksum_ok()


class TestKvCache:
    def make(self):
        return KVCacheService(depth=4)

    def get_frame(self, key, request_id=1, from_client=True):
        payload = build_udp_frame_header(request_id) + \
            build_binary_get(key)
        src = 0 if from_client else 1
        if from_client:
            raw = build_udp(MAC_SVC, MAC_CLI, IP_CLI, IP_SVC, 4000,
                            11211, payload)
        else:
            raw = build_udp(MAC_CLI, MAC_SVC, IP_SVC, IP_CLI, 11211,
                            4000, payload)
        return Frame(raw, src_port=src).pad()

    def response_frame(self, key, value, request_id=1):
        from repro.core.protocols.memcached import build_binary_response, \
            BinaryOpcodes
        payload = build_udp_frame_header(request_id) + \
            build_binary_response(BinaryOpcodes.GET, key=key, value=value)
        raw = build_udp(MAC_CLI, MAC_SVC, IP_SVC, IP_CLI, 11211, 4000,
                        payload)
        return Frame(raw, src_port=1).pad()

    def test_miss_forwards_to_server(self):
        svc = self.make()
        dp = svc.process(self.get_frame(b"key1"))
        assert dp.dst_ports == 0b0010
        assert svc.cache_misses == 1

    def test_response_populates_then_hit(self):
        svc = self.make()
        svc.process(self.get_frame(b"key1"))
        svc.process(self.response_frame(b"key1", b"\x01" * 8))
        assert svc.populated == 1
        dp = svc.process(self.get_frame(b"key1"))
        assert svc.cache_hits == 1
        assert dp.dst_ports == 0b0001      # answered back to the client
        _, body = split_udp_frame(UDPWrapper(dp.tdata).payload())
        assert MemcachedBinaryWrapper(body).value() == b"\x01" * 8

    def test_non_cache_traffic_passes_through(self):
        svc = self.make()
        # udp_frame arrives on port 1 (the server side), so pass-through
        # goes out of the client port.
        dp = svc.process(udp_frame(b"other", 9999))
        assert dp.dst_ports == 0b0001
