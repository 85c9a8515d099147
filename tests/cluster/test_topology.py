"""Cluster topologies over netsim: full round trips through the fabric."""

from repro.cluster import build_leaf_spine, build_star, memcached_key
from repro.core.protocols.memcached import split_udp_frame
from repro.core.protocols.udp import UDPWrapper
from repro.net.packet import ip_to_int
from repro.net.workloads import memaslap_mix
from repro.services.memcached import MemcachedService

SERVICE_IP = ip_to_int("10.0.0.1")
CLIENT_IP = ip_to_int("10.0.0.2")


def factory():
    return MemcachedService(my_ip=SERVICE_IP)


def mix(count, seed=21):
    return list(memaslap_mix(SERVICE_IP, CLIENT_IP, count=count,
                             seed=seed))


class TestStar:
    def test_round_trip_through_balancer(self):
        cluster = build_star(factory, num_shards=4)
        frames = mix(100)
        replies = cluster.run_requests(frames)
        assert len(replies) == 100
        assert cluster.balancer.replies_forwarded == 100
        assert sum(cluster.dispatch_counts().values()) == 100

    def test_replies_are_valid_memcached(self):
        cluster = build_star(factory, num_shards=4)
        replies = cluster.run_requests(mix(50))
        for reply in replies:
            udp = UDPWrapper(reply.data)
            _, body = split_udp_frame(udp.payload())
            assert body            # END/STORED/VALUE..., never empty

    def test_sharding_preserves_hit_rate(self):
        """A key SET through the fabric is then GETtable through it."""
        cluster = build_star(factory, num_shards=4)
        cluster.run_requests(mix(400))
        services = [node.service for node in cluster.shards.values()]
        hits = sum(s.hits for s in services)
        assert hits > 0

    def test_latency_includes_the_fabric(self):
        """Replies arrive strictly later than two link round-trips."""
        cluster = build_star(factory, num_shards=2,
                             client_latency_ns=2000, shard_latency_ns=500)
        replies = cluster.run_requests(mix(1))
        assert replies[0].timestamp_ns >= 2 * (2000 + 500)


class TestLeafSpine:
    def test_all_shards_reachable(self):
        cluster = build_leaf_spine(factory, num_shards=8,
                                   shards_per_leaf=4)
        assert len(cluster.leaves) == 2
        replies = cluster.run_requests(mix(800))
        assert len(replies) == 800
        counts = cluster.dispatch_counts()
        assert len(counts) == 8
        assert all(count > 0 for count in counts.values())

    def test_two_tier_routing_is_stable(self):
        """Same key -> same leaf -> same shard, across the two rings."""
        cluster = build_leaf_spine(factory, num_shards=8,
                                   shards_per_leaf=4)
        frames = mix(300)
        cluster.run_requests(frames)
        # Re-running the identical workload doubles every shard count
        # without touching any new shard.
        first = dict(cluster.dispatch_counts())
        cluster.run_requests([f.copy() for f in frames])
        second = cluster.dispatch_counts()
        assert {k: 2 * v for k, v in first.items()} == second

    def test_uneven_last_leaf(self):
        cluster = build_leaf_spine(factory, num_shards=6,
                                   shards_per_leaf=4)
        assert len(cluster.leaves) == 2
        replies = cluster.run_requests(mix(200))
        assert len(replies) == 200

    def test_fabric_spreads_keys(self):
        cluster = build_leaf_spine(factory, num_shards=8,
                                   shards_per_leaf=4)
        frames = mix(1000)
        keys = {memcached_key(f.data) for f in frames}
        cluster.run_requests(frames)
        counts = cluster.dispatch_counts()
        assert len(keys) > 100
        mean = sum(counts.values()) / len(counts)
        assert max(counts.values()) / mean < 2.0
