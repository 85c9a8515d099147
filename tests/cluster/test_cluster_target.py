"""ClusterTarget: sharded dispatch, replication policies, rebalance."""

import pytest

from repro.cluster import (
    ClusterTarget, NoReplication, PrimaryReplica, ReadOneWriteAll,
    memcached_is_write, memcached_key,
)
from repro.errors import ClusterError
from repro.net.packet import ip_to_int
from repro.net.workloads import memaslap_mix
from repro.services.memcached import MemcachedService
from repro.targets.fpga import FpgaTarget

SERVICE_IP = ip_to_int("10.0.0.1")
CLIENT_IP = ip_to_int("10.0.0.2")


def factory():
    return MemcachedService(my_ip=SERVICE_IP)


def make_cluster(num_shards=4, policy=None):
    return ClusterTarget(factory, num_shards=num_shards, policy=policy,
                         is_write=memcached_is_write)


def mix(count, seed=13, get_ratio=0.9):
    return list(memaslap_mix(SERVICE_IP, CLIENT_IP, count=count,
                             get_ratio=get_ratio, seed=seed))


def set_frames(count=4, seed=19):
    return [f for f in mix(count * 3, seed=seed, get_ratio=0.0)
            if memcached_is_write(f)][:count]


class TestDispatch:
    def test_every_request_is_answered(self):
        cluster = make_cluster()
        results = cluster.send_batch(mix(200))
        assert len(results) == 200
        assert all(emitted for emitted, *_ in results)

    def test_batch_matches_sequential_send(self):
        batched = make_cluster()
        sequential = make_cluster()
        frames = mix(100)
        batch_results = batched.send_batch([f.copy() for f in frames])
        seq_results = [sequential.send(f.copy()) for f in frames]
        batch_replies = [bytes(e[0][1].data) for e, *_ in batch_results]
        seq_replies = [bytes(e[0][1].data) for e, *_ in seq_results]
        assert batch_replies == seq_replies

    def test_same_key_always_same_shard(self):
        """GETs find SETs: the hit rate equals a single instance's."""
        cluster = make_cluster(num_shards=8)
        single = FpgaTarget(factory(), num_ports=1)
        frames = mix(500)
        cluster.send_batch([f.copy() for f in frames])
        for frame in frames:
            single.send(frame.copy())
        hits = sum(s.service.hits for s in cluster.shards.values())
        misses = sum(s.service.misses for s in cluster.shards.values())
        assert (hits, misses) == (single.service.hits,
                                  single.service.misses)

    def test_load_spreads_across_shards(self):
        cluster = make_cluster(num_shards=8)
        cluster.send_batch(mix(1000))
        assert all(load > 0 for load in cluster.shard_loads.values())
        assert cluster.load_imbalance() <= 1.35

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ClusterError):
            ClusterTarget(factory, num_shards=0)


class TestReplicationPolicies:
    def test_sharded_write_touches_only_owner(self):
        cluster = make_cluster(policy=NoReplication())
        cluster.send(set_frames(1)[0])
        stored = [len(s.service._store)
                  for s in cluster.shards.values()]
        assert sorted(stored) == [0, 0, 0, 1]
        assert cluster.replica_applies == 0

    def test_write_all_reaches_every_shard(self):
        """The §5.4 invariant, at cluster scale: every shard stores
        every written key."""
        cluster = make_cluster(policy=ReadOneWriteAll())
        cluster.send(set_frames(1)[0])
        stored = [len(s.service._store)
                  for s in cluster.shards.values()]
        assert stored == [1, 1, 1, 1]
        assert cluster.replica_applies == cluster.num_shards - 1

    def test_primary_replica_applies_lazily(self):
        cluster = make_cluster(policy=PrimaryReplica(num_replicas=2))
        cluster.send(set_frames(1)[0])
        stored = sum(len(s.service._store)
                     for s in cluster.shards.values())
        assert stored == 1                      # only the primary, so far
        assert cluster.pending_replication == 2
        assert cluster.flush_replication() == 2
        stored = sum(len(s.service._store)
                     for s in cluster.shards.values())
        assert stored == 3
        assert cluster.pending_replication == 0

    def test_primary_replica_copies_to_the_next_shard(self):
        """A key's replica lives on the shard after its owner in
        ``shard_ids`` order (clockwise), never on the one before."""
        cluster = make_cluster(policy=PrimaryReplica(1))
        shard_ids = cluster.shard_ids
        frames = set_frames(40)
        assert len(frames) == 40
        for frame in frames:
            cluster.send(frame)
            cluster.flush_replication()
            key = memcached_key(frame.data)
            index = shard_ids.index(cluster.owner_of(frame))
            after = shard_ids[(index + 1) % len(shard_ids)]
            before = shard_ids[(index - 1) % len(shard_ids)]
            assert key in cluster.shards[after].service._store
            assert key not in cluster.shards[before].service._store

    def test_delete_is_replicated_like_set(self):
        """DELETE is a store mutation: under write-all it must reach
        every shard, or replicas resurrect deleted keys."""
        from repro.core.protocols.memcached import (
            build_ascii_delete, build_udp_frame_header,
        )
        from repro.core.protocols.udp import UDPWrapper

        cluster = make_cluster(policy=ReadOneWriteAll())
        set_frame = set_frames(1)[0]
        cluster.send(set_frame)
        assert all(len(s.service._store) == 1
                   for s in cluster.shards.values())

        delete_frame = set_frame.copy()
        udp = UDPWrapper(delete_frame.data)
        key = next(iter(
            next(iter(cluster.shards.values())).service._store))
        udp.set_payload(build_udp_frame_header(1) +
                        build_ascii_delete(key))
        delete_frame.pad()
        assert memcached_is_write(delete_frame)
        cluster.send(delete_frame)
        assert all(len(s.service._store) == 0
                   for s in cluster.shards.values())

    def test_reads_never_replicate(self):
        cluster = make_cluster(policy=ReadOneWriteAll())
        gets = [f for f in mix(20, get_ratio=1.0)
                if not memcached_is_write(f)]
        cluster.send_batch(gets)
        assert cluster.replica_applies == 0
        assert cluster.writes == 0


class TestRebalance:
    def test_remove_shard_migrates_store(self):
        """Keys on a drained shard stay readable after it leaves."""
        cluster = make_cluster(num_shards=4)
        frames = mix(400, seed=29)
        cluster.send_batch(frames)
        keys_before = set()
        for shard in cluster.shards.values():
            keys_before |= set(shard.service._store)

        cluster.remove_shard("shard1")
        keys_after = set()
        for shard in cluster.shards.values():
            keys_after |= set(shard.service._store)
        assert keys_after == keys_before
        assert "shard1" not in cluster.shards
        assert cluster.num_shards == 3

    def test_migration_skips_stale_replica_copies(self):
        """Removing a replica must not clobber the owner's fresher
        value with the replica's unflushed stale copy."""
        from repro.core.protocols.memcached import (
            build_ascii_set, build_udp_frame_header,
        )
        from repro.core.protocols.udp import UDPWrapper

        cluster = make_cluster(num_shards=4,
                               policy=PrimaryReplica(num_replicas=3))
        first = set_frames(1)[0]
        cluster.send(first)
        cluster.flush_replication()     # every shard now holds v1
        key = next(iter(
            next(iter(cluster.shards.values())).service._store))
        owner = cluster.ring.lookup(key)

        # Overwrite on the owner only (async applies left unflushed).
        fresh_frame = first.copy()
        udp = UDPWrapper(fresh_frame.data)
        udp.set_payload(build_udp_frame_header(2) +
                        build_ascii_set(key, b"fresher"))
        fresh_frame.pad()
        cluster.send(fresh_frame)

        replica_id = next(s for s in cluster.shard_ids if s != owner)
        cluster.remove_shard(replica_id)
        assert cluster.shards[owner].service._store[key][0] == b"fresher"

    def test_default_remap_sample_covers_whole_cluster(self):
        """Without an explicit sample, the fraction is over every
        stored key — so it shows the ~1/N consistent-hashing cost,
        not the departing shard's trivially-100% view."""
        cluster = make_cluster(num_shards=8)
        cluster.send_batch(mix(800, seed=31))
        stats = cluster.remove_shard("shard2")
        assert 0.0 < stats.fraction < 0.25

    def test_remove_shard_reports_remap_stats(self):
        cluster = make_cluster(num_shards=8)
        sample = [("k%05d" % i).encode() for i in range(1024)]
        stats = cluster.remove_shard("shard5", sample_keys=sample)
        assert 0 < stats.fraction < 0.25

    def test_add_shard_extends_ring(self):
        cluster = make_cluster(num_shards=4)
        new_id = cluster.add_shard()
        assert new_id == "shard4"
        assert cluster.num_shards == 5
        cluster.send_batch(mix(500))
        assert cluster.shard_loads[new_id] > 0

    def test_cannot_remove_last_shard(self):
        cluster = make_cluster(num_shards=1)
        with pytest.raises(ClusterError):
            cluster.remove_shard("shard0")


class TestThroughputModel:
    @staticmethod
    def rw_frames():
        reads = [f for f in mix(8, seed=17, get_ratio=1.0)
                 if not memcached_is_write(f)]
        writes = [f for f in mix(8, seed=18, get_ratio=0.0)
                  if memcached_is_write(f)]
        return reads[0], writes[0]

    def test_sharded_beats_write_all_beats_nothing(self):
        """More replication work -> less aggregate throughput."""
        read_frame, write_frame = self.rw_frames()
        rates = {}
        for policy in (NoReplication(), PrimaryReplica(2),
                       ReadOneWriteAll()):
            cluster = make_cluster(num_shards=8, policy=policy)
            rates[policy.name] = cluster.max_qps(read_frame, write_frame,
                                                 0.1, imbalance=1.0)
        assert rates["sharded"] > rates["primary-replica"] > \
            rates["read-one-write-all"]

    def test_aggregate_scales_with_shards(self):
        read_frame, write_frame = self.rw_frames()
        two = make_cluster(num_shards=2).max_qps(
            read_frame, write_frame, 0.1, imbalance=1.0)
        eight = make_cluster(num_shards=8).max_qps(
            read_frame, write_frame, 0.1, imbalance=1.0)
        assert eight == pytest.approx(4 * two, rel=0.01)
