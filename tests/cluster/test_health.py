"""Failure detection and self-healing, from detector to cluster."""

import pytest

from repro.cluster import (
    ClusterTarget, MissCountDetector, PrimaryReplica, memcached_is_write,
)
from repro.cluster.balancer import memcached_key
from repro.cluster.target import REQUEST_TIMEOUT_NS
from repro.core.protocols.memcached import (
    build_ascii_get, build_udp_frame_header,
)
from repro.core.protocols.udp import build_udp
from repro.errors import ClusterError
from repro.harness.multicore import memaslap_frames
from repro.harness.table4 import CLIENT_IP, SERVICE_IP
from repro.net.packet import Frame
from repro.services import MemcachedService

MACS = (0x02_00_00_00_00_01, 0x02_00_00_00_00_AA)


def factory():
    return MemcachedService(my_ip=SERVICE_IP)


def get_frame(key):
    payload = build_udp_frame_header(0) + build_ascii_get(key)
    return Frame(build_udp(MACS[0], MACS[1], CLIENT_IP, SERVICE_IP,
                           40000, 11211, payload)).pad()


class TestMissCountDetector:
    def test_trips_after_k_consecutive_misses(self):
        detector = MissCountDetector(suspect_after=3)
        assert not detector.record_miss()
        assert not detector.record_miss()
        assert detector.record_miss()
        assert detector.is_suspect()

    def test_a_success_wipes_the_streak(self):
        detector = MissCountDetector(suspect_after=2)
        detector.record_miss()
        detector.record_ok()
        assert not detector.record_miss()
        assert detector.record_miss()

    def test_validation(self):
        with pytest.raises(ClusterError):
            MissCountDetector(suspect_after=0)


class TestClusterTargetFailover:
    def make(self, **kwargs):
        kwargs.setdefault("num_shards", 8)
        kwargs.setdefault("policy", PrimaryReplica(1))
        return ClusterTarget(factory, is_write=memcached_is_write,
                             seed=23, **kwargs)

    def seeded(self, cluster, count=300, seed=5):
        """Drive a write-heavy mix; returns the acked keys."""
        acked = set()
        for frame in memaslap_frames(0.5, count=count, seed=seed):
            emitted = cluster.send(frame.copy())[0]
            if emitted and memcached_is_write(frame):
                acked.add(memcached_key(frame.data))
        return acked

    def drive_eviction(self, cluster, seed=9):
        """Send until the detector evicts; returns the outcomes."""
        outcomes = []
        for frame in memaslap_frames(0.9, count=200, seed=seed):
            outcomes.append(cluster.send(frame.copy()))
            if cluster.failovers:
                break
        return outcomes

    def test_killed_shard_times_out_then_gets_evicted(self):
        cluster = self.make(suspect_after=3)
        self.seeded(cluster)
        victim = cluster.shard_ids[2]
        cluster.kill_shard(victim)
        assert victim not in cluster.live_shards
        outcomes = self.drive_eviction(cluster)
        assert cluster.failovers == 1
        assert cluster.failed_requests == 3       # exactly the misses
        # A timed-out request: no reply, no latency, no core ran, and
        # the client held the dead shard's queue for its whole timeout.
        assert [outcome for outcome in outcomes if not outcome[0]] == \
            [([], None, None, REQUEST_TIMEOUT_NS)] * 3
        assert all(cycles > 0 and service_ns < REQUEST_TIMEOUT_NS
                   for emitted, _, cycles, service_ns in outcomes
                   if emitted)
        assert victim not in cluster.shards
        assert victim not in cluster.ring.shards
        assert victim in cluster.failed_shards

    def test_no_acked_write_lost_through_failover(self):
        """The acceptance property, key by key: flushed replica copies
        are promoted and unflushed ones replay via hinted handoff."""
        cluster = self.make()
        acked = self.seeded(cluster)
        assert cluster.pending_replication > 0    # unflushed hints exist
        victim = cluster.shard_ids[3]
        cluster.kill_shard(victim)
        self.drive_eviction(cluster)
        assert cluster.failovers == 1
        for key in acked:
            emitted = cluster.send(get_frame(key))[0]
            assert emitted and b"VALUE " + key in bytes(
                emitted[0][1].data), "acked write lost: %r" % key

    def test_restore_rejoins_warm_with_bounded_remap(self):
        cluster = self.make()
        acked = self.seeded(cluster)
        victim = cluster.shard_ids[3]
        cluster.kill_shard(victim)
        self.drive_eviction(cluster)
        stats = cluster.restore_shard(victim)
        assert victim in cluster.shards
        assert victim in cluster.ring.shards
        assert cluster.rejoins == 1
        assert 0.0 < stats.fraction < 0.35        # ~1/N, not a reshuffle
        for key in acked:
            emitted = cluster.send(get_frame(key))[0]
            assert emitted and b"VALUE " + key in bytes(
                emitted[0][1].data)

    def test_kill_without_eviction_restores_in_place(self):
        cluster = self.make()
        victim = cluster.shard_ids[0]
        cluster.kill_shard(victim)
        assert cluster.restore_shard(victim) is None
        assert victim in cluster.live_shards
        assert cluster.failovers == 0

    def test_guards(self):
        cluster = self.make(num_shards=2)
        cluster.kill_shard(cluster.shard_ids[0])
        with pytest.raises(ClusterError):
            cluster.kill_shard(cluster.shard_ids[1])   # last live shard
        with pytest.raises(ClusterError):
            cluster.remove_shard(cluster.shard_ids[0])  # crashed: no drain
        with pytest.raises(ClusterError):
            cluster.restore_shard("nonesuch")
