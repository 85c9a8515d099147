"""Failure detection and self-healing, from detector to full fabric."""

import pytest

from repro.cluster import (
    ClusterTarget, MissCountDetector, PhiAccrualDetector, PrimaryReplica,
    ShardBalancerService, build_star, memcached_is_write,
)
from repro.cluster.balancer import memcached_key
from repro.cluster.target import REQUEST_TIMEOUT_NS
from repro.core.dataplane import NetFPGAData
from repro.core.protocols.memcached import (
    build_ascii_get, build_udp_frame_header,
)
from repro.core.protocols.udp import build_udp
from repro.errors import ClusterError
from repro.harness.multicore import memaslap_frames
from repro.harness.table4 import CLIENT_IP, SERVICE_IP
from repro.net.packet import Frame, ip_to_int
from repro.net.workloads import memaslap_mix
from repro.netsim import FaultInjector, FaultPlan
from repro.services import MemcachedService

MACS = (0x02_00_00_00_00_01, 0x02_00_00_00_00_AA)


def factory():
    return MemcachedService(my_ip=SERVICE_IP)


def get_frame(key):
    payload = build_udp_frame_header(0) + build_ascii_get(key)
    return Frame(build_udp(MACS[0], MACS[1], CLIENT_IP, SERVICE_IP,
                           40000, 11211, payload)).pad()


class TestPhiAccrualDetector:
    def test_no_heartbeats_means_no_suspicion(self):
        detector = PhiAccrualDetector()
        assert detector.phi(10**12) == 0.0
        assert not detector.is_suspect(10**12)

    def test_phi_grows_with_silence(self):
        detector = PhiAccrualDetector()
        for tick in range(10):
            detector.heartbeat(tick * 1000)
        assert detector.phi(9000) == 0.0
        assert detector.phi(10_000) < detector.phi(50_000) \
            < detector.phi(500_000)

    def test_suspect_after_long_silence_only(self):
        detector = PhiAccrualDetector(threshold=8.0)
        for tick in range(20):
            detector.heartbeat(tick * 1000)
        assert not detector.is_suspect(22_000)      # a couple of gaps
        assert detector.is_suspect(19_000 + 40_000)  # ~40 intervals

    def test_chatty_peers_are_suspected_sooner(self):
        """The same absolute silence is damning for a 1 µs-interval
        peer and unremarkable for a 1 ms-interval one."""
        fast, slow = PhiAccrualDetector(), PhiAccrualDetector()
        for tick in range(20):
            fast.heartbeat(tick * 1_000)
            slow.heartbeat(tick * 1_000_000)
        silence = 100_000
        assert fast.phi(fast.last_heartbeat_ns + silence) > \
            slow.phi(slow.last_heartbeat_ns + silence)

    def test_single_heartbeat_peer_is_still_suspectable(self):
        """A shard that spoke exactly once and died must not be
        immortal: with no interval history the detector bootstraps
        from an assumed mean instead of pinning phi to 0."""
        detector = PhiAccrualDetector(threshold=8.0,
                                      bootstrap_interval_ns=1000.0)
        detector.heartbeat(0)
        assert not detector.is_suspect(2000)
        assert detector.is_suspect(100_000)

    def test_reset_forgets_history(self):
        detector = PhiAccrualDetector()
        for tick in range(5):
            detector.heartbeat(tick * 1000)
        detector.reset()
        assert not detector.heartbeats_seen
        assert detector.phi(10**9) == 0.0

    def test_validation(self):
        with pytest.raises(ClusterError):
            PhiAccrualDetector(threshold=0)
        with pytest.raises(ClusterError):
            PhiAccrualDetector(window=0)


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


class TestBalancerHealth:
    def build(self, num_shards=4, phi_threshold=4.0):
        balancer = ShardBalancerService(
            {"shard%d" % index: 1 + index
             for index in range(num_shards)},
            uplink_port=0, phi_threshold=phi_threshold)
        now = [0]
        balancer.clock = lambda: now[0]
        return balancer, now

    def heartbeat_all(self, balancer, now, shards, times=10,
                      interval=1000):
        frame = Frame(b"reply")
        for _ in range(times):
            now[0] += interval
            for shard in shards:
                data = NetFPGAData(frame.copy())
                data.src_port = balancer.shard_ports[shard]
                balancer.process(data)

    def test_replies_feed_heartbeats(self):
        balancer, now = self.build()
        self.heartbeat_all(balancer, now, ["shard0"])
        assert balancer.health["shard0"].heartbeats_seen
        assert not balancer.health["shard1"].heartbeats_seen

    def test_silent_shard_evicted_while_others_talk(self):
        balancer, now = self.build()
        shards = list(balancer.shard_ports)
        self.heartbeat_all(balancer, now, shards)
        # shard2 goes silent; the rest keep talking.
        talking = [shard for shard in shards if shard != "shard2"]
        self.heartbeat_all(balancer, now, talking, times=40)
        assert balancer.check_health() == ["shard2"]
        assert balancer.down == {"shard2"}
        assert "shard2" not in balancer.ring.shards
        assert balancer.evictions == 1

    def test_idle_cluster_evicts_nobody(self):
        """All-quiet is idle, not dead: reply-driven heartbeats stop
        when the workload drains, and that must not trigger a purge."""
        balancer, now = self.build()
        self.heartbeat_all(balancer, now, list(balancer.shard_ports))
        now[0] += 10**9                 # a full second of silence
        assert balancer.check_health() == []
        assert balancer.down == set()

    def test_mark_up_readmits_and_forgets(self):
        balancer, now = self.build()
        shards = list(balancer.shard_ports)
        self.heartbeat_all(balancer, now, shards)
        self.heartbeat_all(balancer, now,
                           [shard for shard in shards
                            if shard != "shard1"], times=40)
        balancer.check_health()
        assert balancer.down == {"shard1"}
        balancer.mark_up("shard1")
        assert balancer.down == set()
        assert "shard1" in balancer.ring.shards
        assert balancer.restores == 1
        # Stale silence must not instantly re-evict.
        assert balancer.check_health() == []

    def test_never_evicts_the_last_shard(self):
        balancer, now = self.build(num_shards=2)
        shards = list(balancer.shard_ports)
        self.heartbeat_all(balancer, now, shards)
        now_talking = []                # everyone dies at once...
        self.heartbeat_all(balancer, now, now_talking, times=1)
        now[0] += 10**6
        balancer.health[shards[0]].heartbeat(now[0])   # ...except one
        evicted = balancer.check_health()
        assert evicted == [shards[1]]
        with pytest.raises(ClusterError):
            balancer.mark_down(shards[0])

    def test_routing_avoids_downed_shards(self):
        balancer, now = self.build()
        balancer.mark_down("shard0")
        for frame in memaslap_mix(SERVICE_IP, CLIENT_IP, count=200,
                                  seed=3):
            balancer.process(NetFPGAData(frame))
        assert balancer.dispatched["shard0"] == 0
        assert sum(balancer.dispatched.values()) == 200


class TestNetsimSelfHealing:
    def test_kill_evict_restore_on_the_fabric(self):
        ip_svc = ip_to_int("10.0.0.1")
        ip_cli = ip_to_int("10.0.0.2")
        cluster = build_star(
            lambda: MemcachedService(my_ip=ip_svc),
            num_shards=4, phi_threshold=4.0)
        cluster.enable_health_checks(every_ns=20_000,
                                     until_ns=6_000_000)
        handled_at_restore = []
        plan = (FaultPlan()
                .kill_shard(1_500_000, "shard2")
                .restore_shard(4_000_000, "shard2")
                .at(4_000_001,
                    lambda target: handled_at_restore.append(
                        target.shards["shard2"].frames_handled),
                    "checkpoint"))
        FaultInjector(plan, cluster).arm(cluster.net.loop)

        frames = list(memaslap_mix(ip_svc, ip_cli, count=1500, seed=3))
        replies = cluster.run_paced(frames, gap_ns=3000)
        balancer = cluster.balancer

        assert balancer.evictions == 1
        assert balancer.restores == 1
        assert balancer.down == set()
        # Only the detection window's requests were lost.
        assert len(replies) >= 0.95 * len(frames)
        assert cluster.shard_links["shard2"].frames_lost > 0
        # The victim served again after its restore.
        assert cluster.shards["shard2"].frames_handled > \
            handled_at_restore[0]

    def test_partition_heal_readmits_an_evicted_member(self):
        """heal() must undo a health eviction, not just raise the
        link: an evicted member gets no traffic, so it cannot
        heartbeat its own way back into the ring."""
        ip_svc = ip_to_int("10.0.0.1")
        ip_cli = ip_to_int("10.0.0.2")
        cluster = build_star(
            lambda: MemcachedService(my_ip=ip_svc),
            num_shards=4, phi_threshold=4.0)
        cluster.enable_health_checks(every_ns=20_000,
                                     until_ns=6_000_000)
        plan = (FaultPlan()
                .partition(1_500_000, "shard2")
                .heal(4_000_000, "shard2"))
        FaultInjector(plan, cluster).arm(cluster.net.loop)
        frames = list(memaslap_mix(ip_svc, ip_cli, count=1500, seed=3))
        cluster.run_paced(frames, gap_ns=3000)
        balancer = cluster.balancer
        assert balancer.evictions == 1
        assert balancer.restores == 1
        assert balancer.down == set()
        assert "shard2" in balancer.ring.shards

    def test_without_health_checks_the_dead_shard_eats_its_keys(self):
        """The control run: no detector, no healing — every request
        for the dead shard's keys is lost for the rest of the run."""
        ip_svc = ip_to_int("10.0.0.1")
        ip_cli = ip_to_int("10.0.0.2")
        cluster = build_star(
            lambda: MemcachedService(my_ip=ip_svc), num_shards=4)
        plan = FaultPlan().kill_shard(1_500_000, "shard2")
        FaultInjector(plan, cluster).arm(cluster.net.loop)
        frames = list(memaslap_mix(ip_svc, ip_cli, count=1200, seed=3))
        replies = cluster.run_paced(frames, gap_ns=3000)
        lost = len(frames) - len(replies)
        assert lost > 0.1 * len(frames)
        assert cluster.balancer.evictions == 0
