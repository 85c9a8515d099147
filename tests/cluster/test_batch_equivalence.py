"""``send_batch`` must be observationally equal to sequential ``send``.

Batching reorders dispatch by shard for speed, but replies, routing
counters, replication, and — since the fault layer — failure-detector
behaviour must match the sequential path exactly, *including when a
shard dies mid-batch* and the detector evicts it partway through.
"""

from repro.cluster import (
    ClusterTarget, NoReplication, PrimaryReplica, ReadOneWriteAll,
    memcached_is_write,
)
from repro.harness.multicore import memaslap_frames
from repro.harness.table4 import SERVICE_IP
from repro.services import MemcachedService

SEED = 41


def factory():
    return MemcachedService(my_ip=SERVICE_IP)


def build_pair(policy_factory=NoReplication, num_shards=8, count=2):
    """Identically-seeded clusters: one per dispatch style."""
    return [ClusterTarget(factory, num_shards=num_shards,
                          policy=policy_factory(),
                          is_write=memcached_is_write, seed=SEED)
            for _ in range(count)]


def results_fingerprint(results):
    """Outcomes as comparable data: (ports, bytes) then latency, core
    cycles and service time per frame."""
    return [(tuple((port, bytes(frame.data)) for port, frame in emitted),
             latency, cycles, service_ns)
            for emitted, latency, cycles, service_ns in results]


def reply_data_fingerprint(results):
    """Reply bytes only — the equivalence that survives failover.

    After a mid-batch eviction the re-routed frames reach their
    promoted owner in a different interleaving than sequential
    dispatch, which advances the per-shard arbiter-jitter RNG in a
    different order; reply *data* is unaffected (re-homed keys are
    disjoint from the owner's native keys), but per-request latency
    jitter is not comparable."""
    return [frames for frames, *_ in results_fingerprint(results)]


def state_fingerprint(cluster):
    return {
        "requests": cluster.requests,
        "writes": cluster.writes,
        "replica_applies": cluster.replica_applies,
        "loads": dict(cluster.shard_loads),
        "pending": cluster.pending_replication,
        "failed": cluster.failed_requests,
        "failovers": cluster.failovers,
        "ring": cluster.ring.shards,
        "stores": {shard_id: dict(node.service._store)
                   for shard_id, node in sorted(cluster.shards.items())},
    }


def run_both(sequential, batched, frames):
    seq_results = [sequential.send(frame.copy()) for frame in frames]
    batch_results = batched.send_batch([frame.copy() for frame in frames])
    return seq_results, batch_results


def run_ragged(cluster, frames, bursts):
    """A third cut of the same stream: ragged ``send_batch`` bursts."""
    return [outcome
            for burst in bursts(frames, [5, 1, 17, 2, 64, 1, 1, 9])
            for outcome in cluster.send_batch(
                [frame.copy() for frame in burst])]


class TestEquivalence:
    def test_fault_free(self, bursts):
        sequential, batched, ragged = build_pair(count=3)
        frames = memaslap_frames(0.9, count=400, seed=SEED + 1)
        seq, batch = run_both(sequential, batched, frames)
        assert results_fingerprint(seq) == results_fingerprint(batch) \
            == results_fingerprint(run_ragged(ragged, frames, bursts))
        assert state_fingerprint(sequential) == \
            state_fingerprint(batched) == state_fingerprint(ragged)

    def test_with_synchronous_replication(self, bursts):
        sequential, batched, ragged = build_pair(ReadOneWriteAll, count=3)
        frames = memaslap_frames(0.7, count=300, seed=SEED + 2)
        seq, batch = run_both(sequential, batched, frames)
        assert results_fingerprint(seq) == results_fingerprint(batch) \
            == results_fingerprint(run_ragged(ragged, frames, bursts))
        assert state_fingerprint(sequential) == \
            state_fingerprint(batched) == state_fingerprint(ragged)

    def test_with_async_replication(self, bursts):
        sequential, batched, ragged = build_pair(
            lambda: PrimaryReplica(2), count=3)
        frames = memaslap_frames(0.7, count=300, seed=SEED + 3)
        seq, batch = run_both(sequential, batched, frames)
        assert results_fingerprint(seq) == results_fingerprint(batch) \
            == results_fingerprint(run_ragged(ragged, frames, bursts))
        assert state_fingerprint(sequential) == \
            state_fingerprint(batched) == state_fingerprint(ragged)
        assert sequential.flush_replication() == \
            batched.flush_replication() == ragged.flush_replication()
        assert state_fingerprint(sequential) == \
            state_fingerprint(batched) == state_fingerprint(ragged)

    def test_mid_batch_shard_death(self):
        """A shard crashed before dispatch dies *mid-batch* from the
        batch's perspective: the detector's misses, the eviction, and
        the re-routing of the rest of that shard's group must replay
        the sequential behaviour exactly."""
        sequential, batched = build_pair(lambda: PrimaryReplica(1))
        warmup = memaslap_frames(0.5, count=200, seed=SEED + 4)
        run_both(sequential, batched, warmup)

        victim = sequential.shard_ids[3]
        sequential.kill_shard(victim)
        batched.kill_shard(victim)

        frames = memaslap_frames(0.9, count=400, seed=SEED + 5)
        seq, batch = run_both(sequential, batched, frames)
        # Both paths failed the same requests, failed over once, and
        # produced identical replies for everything that succeeded.
        assert sequential.failovers == batched.failovers == 1
        assert victim not in sequential.shards
        assert victim not in batched.shards
        assert reply_data_fingerprint(seq) == reply_data_fingerprint(batch)
        assert state_fingerprint(sequential) == state_fingerprint(batched)

    def test_mid_batch_death_touches_only_the_victims_group(self):
        """Consistent hashing scoped the disruption: every frame not
        owned by the dead shard is answered identically to a run with
        no fault at all."""
        healthy, _ = build_pair(NoReplication)
        faulty, _ = build_pair(NoReplication)
        frames = memaslap_frames(1.0, count=300, seed=SEED + 6)

        owners = [healthy._owner(frame) for frame in frames]
        victim = healthy.shard_ids[1]
        faulty.kill_shard(victim)

        healthy_results = healthy.send_batch(
            [frame.copy() for frame in frames])
        faulty_results = faulty.send_batch(
            [frame.copy() for frame in frames])
        for owner, ok, hurt in zip(owners, healthy_results,
                                   faulty_results):
            if owner != victim:
                assert reply_data_fingerprint([ok]) == \
                    reply_data_fingerprint([hurt])
