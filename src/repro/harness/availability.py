"""Chaos experiment: kill a shard mid-workload, measure the damage.

The scaling harnesses ask "how fast is the cluster"; this one asks
"what happens when a shard dies under load".  The run drives the
memaslap mix against a :class:`~repro.cluster.target.ClusterTarget` in
fixed-size windows, crashes one of N shards at a scripted window
(:class:`~repro.netsim.faults.FaultPlan` — the plan vocabulary of
``with_faults``), lets the miss-count failure detector evict and
fail it over, and optionally rejoins it later.  Measured per run:

* per-window effective throughput — the dip while the detector is
  still counting misses, the recovery level once the ring heals, and
  the recovery time in windows;
* acknowledged-write survival — every SET the cluster acknowledged
  must still read back correctly at the end (the
  :class:`~repro.cluster.replication.PrimaryReplica` promise);
* lost and duplicated replies (timed-out requests are retried in the
  next window; the dedup check proves retries never double-ack).

Everything is seeded, so a run is exactly reproducible — the
benchmark asserts determinism by running twice and comparing.
"""

from repro.cluster import PrimaryReplica, memcached_is_write
from repro.cluster.balancer import memcached_key
from repro.cluster.target import REQUEST_TIMEOUT_NS
from repro.core.protocols.memcached import (
    build_ascii_get, build_udp_frame_header, split_udp_frame,
)
from repro.core.protocols.udp import UDPWrapper
from repro.core.protocols.udp import build_udp
from repro.deploy import deploy
from repro.harness.multicore import memaslap_frames, memaslap_rw_pair
from repro.harness.report import render_table
from repro.net.packet import Frame
from repro.netsim.faults import FaultPlan
from repro.services.catalog import CLIENT_IP, SERVICE_IP

DEFAULT_MACS = (0x02_00_00_00_00_01, 0x02_00_00_00_00_AA)


def _get_frame(key):
    """A standalone ASCII GET for the post-run read-back audit."""
    dst_mac, src_mac = DEFAULT_MACS
    payload = build_udp_frame_header(0) + build_ascii_get(key)
    return Frame(build_udp(dst_mac, src_mac, CLIENT_IP, SERVICE_IP,
                           40000, 11211, payload)).pad()


class AvailabilityReport:
    """What one chaos run measured."""

    def __init__(self, num_shards, kill_window, restore_window):
        self.num_shards = num_shards
        self.kill_window = kill_window
        self.restore_window = restore_window
        self.window_qps = []           # effective Mq/s per window
        self.window_failures = []      # timed-out attempts per window
        self.prefault_qps = 0.0
        self.min_qps = 0.0
        self.recovered_qps = 0.0
        self.recovery_windows = None   # windows from kill to recovery
        self.acked_writes = 0
        self.lost_acked = 0
        self.duplicate_replies = 0
        self.failed_requests = 0
        self.failovers = 0
        self.handoff_replays = 0
        self.rejoin_remap = None       # RemapStats, if restored
        self.text = ""

    @property
    def recovery_ratio(self):
        """Post-failover steady throughput over pre-fault throughput."""
        if self.prefault_qps <= 0:
            return 0.0
        return self.recovered_qps / self.prefault_qps

    def fingerprint(self):
        """Everything a deterministic rerun must reproduce exactly."""
        return (tuple(self.window_qps), tuple(self.window_failures),
                self.acked_writes, self.lost_acked,
                self.duplicate_replies, self.failed_requests,
                self.failovers, self.handoff_replays)


def _request_id(frame):
    """The memcached-over-UDP request id (unique per workload frame,
    preserved across retries — the duplicate-ack detector's identity)."""
    return split_udp_frame(UDPWrapper(frame.data).payload())[0]


def run_availability(num_shards=8, windows=12, per_window=256,
                     kill_window=3, restore_window=8, victim=None,
                     write_ratio=0.1, policy_factory=None, seed=29,
                     suspect_after=3, flush_every=2):
    """One seeded chaos run; returns an :class:`AvailabilityReport`.

    Window *kill_window* starts with one shard crashed (no drain); the
    failure detector evicts it after ``suspect_after`` timed-out
    requests and the cluster fails over.  Window *restore_window*
    (``None`` to skip) rejoins the repaired shard.  Requests that
    timed out are retried in the following window.

    Async replica applies flush every *flush_every* windows, so a kill
    that lands between flushes leaves acknowledged writes whose only
    replica copy is still queued — the hinted-handoff replay path is
    what keeps those alive through the failover.
    """
    if not 0 < kill_window < windows:
        raise ValueError("kill_window must fall inside the run")
    if flush_every < 1:
        raise ValueError("flush_every must be >= 1")
    if policy_factory is None:
        policy_factory = lambda: PrimaryReplica(1)   # noqa: E731

    deployment = deploy("memcached") \
        .on("cluster", shards=num_shards, policy=policy_factory(),
            is_write=memcached_is_write, suspect_after=suspect_after) \
        .with_seed(seed).start()
    cluster = deployment.target
    if victim is None:
        victim = cluster.shard_ids[num_shards // 2]

    rejoin_stats = []

    def record_rejoin(target):
        rejoin_stats.append(target.restore_shard(victim))

    plan = FaultPlan().kill_shard(kill_window, victim)
    if restore_window is not None:
        if not kill_window < restore_window < windows:
            raise ValueError("restore_window must follow kill_window")
        # restore via a closure so the rejoin's remap statistics land
        # in the report rather than being discarded.
        plan.at(restore_window, record_rejoin, "restore %s" % victim)
    injector = deployment.inject_faults(plan)

    # Per-request service time of one shard on this mix (the window
    # clock: shards run in parallel, so a window takes as long as its
    # busiest shard, plus any client-side timeouts, which serialize).
    read_frame, write_frame = memaslap_rw_pair(seed)
    probe = next(iter(cluster.shards.values()))
    service_ns = (
        (1.0 - write_ratio) * 1e9 / probe.max_qps(read_frame.copy()) +
        write_ratio * 1e9 / probe.max_qps(write_frame.copy()))

    workload = memaslap_frames(1.0 - write_ratio,
                               count=windows * per_window,
                               seed=seed + 2)
    report = AvailabilityReport(num_shards, kill_window, restore_window)
    acked_keys = set()          # keys with at least one acked SET
    ack_counts = {}             # request id -> times acknowledged
    retry_queue = []

    for window in range(windows):
        injector.advance_to(window)
        start = window * per_window
        frames = retry_queue + \
            [frame.copy()
             for frame in workload[start:start + per_window]]
        retry_queue = []
        loads_before = dict(cluster.shard_loads)
        failures_before = cluster.failed_requests

        for frame in frames:
            emitted = cluster.send(frame)[0]
            if emitted:
                request = _request_id(frame)
                ack_counts[request] = ack_counts.get(request, 0) + 1
                if memcached_is_write(frame):
                    acked_keys.add(memcached_key(frame.data))
            else:
                # Timed out on a dead shard: retry next window.
                retry_queue.append(frame.copy())
        if (window + 1) % flush_every == 0:
            cluster.flush_replication()

        failures = cluster.failed_requests - failures_before
        busiest = max((cluster.shard_loads.get(shard, 0) -
                       loads_before.get(shard, 0))
                      for shard in cluster.shard_loads)
        window_ns = busiest * service_ns + failures * REQUEST_TIMEOUT_NS
        served = len(frames) - failures
        report.window_qps.append(
            served * 1e9 / window_ns if window_ns > 0 else 0.0)
        report.window_failures.append(failures)

    # -- post-run audit ------------------------------------------------------
    report.acked_writes = len(acked_keys)
    for key in sorted(acked_keys):
        emitted = cluster.send(_get_frame(key))[0]
        reply = bytes(emitted[0][1].data) if emitted else b""
        if b"VALUE " + key not in reply:
            report.lost_acked += 1
    # A request retried after it was in fact acknowledged would ack
    # twice under its request id; the fail-fast timeout model never
    # does that, and the count proves it.
    report.duplicate_replies = sum(count - 1
                                   for count in ack_counts.values()
                                   if count > 1)

    pre = report.window_qps[:kill_window]
    report.prefault_qps = sum(pre) / len(pre)
    report.min_qps = min(report.window_qps)
    recovery_span = report.window_qps[kill_window:restore_window]
    report.recovered_qps = recovery_span[-1] if recovery_span else 0.0
    floor = 0.75 * report.prefault_qps
    for offset, qps in enumerate(report.window_qps[kill_window:]):
        if qps >= floor:
            report.recovery_windows = offset
            break
    report.failed_requests = cluster.failed_requests
    report.failovers = cluster.failovers
    report.handoff_replays = cluster.handoff_replays
    report.rejoin_remap = rejoin_stats[0] if rejoin_stats else None

    rows = []
    for window, qps in enumerate(report.window_qps):
        note = ""
        if window == kill_window:
            note = "kill %s" % victim
        elif restore_window is not None and window == restore_window:
            note = "restore %s" % victim
        rows.append(["%d" % window, "%.3f" % (qps / 1e6),
                     "%d" % report.window_failures[window], note])
    report.text = deployment.describe() + "\n\n" + render_table(
        ["Window", "Throughput (Mq/s)", "Timeouts", "Event"], rows,
        title="Chaos run: %d shards, kill@%d%s, seed %d" % (
            num_shards, kill_window,
            "" if restore_window is None
            else ", restore@%d" % restore_window, seed))
    return report
