"""Chaos-testing the memcached cluster: kill a shard, watch it heal.

A cluster deployment (`deploy("memcached").on("cluster", shards=8)
.with_faults(plan)`) under the memaslap mix loses one of 8 shards
mid-workload; the miss-count detector evicts it, replicas are
promoted, queued writes replay (hinted handoff), and the shard later
rejoins with a bounded key remap — the run's report opens with the
deployment's own describe() table.

Run:  python examples/chaos_memcached.py
"""

from repro.harness.availability import run_availability


def main():
    # Device-level chaos run (deterministic, seeded).
    report = run_availability()
    print(report.text)
    print("pre-fault %.2f Mq/s, dip to %.2f, recovered to %.2f "
          "(%.0f%% of pre-fault) in %d window(s)"
          % (report.prefault_qps / 1e6, report.min_qps / 1e6,
             report.recovered_qps / 1e6, 100 * report.recovery_ratio,
             report.recovery_windows))
    print("acked writes %d, lost %d, duplicated %d; hinted handoff "
          "replayed %d queued write(s); rejoin remapped %s\n"
          % (report.acked_writes, report.lost_acked,
             report.duplicate_replies, report.handoff_replays,
             report.rejoin_remap))


if __name__ == "__main__":
    main()
