"""Memcached scaled out: 8 sharded Emu devices behind a hash ring.

Three views of the same cluster layer:

1. the scale-out throughput table (cluster deployment, batched
   dispatch);
2. rebalance cost when a shard leaves (consistent hashing at work);
3. a functional spot check through the full deployment API.

Run:  python examples/cluster_memcached.py
"""

from repro.deploy import deploy
from repro.harness.cluster_scaling import (
    run_cluster_scaling, run_rebalance_cost,
)
from repro.net.packet import ip_to_int
from repro.net.workloads import memaslap_mix

IP_SVC = ip_to_int("10.0.0.1")
IP_CLI = ip_to_int("10.0.0.2")
COUNT = 4000


def main():
    # 1. Scale-out throughput on the memaslap 90/10 mix.
    _, results, text = run_cluster_scaling((1, 2, 4, 8), 0.1)
    print(text)
    _, speedup, imbalance = results[8]
    print("8 shards: %.2fx one device, ring imbalance %.2f\n"
          % (speedup, imbalance))

    # 2. Rebalance: one of eight shards drains out.
    stats = run_rebalance_cost(8)
    print("removing 1 of 8 shards remapped %d/%d keys (%.1f%%; "
          "naive mod-N hashing would remap ~87%%)\n"
          % (stats.moved, stats.total, 100 * stats.fraction))

    # 3. Functional spot check through the full deployment API.
    dep = deploy("memcached").on("cluster", shards=8).with_seed(1) \
        .start()
    dep.send_batch(memaslap_mix(IP_SVC, IP_CLI, count=COUNT))
    print("\n" + repr(dep))
    target = dep.target
    hits = sum(s.service.hits for s in target.shards.values())
    misses = sum(s.service.misses for s in target.shards.values())
    snapshot = dep.stats()
    print("cluster deployment: %d requests, %d batches, hit rate "
          "%.0f%%, load imbalance %.2f"
          % (snapshot["requests"], snapshot["batches"],
             100.0 * hits / max(1, hits + misses),
             snapshot["load_imbalance"]))


if __name__ == "__main__":
    main()
