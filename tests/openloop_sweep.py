"""The open-loop byte-identity sweep (tests only — nothing in ``src/``
imports this).

"Same seed ⇒ same bytes" is asserted all over the suite between two
runs of *one* commit; this module is the cross-commit form.  It names
90 open-loop cases — service × backend × load × observability ×
cluster fault plan × replication policy — and reduces everything a
case's run can show (report snapshot, every latency, per-server queue
statistics, trace JSON, time-series TSV, alert-log JSON) to sha256
digests, so a change to the scheduler or to ``run_open_loop`` can be
held to the bytes of the commit before it:

    PYTHONPATH=<parent>/src python tests/openloop_sweep.py > parent.json
    PYTHONPATH=src          python tests/openloop_sweep.py > change.json
    python tests/openloop_sweep.py --compare parent.json change.json

``tests/engine/test_openloop.py`` pins :data:`PINNED`, a subset whose
digests were recorded on the commit before the open loop became plain
scheduler events.
"""

import collections
import hashlib
import json
import sys

Case = collections.namedtuple(
    "Case", "service backend scale qps obs faults policy")

#: (service, backend, scale) — every service that has a cycle model or
#: a ring, every backend.
PAIRS = [
    ("memcached", "cpu", {}),
    ("memcached", "fpga", {}),
    ("memcached", "multicore", {"cores": 4}),
    ("memcached", "cluster", {"shards": 4}),
    ("memcached", "netsim", {}),
    ("dns", "fpga", {}),
    ("dns", "cluster", {"shards": 4}),
    ("icmp", "multicore", {"cores": 4}),
    ("nat", "fpga", {}),
]
#: Offered load: light, near one engine's capacity, overloaded into
#: tail-drops (the ingest capacity is :data:`CAPACITY` everywhere).
LOADS = {"0.5M": 500_000.0, "3M": 3_000_000.0, "12M": 12_000_000.0}
CAPACITY = 16
DURATION_MS = 0.2
WINDOW_US = 20.0
SEED = 7
#: Replication policies swept on the memcached cluster only (the other
#: services do not write); ``None`` is the backend's default.
POLICIES = (None, "primary+1", "write-all")
#: The artefacts of one run, in digest order.
PARTS = ("snapshot", "latencies_ns", "servers", "trace", "series",
         "alerts")


def _cases():
    out = {}
    for service, backend, scale in PAIRS:
        variants = [(False, None)]
        if backend == "cluster":
            policies = POLICIES if service == "memcached" else (None,)
            variants = [(faults, policy) for faults in (False, True)
                        for policy in policies]
        for faults, policy in variants:
            for load, qps in LOADS.items():
                for obs in (False, True):
                    name = "-".join(
                        [service, backend, load]
                        + ([policy] if policy else [])
                        + (["faults"] if faults else [])
                        + (["obs"] if obs else []))
                    out[name] = Case(service, backend, scale, qps, obs,
                                     faults, policy)
    return out


#: ``{name: Case}`` — 90 of them.
CASES = _cases()


def run_case(name):
    """Run one case; returns ``(artefacts, deployment)`` — the
    deployment is stopped, its tracer still readable."""
    # Imported here so that --compare runs without a PYTHONPATH.
    from repro.cluster import PrimaryReplica, ReadOneWriteAll
    from repro.deploy import deploy
    from repro.netsim.faults import FaultPlan
    from repro.obs import SloSpec
    case = CASES[name]
    obs = case.obs
    scale = dict(case.scale)
    if case.policy is not None:
        scale["policy"] = (PrimaryReplica(1) if case.policy == "primary+1"
                           else ReadOneWriteAll())
    dep = (deploy(case.service).on(case.backend, **scale)
           .with_seed(SEED)
           .with_arrivals("poisson", qps=case.qps, capacity=CAPACITY))
    if case.faults:
        dep.with_faults(FaultPlan().kill_shard(20_000, "shard1")
                        .restore_shard(185_000, "shard1"))
    if obs:
        slo = (SloSpec("sweep", window_us=WINDOW_US).availability(0.99)
               .latency_p99(5.0).rule("ticket", 2.0, 2, 3)
               .rule("page", 4.0, 3, 5))
        dep.with_trace().with_timeseries(window_us=WINDOW_US) \
            .with_slo(slo)
    dep.start()
    report = dep.run_open_loop(duration_ms=DURATION_MS)
    snapshot = report.snapshot()
    # sum() over floats is compensated from Python 3.12 on, so the
    # mean's last digit depends on the interpreter; every term of it
    # is in latencies_ns.
    del snapshot["avg_latency_us"]
    artefacts = {
        "snapshot": json.dumps(snapshot, sort_keys=True),
        "latencies_ns": repr(report.latencies_ns),
        "servers": repr([(server.arrivals, server.depth_samples,
                          server.max_depth, server.busy_ns)
                         for server in report.servers]),
        "trace": dep.tracer.to_json() if obs else "",
        "series": dep.timeseries.to_tsv() if obs else "",
        "alerts": dep.alert_log.to_json() if obs else "",
    }
    dep.stop()
    return artefacts, dep


def digest(artefacts):
    """One sha256 over every part, in :data:`PARTS` order."""
    sha = hashlib.sha256()
    for part in PARTS:
        sha.update(artefacts[part].encode())
        sha.update(b"\0")
    return sha.hexdigest()


#: Digests recorded on the parent of the PR that rewrote
#: ``run_open_loop`` as arrival/start/finish events (commit 1e5bdf8):
#: every backend, a fault plan, both replicating policies,
#: observability on and off, the 12M-qps overload.
PINNED = {
    "memcached-cpu-3M-obs":
        "b655cb60a902742fceeee44b68aaf8002804c09669f2315dbf62a1f6f100d6d9",
    "memcached-fpga-3M":
        "aef6b2faf6d99855975853e6664b3b764724023c7e10a20f68f17f3f29d6ff79",
    "memcached-fpga-12M-obs":
        "6b1cb8cb5fd102a30afcd130393d3a4b11c658f3a500b725769d526bcd85436c",
    "memcached-netsim-3M-obs":
        "63bd5e66e826c23b02c41516fafb55d31baad67fdc90e20c2b9bb3ac7517d28f",
    "memcached-cluster-0.5M-primary+1":
        "4317f890329a55a4e91c3eedcaeb7f5d1120d9f4e2079fd1aabea8e84f3831b4",
    "memcached-cluster-3M-primary+1-faults-obs":
        "e7fc75233af3b99b3e92026c95535619bd2c0a50c2369c3299d96b24f4215510",
    "memcached-cluster-3M-write-all-faults":
        "abdca102c863cfa76927aaee197ab9ef73c9edf81ec8f71d7d165d8f65a3c13c",
    "memcached-cluster-12M-write-all-obs":
        "5fc3927546930cbc9b8008784aec1cb7b90983760ea973af653c11e9f8e7d8ba",
    "dns-fpga-12M":
        "aa73f0a38fbc1f9e068f48b6fff689de8fccaa98c472a7ae9a5390039bdc2f91",
    "dns-cluster-3M-faults-obs":
        "b43162dc9a3c8b8c941f18f60bb0a2c9e8c6d2411645ad7f310be750f2f21f0e",
    "icmp-multicore-3M-obs":
        "59ea07aa0753d6d22baca06fec90ad94a81efc6315cfe5fae5e2718600cc5692",
    "nat-fpga-12M-obs":
        "face53b9d33ff40cb01adf789fefef287e95a4e85a1f177eff05d2d563169125",
}


def _sweep():
    out = {}
    for name in CASES:
        artefacts, _ = run_case(name)
        out[name] = dict(
            {part: hashlib.sha256(artefacts[part].encode()).hexdigest()
             for part in PARTS}, digest=digest(artefacts))
    return out


def _compare(before_path, after_path):
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    differing = 0
    for name in sorted(set(before) | set(after)):
        old, new = before.get(name, {}), after.get(name, {})
        parts = [part for part in PARTS + ("digest",)
                 if old.get(part) != new.get(part)]
        if parts:
            differing += 1
            print("%s: differs in %s" % (name, ", ".join(parts)))
    print("%d cases, %d differ" % (len(set(before) | set(after)),
                                   differing))
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        sys.exit(_compare(*sys.argv[2:4]))
    json.dump(_sweep(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
