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

:data:`DIGESTS` records every case's digest, and CI's sweep step
checks all of them; ``tests/engine/test_openloop.py`` runs the twelve
cases of :data:`PINNED` in tier-1.
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


#: Every case's digest, recorded on commit 7019531 (the parent of the
#: change that deleted the network-level cluster); Python 3.11, 3.12
#: and 3.13 give the same bytes.  The CI sweep step asserts all 90.
DIGESTS = {
    "memcached-cpu-0.5M":
        "bdfd34038c37b1b8a4a33ddb868a733ae45798fb1f6bfb311a46c6aeff0439d3",
    "memcached-cpu-0.5M-obs":
        "8ef210f832e8a8967b9ed0f796c55c86627eb2a115a404ceb3317b9163f96a97",
    "memcached-cpu-3M":
        "c9c3b32d8f299a87d0398f657addd7806334fcd7775122d8bb3427eed3f8a653",
    "memcached-cpu-3M-obs":
        "b655cb60a902742fceeee44b68aaf8002804c09669f2315dbf62a1f6f100d6d9",
    "memcached-cpu-12M":
        "b02bf4c07497c8c0e86cda2a2d65193133385db1e267b03f5b53564b8c54fd78",
    "memcached-cpu-12M-obs":
        "4f1542954d587e7041ef496d1946e66f608d4cb31b5f7b57941ec31391afdee9",
    "memcached-fpga-0.5M":
        "1b07ff93772d76345d2a7eab3c0b196144ca43214591f653297b8bdd01ac9f2b",
    "memcached-fpga-0.5M-obs":
        "e727cc0e6b862f12ff7a030a1b6a50f29b1b31a4a5f3f688c9d71250320473c2",
    "memcached-fpga-3M":
        "aef6b2faf6d99855975853e6664b3b764724023c7e10a20f68f17f3f29d6ff79",
    "memcached-fpga-3M-obs":
        "e9648ae988121f3c4ee2d57ae3b3c00a059347885cc8d2ac42ffbc05aa3c07b4",
    "memcached-fpga-12M":
        "34343b115bc1f94edf6617900b8a5d4cf5ce57363660c4849924ddb895581617",
    "memcached-fpga-12M-obs":
        "6b1cb8cb5fd102a30afcd130393d3a4b11c658f3a500b725769d526bcd85436c",
    "memcached-multicore-0.5M":
        "61f64f9b497cc82462b314d685acea57245a454a114e29cc3f3d0d86bc80690c",
    "memcached-multicore-0.5M-obs":
        "b77cd7c8a5a79b217b48d1d0fd17428014752b027aed08fb11eba7d9e67514c2",
    "memcached-multicore-3M":
        "885f4e9c004c207e739090aaa34e9100a324438ac2b96d92d524af40d2ab0913",
    "memcached-multicore-3M-obs":
        "dc45f36e4d428e78eee5664495e2504f0efffd2dd9771742c56f1b9f2bcc455b",
    "memcached-multicore-12M":
        "e910e7a7ce89c434b7fd1639049e5981b5712e1559e02c857bb2b659d90bcd9c",
    "memcached-multicore-12M-obs":
        "60053e6bded54a132185651d7a8de5b90d8732972ec7a6555de753cb9768db33",
    "memcached-cluster-0.5M":
        "4317f890329a55a4e91c3eedcaeb7f5d1120d9f4e2079fd1aabea8e84f3831b4",
    "memcached-cluster-0.5M-obs":
        "c1af96b565d1519b2f9b16cf3ce3cba103fe4275c27d7b8ed7b40fd75c8b79b1",
    "memcached-cluster-3M":
        "eb452ef5a233f574732219e02f38bac579098c97ed48d767a81116df199f9e5e",
    "memcached-cluster-3M-obs":
        "921d5fa1f82de4be7f89168e226fbae6eb7f315e97ebd741348a19e479200d14",
    "memcached-cluster-12M":
        "2bd124fa1ea55806ed1789ad3007b73fd38c4852512ae33a503e9c0181653d1e",
    "memcached-cluster-12M-obs":
        "5b2dd11358b1245832f7867ee8978a68803521ef08e759b8b3001335780c0a8d",
    "memcached-cluster-0.5M-primary+1":
        "4317f890329a55a4e91c3eedcaeb7f5d1120d9f4e2079fd1aabea8e84f3831b4",
    "memcached-cluster-0.5M-primary+1-obs":
        "c1af96b565d1519b2f9b16cf3ce3cba103fe4275c27d7b8ed7b40fd75c8b79b1",
    "memcached-cluster-3M-primary+1":
        "eb452ef5a233f574732219e02f38bac579098c97ed48d767a81116df199f9e5e",
    "memcached-cluster-3M-primary+1-obs":
        "921d5fa1f82de4be7f89168e226fbae6eb7f315e97ebd741348a19e479200d14",
    "memcached-cluster-12M-primary+1":
        "2bd124fa1ea55806ed1789ad3007b73fd38c4852512ae33a503e9c0181653d1e",
    "memcached-cluster-12M-primary+1-obs":
        "5b2dd11358b1245832f7867ee8978a68803521ef08e759b8b3001335780c0a8d",
    "memcached-cluster-0.5M-write-all":
        "4317f890329a55a4e91c3eedcaeb7f5d1120d9f4e2079fd1aabea8e84f3831b4",
    "memcached-cluster-0.5M-write-all-obs":
        "76b9084362c8a3423b020d05d36660e679eab3be585a57ff24dd7be33a2c93b4",
    "memcached-cluster-3M-write-all":
        "eb452ef5a233f574732219e02f38bac579098c97ed48d767a81116df199f9e5e",
    "memcached-cluster-3M-write-all-obs":
        "18c3da274de0ea3140a8caabc610b5c2a87a01c69b56dc3c8578814f71ab1d5c",
    "memcached-cluster-12M-write-all":
        "2bd124fa1ea55806ed1789ad3007b73fd38c4852512ae33a503e9c0181653d1e",
    "memcached-cluster-12M-write-all-obs":
        "5fc3927546930cbc9b8008784aec1cb7b90983760ea973af653c11e9f8e7d8ba",
    "memcached-cluster-0.5M-faults":
        "a6067b5a8028488669123f3c4b5c1454a64f3b6a7e4c810c03b74b07e22a9c5e",
    "memcached-cluster-0.5M-faults-obs":
        "96e324552143af23a47e501ca45e64b64cd0e6ecbd3a83f649947273216a6164",
    "memcached-cluster-3M-faults":
        "abdca102c863cfa76927aaee197ab9ef73c9edf81ec8f71d7d165d8f65a3c13c",
    "memcached-cluster-3M-faults-obs":
        "d9b829847cefff8846cfea1e0d95a21ca7ca63141a5734ef4f36e2f30cff9f3e",
    "memcached-cluster-12M-faults":
        "fa139a35bf6bcbed4586d8d99f1e1879220657182fd61dd92b1863a571a80679",
    "memcached-cluster-12M-faults-obs":
        "dd91f85da3d009547691e5ff9c5f77229e4489438abf4064b0f94f02dcf810c5",
    "memcached-cluster-0.5M-primary+1-faults":
        "a6067b5a8028488669123f3c4b5c1454a64f3b6a7e4c810c03b74b07e22a9c5e",
    "memcached-cluster-0.5M-primary+1-faults-obs":
        "c543e052158c0259eb8ef45414aecd2883ef27802bb0d38fe5b6ce686876e978",
    "memcached-cluster-3M-primary+1-faults":
        "abdca102c863cfa76927aaee197ab9ef73c9edf81ec8f71d7d165d8f65a3c13c",
    "memcached-cluster-3M-primary+1-faults-obs":
        "e7fc75233af3b99b3e92026c95535619bd2c0a50c2369c3299d96b24f4215510",
    "memcached-cluster-12M-primary+1-faults":
        "615f46f169c8a0b7f1feee21924408e4586c6f598028ca4c14af0b916506b253",
    "memcached-cluster-12M-primary+1-faults-obs":
        "103239e51c20be735b9b626188aa5ce0e1623f638b6f3c5295eabc037ea38a1f",
    "memcached-cluster-0.5M-write-all-faults":
        "a6067b5a8028488669123f3c4b5c1454a64f3b6a7e4c810c03b74b07e22a9c5e",
    "memcached-cluster-0.5M-write-all-faults-obs":
        "21792ed9d84c75de68eb934c50d8e2a39872fefb4b1caa818714fdae8fcda8f2",
    "memcached-cluster-3M-write-all-faults":
        "abdca102c863cfa76927aaee197ab9ef73c9edf81ec8f71d7d165d8f65a3c13c",
    "memcached-cluster-3M-write-all-faults-obs":
        "1bed9f76bb624cad6e42943f495999fe484aea8d49dae3c6e6f07325696ee9a6",
    "memcached-cluster-12M-write-all-faults":
        "615f46f169c8a0b7f1feee21924408e4586c6f598028ca4c14af0b916506b253",
    "memcached-cluster-12M-write-all-faults-obs":
        "b2d41710f2bb46ab8314e226085e63271b08c3eeecafe92ff082a3baeab8cdae",
    "memcached-netsim-0.5M":
        "d5e171dcfe865dc666506071f651ffe7d6ef3725fbef9df4943e3d89e1d97560",
    "memcached-netsim-0.5M-obs":
        "9b77234eeb1fe3e95beb917a229caa14da7fb9a78fffb40b4a58933c545450b3",
    "memcached-netsim-3M":
        "232d52b8502cd44377681147a00a58f2ad563f58a98f5c86bc4e7814d7172a94",
    "memcached-netsim-3M-obs":
        "63bd5e66e826c23b02c41516fafb55d31baad67fdc90e20c2b9bb3ac7517d28f",
    "memcached-netsim-12M":
        "34d35fbd9f875b428cc332ff8d27c3312cd85fd27966a7d60e8bd624732bba53",
    "memcached-netsim-12M-obs":
        "69edaf405bdb744c5e490ca77e3dae9289d1798312facc7a752899f100209c92",
    "dns-fpga-0.5M":
        "09838618112dfdd77854d3f43d7d94983f4cd692a5d7d93e5e984f2f825d85a6",
    "dns-fpga-0.5M-obs":
        "6c8afee89e80e1af2ee80ecdd56f2ba4694f6b650ecd550988e43820e4bc1671",
    "dns-fpga-3M":
        "af332c4fe5f330098045af688d1d0869f076605af33c350a9acc0f91f1454b68",
    "dns-fpga-3M-obs":
        "38becc9e6dcf654b9f08f06c83e0f252b465807da9617ebeda82d344ae4d72bb",
    "dns-fpga-12M":
        "aa73f0a38fbc1f9e068f48b6fff689de8fccaa98c472a7ae9a5390039bdc2f91",
    "dns-fpga-12M-obs":
        "9cfac96317987b99a84552548c9fb59b70843ccb26058e5b98d9549f8e67bf00",
    "dns-cluster-0.5M":
        "a9d43b877cfe00bf4330429472ef8fa3fe8f3042d929ff53ac576ec365bf9f6e",
    "dns-cluster-0.5M-obs":
        "840c4f1c4c265565efe3f8582acc8147c8c2819ded7dc6284e370805475ceacb",
    "dns-cluster-3M":
        "948b682d1c200a1ded834522a01ab1f1979b6da161eb651a999a9418032f9583",
    "dns-cluster-3M-obs":
        "7c5491b0fade88110cafd801da7d4ef54614dba5bb294d22c0248fd304464efd",
    "dns-cluster-12M":
        "bfe65e5bfc1be8ba5710dc678713e3fccd12df261090412a7c2d7d0865bd114e",
    "dns-cluster-12M-obs":
        "e9faa3a1ba7907e9a46a5f0a9023bc3702ab76366e5e093484e92df442b194ce",
    "dns-cluster-0.5M-faults":
        "4b194bde6c07fb04d7f9a63ebaeae464e6ca4d3e7e318aa4f707b392e24b95b7",
    "dns-cluster-0.5M-faults-obs":
        "fd20a661ce95713668aca9ddb5d6b2853d7e86f0e28998da41399bea5b0a3ffb",
    "dns-cluster-3M-faults":
        "c5feef1dddeb2348bf5153d62fff2692a788363434e642edca2c45ae5ad99def",
    "dns-cluster-3M-faults-obs":
        "b43162dc9a3c8b8c941f18f60bb0a2c9e8c6d2411645ad7f310be750f2f21f0e",
    "dns-cluster-12M-faults":
        "ee889a735ce7a717c9b17b90ddc51b8720722eccf0a0c9bbd4cd06b7b299fc9f",
    "dns-cluster-12M-faults-obs":
        "148d0e0baab97b506bf53804b4c299e51f24a1372126240ca2831b7fdfc5055a",
    "icmp-multicore-0.5M":
        "eabe9fd22aeff59b64ce4b2e6f26fd7a0a37d804adc4d320dc9461a9291fe958",
    "icmp-multicore-0.5M-obs":
        "9a47123b6739ce62b6b2497b9e3e4e303abe79128d1b55e72fd4c40b82ee0743",
    "icmp-multicore-3M":
        "a5f2f24257db745e7680c77218f24a94eda98d93f6f41c63c5346bb96de6c47a",
    "icmp-multicore-3M-obs":
        "59ea07aa0753d6d22baca06fec90ad94a81efc6315cfe5fae5e2718600cc5692",
    "icmp-multicore-12M":
        "35a9366d5bd6e7e0dce5f7d590434a1ba4aeaa195862c3e1c68eb60cd2f42425",
    "icmp-multicore-12M-obs":
        "ac79e615a2814b2341f02ce096506115b268f1a34f7230e300a71288c34c249f",
    "nat-fpga-0.5M":
        "34962a88c26dbaa0587e92d372d3eaaa45983b63064e9af48312686f828acda0",
    "nat-fpga-0.5M-obs":
        "0d6b0979935eb81de03d23db47d0c458ff1fa1bcd1fb1b63f204f3f25c495ba4",
    "nat-fpga-3M":
        "e33bf4c639d9219cd6fd6fc529c07e4f056f1d4bea408b9359cd1d7d1e3946cb",
    "nat-fpga-3M-obs":
        "57273a47a55d064f82e62afa2660cfdbae5b13246b4efd16b8f87547802f1475",
    "nat-fpga-12M":
        "b751d4823a6b4a0d74fcca8acbc6aef37828c0c34ae616fe240c788206ace2a3",
    "nat-fpga-12M-obs":
        "face53b9d33ff40cb01adf789fefef287e95a4e85a1f177eff05d2d563169125",
}

#: The cases tier-1 runs (``tests/engine/test_openloop.py``): every
#: backend, a fault plan, both replicating policies, observability on
#: and off, the 12M-qps overload.  Their digests were first recorded on
#: the parent of the PR that rewrote ``run_open_loop`` as
#: arrival/start/finish events (commit 1e5bdf8), and have not moved.
PINNED = {name: DIGESTS[name] for name in (
    "memcached-cpu-3M-obs", "memcached-fpga-3M", "memcached-fpga-12M-obs",
    "memcached-netsim-3M-obs", "memcached-cluster-0.5M-primary+1",
    "memcached-cluster-3M-primary+1-faults-obs",
    "memcached-cluster-3M-write-all-faults",
    "memcached-cluster-12M-write-all-obs", "dns-fpga-12M",
    "dns-cluster-3M-faults-obs", "icmp-multicore-3M-obs", "nat-fpga-12M-obs",
)}


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
