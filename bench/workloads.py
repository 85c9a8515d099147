"""The benchmark's four workloads: which deployment serves, and the
seeded request stream it is sent.

A stream is generated whole from the seed before anything is timed —
wire bytes plus the reply bytes the oracle expects — and the program
only ever sees the bytes.  Sizes are fixed work, not fixed time: every
round of a run replays the same requests into a fresh server, so a
slice means the same thing in every round (see README, "noise").
"""

import hashlib
import random

from repro.deploy import deploy
from repro.obs import SloSpec
from repro.services.dns_server import dns_kernel
from repro.services.memcached import memcached_kernel

from bench import oracle

#: Closed-loop window of the capacity phase.
OUTSTANDING = 32
#: Slices per socket phase, and requests per slice in the capacity
#: phase and in the rtt phase.
SLICES = 12
CAPACITY_N = 1000
RTT_N = 300


class Stream:
    """Request payloads, their on-the-wire form, and expected replies
    (on-the-wire form), index-aligned."""

    def __init__(self, payloads, replies, framed):
        self.payloads = payloads
        if framed:
            self.wire = [_length_prefix(p) for p in payloads]
            self.replies = [_length_prefix(r) for r in replies]
        else:
            self.wire = payloads
            self.replies = replies

    def __len__(self):
        return len(self.payloads)

    def digest(self):
        """One hash over every request and expected reply."""
        sha = hashlib.sha256()
        for wire, reply in zip(self.wire, self.replies):
            sha.update(wire)
            sha.update(reply)
        return sha.hexdigest()


def _length_prefix(payload):
    return len(payload).to_bytes(2, "big") + payload


class Workload:
    """One traffic mix on one deployment.

    *sim_qps* is the frozen offered rate of the sim phase
    (about half the modeled maximum when the benchmark was defined —
    frozen so that a change to the model moves the modeled latency,
    not the load it is measured at); *kernel* / *opt_level* name the
    flat kernel the stand-alone compiler and engine metrics use.
    """

    def __init__(self, name, why, service, transport, configure,
                 generate, sim_qps, write_ratio, kernel, opt_level,
                 baseline=None):
        self.name = name
        self.why = why
        self.service = service
        self.transport = transport
        self._configure = configure
        self._generate = generate
        self.sim_qps = sim_qps
        self.write_ratio = write_ratio
        self.kernel = kernel
        self.opt_level = opt_level
        #: The workload this one adds observability to, if any.
        self.baseline = baseline

    def deployment(self):
        """A configured, not yet started, deployment."""
        return self._configure(deploy(self.service))

    def stream(self, seed, slices=SLICES):
        """The whole run's requests: warm-up (10%), then *slices*
        capacity slices, then *slices* rtt slices."""
        count = warmup_n(slices) + (CAPACITY_N + RTT_N) * slices
        payloads, replies = self._generate(seed, count)
        return Stream(payloads, replies, framed=self.transport == "tcp")


def warmup_n(slices=SLICES):
    return (CAPACITY_N + RTT_N) * slices // 10


def _rng(family, seed):
    return random.Random("bench/%s/%s" % (family, seed))


def _tag(family, seed, index, width):
    digest = hashlib.sha256(
        ("bench/%s/%s/%d" % (family, seed, index)).encode("ascii"))
    return digest.hexdigest()[:width].encode("ascii")


def _mc_bin_hot(seed, count):
    """64 six-byte keys, eight-byte values, square-law popularity,
    90% GET.  Every key is stored once up front, so GETs hit."""
    rng = _rng("mc_bin_hot", seed)
    keys = [_tag("mc_bin_hot", seed, index, 6) for index in range(64)]
    model = oracle.MemcachedModel()
    payloads, replies = [], []
    for seq in range(count):
        if seq < len(keys):
            key, store = keys[seq], True
        else:
            key = keys[int(len(keys) * rng.random() ** 2)]
            store = rng.random() < 0.10
        if store:
            value = rng.getrandbits(64).to_bytes(8, "big")
            payloads.append(oracle.mc_binary_set(seq, key, value))
            replies.append(model.binary_set(seq, key, value))
        else:
            payloads.append(oracle.mc_binary_get(seq, key))
            replies.append(model.binary_get(seq, key))
    return payloads, replies


def _mc_ascii_wide_set(seed, count):
    """8192 keys drawn uniformly, half the requests SETs of 200-byte
    values: the store and its recency list grow through the run."""
    rng = _rng("mc_ascii_wide_set", seed)
    keys = [b"key:" + _tag("mc_ascii_wide_set", seed, index, 12)
            for index in range(8192)]
    model = oracle.MemcachedModel()
    payloads, replies = [], []
    for seq in range(count):
        key = keys[rng.randrange(len(keys))]
        if rng.random() < 0.50:
            value = b"%0200x" % rng.getrandbits(800)
            payloads.append(oracle.mc_ascii_set(seq, key, value))
            replies.append(model.ascii_set(seq, key, value))
        else:
            payloads.append(oracle.mc_ascii_get(seq, key))
            replies.append(model.ascii_get(seq, key))
    return payloads, replies


def _dns_mix(seed, count):
    """Half zone hits, half names no zone has (hash-tagged, so no
    two runs ask the same miss)."""
    rng = _rng("dns_tcp_cluster", seed)
    names = sorted(oracle.DNS_ZONE)
    payloads, replies = [], []
    for seq in range(count):
        txid = rng.getrandbits(16)
        if rng.random() < 0.50:
            name = names[rng.randrange(len(names))]
        else:
            name = "h%s.invalid" % _tag("dns_tcp_cluster", seed, seq,
                                        12).decode("ascii")
        payloads.append(oracle.dns_query(txid, name))
        replies.append(oracle.dns_reply(txid, name))
    return payloads, replies


def _mc_bin_hot_config(builder):
    return builder.on("fpga").with_opt(3).with_batch(64)


def _mc_bin_hot_obs_config(builder):
    slo = SloSpec("bench-slo", window_us=1000.0) \
        .latency_p99(2000.0).error_ratio(0.001).availability(0.999)
    return _mc_bin_hot_config(builder) \
        .with_trace().with_timeseries(window_us=1000.0).with_slo(slo)


WORKLOADS = {workload.name: workload for workload in (
    Workload(
        "mc_bin_hot",
        "smallest packets on a pipelined, batched kernel: per-request "
        "overhead of core/utils/targets/deploy/serve is nearly all the "
        "work, engine almost none",
        "memcached", "udp", _mc_bin_hot_config, _mc_bin_hot,
        sim_qps=2_600_000.0,
        write_ratio=0.10, kernel=memcached_kernel, opt_level=3),
    Workload(
        "mc_ascii_wide_set",
        "writes, large frames and a growing 8192-key working set: "
        "byte-serial checksums in core/utils and the store's recency "
        "list matter; a read-path gain that costs writes shows here",
        "memcached", "udp",
        lambda builder: builder.on("fpga").with_opt(2).with_batch(64),
        _mc_ascii_wide_set,
        sim_qps=500_000.0,
        write_ratio=0.50, kernel=memcached_kernel, opt_level=2),
    Workload(
        "dns_tcp_cluster",
        "no memcached code: DNS parsing, the cluster ring and "
        "balancer over 4 shards, and the framed-TCP path of serve "
        "are on the critical path",
        "dns", "tcp",
        lambda builder: builder.on("cluster", shards=4)
        .with_opt(2).with_batch(64),
        _dns_mix,
        sim_qps=2_400_000.0,
        write_ratio=0.0, kernel=dns_kernel, opt_level=2),
    Workload(
        "mc_bin_hot_obs",
        "mc_bin_hot with tracing, time-series and an SLO monitor on: "
        "obs does all the marginal work, so the pair isolates "
        "observability cost",
        "memcached", "udp", _mc_bin_hot_obs_config, _mc_bin_hot,
        sim_qps=2_600_000.0,
        write_ratio=0.10, kernel=memcached_kernel, opt_level=3,
        baseline="mc_bin_hot"),
)}
