"""Uniform per-deployment observability.

Every backend adapter feeds the same :class:`Metrics` object through
the same code path (:meth:`Metrics.record`, called once per request by
the deployment), so request/reply/drop accounting, the latency
samples, and the core-cycle samples mean the same thing on every
backend — replacing the ad-hoc per-harness counters that used to be
reinvented next to every experiment loop.

Latency is only meaningful where the backend has a timing model (fpga,
multicore, cluster, netsim); the CPU target's software semantics record
``None`` latencies, which simply don't enter the samples.  The shapes
stay consistent: every snapshot has every key, empty where a backend
has nothing to report.
"""

from repro.net.dag import LatencyCapture
from repro.obs.metrics import MetricsRegistry


class Metrics:
    """Request/reply/drop counters + latency and cycle samples.

    Since the observability layer landed, this class is a *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry`: the counters live as
    labelled registry instruments and each recorded latency also feeds
    a registry histogram, so ``metrics.registry.snapshot()`` shows the
    same numbers as :meth:`snapshot` in Prometheus-ish text form and
    deployment metrics can be aggregated with any other registry user.
    The raw-sample :class:`~repro.net.dag.LatencyCapture` stays — exact
    percentiles beat bucketed ones when all samples fit in memory.
    """

    def __init__(self, registry=None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._requests = self.registry.counter("requests")
        self._replies = self.registry.counter("replies")
        self._drops = self.registry.counter("drops")
        self._batches = self.registry.counter("batches")
        self._latency_us = self.registry.histogram("latency_us")
        self.latency = LatencyCapture()
        self.core_cycles = []
        self.elapsed_ns = 0.0          # sum of recorded latencies

    # -- counter views (read like the plain ints they once were) ------------

    @property
    def requests(self):
        return self._requests.value

    @property
    def replies(self):
        return self._replies.value

    @property
    def drops(self):
        return self._drops.value

    @property
    def batches(self):
        return self._batches.value

    # -- recording (one path for every backend) -----------------------------

    def record(self, emitted, latency_ns, core_cycles=None):
        """Account one request's outcome (called by the deployment)."""
        self._requests.inc()
        if emitted:
            self._replies.inc(len(emitted))
        else:
            self._drops.inc()
        if latency_ns is not None:
            self.latency.record(latency_ns)
            self._latency_us.observe(latency_ns / 1000.0)
            self.elapsed_ns += latency_ns
        if core_cycles is not None:
            self.core_cycles.append(core_cycles)

    def record_batch(self):
        self._batches.inc()

    # -- derived ------------------------------------------------------------

    @property
    def reply_rate(self):
        """Fraction of requests that produced at least one reply."""
        if self.requests == 0:
            return 0.0
        return 1.0 - self.drops / self.requests

    def average_latency_us(self):
        return self.latency.average_us() if self.latency.count else None

    def p99_latency_us(self):
        return self.latency.p99_us() if self.latency.count else None

    def p999_latency_us(self):
        """The 99.9th percentile — linear interpolation over the raw
        samples (never bucket-bound snapping), same as p99."""
        return self.latency.percentile_us(99.9) if self.latency.count \
            else None

    def average_core_cycles(self):
        if not self.core_cycles:
            return None
        return sum(self.core_cycles) / len(self.core_cycles)

    def qps(self):
        """Serial-replay throughput: requests over summed latency
        (a lower bound — the paper's targets pipeline better than
        this; the model-based ceiling is ``Deployment.max_qps``)."""
        if self.elapsed_ns <= 0:
            return None
        return self.requests * 1e9 / self.elapsed_ns

    def snapshot(self):
        """A dict with a consistent shape on every backend."""
        return {
            "requests": self.requests,
            "replies": self.replies,
            "drops": self.drops,
            "batches": self.batches,
            "reply_rate": self.reply_rate,
            "avg_latency_us": self.average_latency_us(),
            "p99_latency_us": self.p99_latency_us(),
            "p999_latency_us": self.p999_latency_us(),
            "avg_core_cycles": self.average_core_cycles(),
            "qps": self.qps(),
            "latency_samples": self.latency.count,
            "cycle_samples": len(self.core_cycles),
        }

    def __repr__(self):
        return ("Metrics(requests=%d, replies=%d, drops=%d, "
                "latency_samples=%d)" % (self.requests, self.replies,
                                         self.drops, self.latency.count))

