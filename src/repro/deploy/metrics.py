"""Uniform per-deployment observability.

Every backend adapter feeds the same :class:`Metrics` object through
the same code path (:meth:`Metrics.record`, called once per request by
the deployment), so request/reply/drop accounting, the latency
samples, and the core-cycle tally mean the same thing on every
backend — replacing the ad-hoc per-harness counters that used to be
reinvented next to every experiment loop.

Latency is only meaningful where the backend has a timing model (fpga,
multicore, cluster, netsim); the CPU target's software semantics record
``None`` latencies, which simply don't enter the samples.  The shapes
stay consistent: every snapshot has every key, empty where a backend
has nothing to report.
"""

from repro.net.dag import LatencyCapture


class Metrics:
    """Request/reply/drop/batch counts, the latency samples, and the
    core cycles as a running total over ``cycle_samples`` requests
    (only ever averaged, so no per-request list).

    Each count is a plain int kept here and nowhere else; the raw
    :class:`~repro.net.dag.LatencyCapture` is the one latency store
    (exact percentiles over every sample, as the paper's DAG capture
    measures them).
    """

    def __init__(self):
        self.requests = 0
        self.replies = 0
        self.drops = 0
        self.batches = 0
        self.latency = LatencyCapture()
        self.core_cycles = 0           # sum over cycle_samples requests
        self.cycle_samples = 0
        self.elapsed_ns = 0.0          # sum of recorded latencies

    # -- recording (one path for every backend) -----------------------------

    def record(self, emitted, latency_ns, core_cycles=None):
        """Account one request's outcome (called by the deployment)."""
        self.requests += 1
        if emitted:
            self.replies += len(emitted)
        else:
            self.drops += 1
        if latency_ns is not None:
            self.latency.record(latency_ns)
            self.elapsed_ns += latency_ns
        if core_cycles is not None:
            self.core_cycles += core_cycles
            self.cycle_samples += 1

    def record_batch(self):
        self.batches += 1

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
        if not self.cycle_samples:
            return None
        return self.core_cycles / self.cycle_samples

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
            "cycle_samples": self.cycle_samples,
        }

    def __repr__(self):
        return ("Metrics(requests=%d, replies=%d, drops=%d, "
                "latency_samples=%d)" % (self.requests, self.replies,
                                         self.drops, self.latency.count))

