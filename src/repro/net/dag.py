"""DAG-card stand-in: baseline-corrected DUT-only latency capture (§5.2).

"All traffic is captured by the DAG card and used to measure the latency
of the device-under-test (DUT) alone.  The latency of the setup itself
is measured first and deducted from all subsequent measurements."
"""

import math

from repro.errors import HostModelError
from repro.obs.metrics import interpolate_percentile


class LatencyCapture:
    """Collects per-request latencies and reports the Table 4 columns."""

    def __init__(self, setup_baseline_ns=0.0):
        self.setup_baseline_ns = setup_baseline_ns
        self.samples_ns = []

    def calibrate(self, baseline_samples_ns):
        """Measure the setup alone; its median is deducted afterwards."""
        if not baseline_samples_ns:
            raise HostModelError("baseline needs at least one sample")
        self.setup_baseline_ns = _percentile(sorted(baseline_samples_ns),
                                             50.0)

    def record(self, latency_ns):
        self.samples_ns.append(latency_ns - self.setup_baseline_ns)

    def record_us(self, latency_us):
        self.record(latency_us * 1000.0)

    @property
    def count(self):
        return len(self.samples_ns)

    def average_us(self):
        self._need_samples()
        return sum(self.samples_ns) / len(self.samples_ns) / 1000.0

    def percentile_us(self, pct):
        self._need_samples()
        return _percentile(sorted(self.samples_ns), pct) / 1000.0

    def median_us(self):
        return self.percentile_us(50.0)

    def p99_us(self):
        return self.percentile_us(99.0)

    def tail_to_average(self):
        """The paper's predictability metric (1.02–1.04 for Emu,
        1.09–2.98 for hosts)."""
        return self.p99_us() / self.average_us()

    def stddev_us(self):
        self._need_samples()
        mean = sum(self.samples_ns) / len(self.samples_ns)
        var = sum((s - mean) ** 2 for s in self.samples_ns) / \
            len(self.samples_ns)
        return math.sqrt(var) / 1000.0

    def _need_samples(self):
        if not self.samples_ns:
            raise HostModelError("no latency samples recorded")


def _percentile(sorted_values, pct):
    """Linear-interpolation percentile over pre-sorted data."""
    if not sorted_values:
        raise HostModelError("empty sample set")
    return interpolate_percentile(sorted_values, pct / 100.0)
