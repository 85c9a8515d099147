"""Staged host-stack latency/throughput model.

A request's host-side latency is the sum of pipeline *stages*; each
stage has a fixed cost plus an optional jitter source:

* ``exp``       — exponential queueing/interrupt delay (softirq backlog,
  IRQ coalescing);
* ``lognormal`` — multiplicative contention (memory hierarchy, loaded
  forwarding paths);
* ``spike``     — rare scheduler preemption: with small probability the
  request eats a timeslice-scale delay.

Throughput is CPU-bound: ``cores / cpu_us_per_request``, capped by NIC
packet rate — the model behind "the server is configured to achieve
maximum throughput (e.g. using multiple CPU cores)" (§5.2).
"""

import math
import random

from repro.errors import HostModelError


class Stage:
    """One stage of the host path."""

    __slots__ = ("name", "fixed_us", "jitter_kind", "jitter_a", "jitter_b")

    def __init__(self, name, fixed_us, jitter_kind=None, jitter_a=0.0,
                 jitter_b=0.0):
        if fixed_us < 0:
            raise HostModelError("stage %r fixed cost negative" % name)
        if jitter_kind not in (None, "exp", "lognormal", "spike"):
            raise HostModelError("unknown jitter kind %r" % jitter_kind)
        self.name = name
        self.fixed_us = fixed_us
        self.jitter_kind = jitter_kind
        self.jitter_a = jitter_a
        self.jitter_b = jitter_b

    def sample_us(self, rng):
        value = self.fixed_us
        kind = self.jitter_kind
        if kind == "exp":
            value += rng.expovariate(1.0 / self.jitter_a)
        elif kind == "lognormal":
            # jitter_a = median (us), jitter_b = sigma of ln.
            value += rng.lognormvariate(math.log(self.jitter_a),
                                        self.jitter_b)
        elif kind == "spike":
            # jitter_a = probability, jitter_b = spike magnitude (us).
            if rng.random() < self.jitter_a:
                value += self.jitter_b * (0.5 + rng.random())
        return value


class KernelPathModel:
    """A list of stages sampled per request."""

    def __init__(self, stages, seed=2):
        self.stages = list(stages)
        self._rng = random.Random(seed)

    def sample_latency_us(self):
        return sum(stage.sample_us(self._rng) for stage in self.stages)


# The shared kernel receive/transmit path (constants per [50]): these
# are the stages every host service pays before/after its own work.
def standard_rx_tx_stages():
    return [
        Stage("nic_dma_irq", 2.1, "exp", 0.4),
        Stage("softirq_netrx", 1.9, "exp", 0.3),
        Stage("ip_l4_rx", 1.3),
        Stage("socket_wakeup_sched", 2.6),
        Stage("syscall_rx_copy", 1.4),
        Stage("syscall_tx_copy", 1.3),
        Stage("ip_l4_tx", 1.1),
        Stage("qdisc_nic_tx", 0.9, "exp", 0.2),
    ]


class HostService:
    """A functional Emu service with host-model timing around it.

    ``send(frame)`` executes the *same* service logic as the Emu/FPGA
    run (so correctness is shared), then samples the host latency.
    """

    def __init__(self, name, service, app_stages, cpu_us_per_request,
                 cores=4, nic_pps_cap=14_880_000, seed=2,
                 kernel_only=False):
        # Kernel-resident services (ICMP, netfilter NAT) skip the
        # socket/syscall stages and define their own full path.
        base = [] if kernel_only else standard_rx_tx_stages()
        self.name = name
        self.service = service
        self.model = KernelPathModel(base + list(app_stages), seed=seed)
        self.cpu_us_per_request = cpu_us_per_request
        self.cores = cores
        self.nic_pps_cap = nic_pps_cap
        self.latencies_us = []

    def send(self, frame):
        """Process one request; returns (emitted, latency_us)."""
        dataplane = self.service.process(frame)
        latency = self.model.sample_latency_us()
        self.latencies_us.append(latency)
        emitted = []
        for port in range(4):
            if dataplane.dst_ports & (1 << port):
                emitted.append((port, dataplane.to_frame()))
        return emitted, latency

    def max_qps(self):
        """CPU-bound service rate, capped by the NIC."""
        cpu_qps = self.cores * 1e6 / self.cpu_us_per_request
        return min(cpu_qps, self.nic_pps_cap)
