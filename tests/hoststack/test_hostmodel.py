"""Host-stack model: mechanism produces the paper's host behaviour."""

import pytest

from repro.errors import HostModelError
from repro.hoststack import (
    host_dns, host_icmp_echo, host_memcached, host_nat, host_tcp_ping,
)
from repro.hoststack.model import KernelPathModel, Stage
from repro.net.dag import LatencyCapture
from repro.net.packet import ip_to_int
from repro.net.workloads import ping_flood
from repro.services import IcmpEchoService

IP_SVC = ip_to_int("10.0.0.1")
IP_CLI = ip_to_int("10.0.0.2")


class TestStages:
    def test_fixed_stage(self):
        import random
        stage = Stage("s", 5.0)
        assert stage.sample_us(random.Random(1)) == 5.0

    def test_exp_jitter_positive(self):
        import random
        stage = Stage("s", 1.0, "exp", 2.0)
        rng = random.Random(1)
        samples = [stage.sample_us(rng) for _ in range(100)]
        assert all(s >= 1.0 for s in samples)
        assert max(samples) > 2.0

    def test_lognormal_median(self):
        import random
        stage = Stage("s", 0.0, "lognormal", 10.0, 0.3)
        rng = random.Random(1)
        samples = sorted(stage.sample_us(rng) for _ in range(2001))
        assert samples[1000] == pytest.approx(10.0, rel=0.15)

    def test_bad_config_rejected(self):
        with pytest.raises(HostModelError):
            Stage("s", -1.0)
        with pytest.raises(HostModelError):
            Stage("s", 1.0, "weird", 1.0)

    def test_model_sums_stages(self):
        model = KernelPathModel([Stage("a", 2.0), Stage("b", 3.0)])
        assert model.sample_latency_us() == 5.0


class TestHostServices:
    def run_latency(self, host, count=800):
        capture = LatencyCapture()
        for frame in ping_flood(IP_SVC, IP_CLI, count=count):
            _, latency_us = host.send(frame)
            capture.record_us(latency_us)
        return capture

    def test_icmp_order_of_magnitude(self):
        host = host_icmp_echo(IcmpEchoService(my_ip=IP_SVC))
        capture = self.run_latency(host)
        assert 8 < capture.average_us() < 20       # paper: 12.28
        assert 1.3 < capture.tail_to_average() < 2.5   # paper: 1.84

    def test_functional_logic_still_runs(self):
        """The host wrapper executes the same service code."""
        service = IcmpEchoService(my_ip=IP_SVC)
        host = host_icmp_echo(service)
        frame = next(iter(ping_flood(IP_SVC, IP_CLI, count=1)))
        emitted, _ = host.send(frame)
        assert emitted
        assert service.replies_sent == 1

    def test_throughput_ordering_matches_paper(self):
        """DNS slowest, ICMP fastest — Table 4's host column."""
        service = IcmpEchoService(my_ip=IP_SVC)
        rates = {
            "icmp": host_icmp_echo(service).max_qps(),
            "tcp": host_tcp_ping(service).max_qps(),
            "dns": host_dns(service).max_qps(),
            "nat": host_nat(service).max_qps(),
            "memcached": host_memcached(service).max_qps(),
        }
        assert rates["dns"] < rates["memcached"] < rates["icmp"]
        assert 0.15e6 < rates["dns"] < 0.35e6          # paper: 0.226M
        assert 0.9e6 < rates["icmp"] < 1.2e6           # paper: 1.068M

    def test_nat_latency_is_milliseconds(self):
        host = host_nat(IcmpEchoService(my_ip=IP_SVC))
        capture = self.run_latency(host, count=600)
        assert capture.average_us() > 1000
        assert capture.p99_us() > capture.average_us() * 1.5

    def test_deterministic_with_seed(self):
        a = host_tcp_ping(IcmpEchoService(my_ip=IP_SVC), seed=4)
        b = host_tcp_ping(IcmpEchoService(my_ip=IP_SVC), seed=4)
        assert a.model.sample_latency_us() == b.model.sample_latency_us()
