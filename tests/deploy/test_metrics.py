"""The uniform Metrics object: accounting, percentiles, snapshots."""

from collections import deque

import pytest

from repro.deploy import deploy
from repro.deploy.metrics import Metrics
from repro.net.packet import Frame
from repro.obs.metrics import MetricsRegistry


def _frame():
    return Frame(b"\x00" * 64)


class TestRecording:
    def test_reply_and_drop_accounting(self):
        metrics = Metrics()
        metrics.record([(0, _frame())], 1000.0)
        metrics.record([(0, _frame()), (1, _frame())], 2000.0)
        metrics.record([], None)
        assert metrics.requests == 3
        assert metrics.replies == 3
        assert metrics.drops == 1
        assert abs(metrics.reply_rate - 2.0 / 3.0) < 1e-12

    def test_latency_only_recorded_when_present(self):
        metrics = Metrics()
        metrics.record([(0, _frame())], None)     # cpu backend shape
        metrics.record([(0, _frame())], 500.0)
        assert metrics.latency.count == 1
        assert metrics.average_latency_us() == 0.5   # 500 ns

    def test_cycles_feed_the_cycle_histogram(self):
        metrics = Metrics()
        for cycles in (5, 5, 7, 11):
            metrics.record([(0, _frame())], 100.0, core_cycles=cycles)
        assert metrics.average_core_cycles() == 7.0

    def test_cycles_are_a_total_not_a_per_request_list(self):
        """A served device's cycles are only ever averaged: 10 000
        requests leave a sum and a count, no container that grew with
        them."""
        dep = deploy("memcached").on("fpga").with_opt(2).with_seed(7) \
            .start()
        frames = list(dep.spec.workload(10_000, 3))
        for base in range(0, len(frames), 500):
            dep.send_batch(frames[base:base + 500])
        metrics = dep.metrics
        assert metrics.cycle_samples == metrics.requests == 10_000
        assert metrics.average_core_cycles() == \
            metrics.core_cycles / 10_000
        containers = [value for value in vars(metrics).values()
                      if isinstance(value, (list, tuple, dict, set, deque))]
        assert all(len(value) < 10_000 for value in containers)
        dep.stop()

    def test_qps_is_serial_replay_rate(self):
        metrics = Metrics()
        metrics.record([(0, _frame())], 1000.0)
        metrics.record([(0, _frame())], 1000.0)
        assert abs(metrics.qps() - 1e6) < 1e-6


class TestPercentiles:
    def test_p999_interpolates_over_raw_samples(self):
        metrics = Metrics()
        for latency_ns in range(1000, 2001):       # 1001 samples
            metrics.record([(0, _frame())], float(latency_ns))
        # Linear ramp 1.0..2.0 us: the p-th percentile IS 1 + p/100.
        assert metrics.p99_latency_us() == pytest.approx(1.99)
        assert metrics.p999_latency_us() == pytest.approx(1.999)

    def test_p999_never_snaps_to_a_bucket_bound(self):
        metrics = Metrics()
        metrics.record([(0, _frame())], 3700.0)    # 3.7 us
        # One sample: every percentile is the sample, not the nearest
        # histogram bucket bound (2 or 5 us).
        assert metrics.p99_latency_us() == pytest.approx(3.7)
        assert metrics.p999_latency_us() == pytest.approx(3.7)

    def test_empty_percentiles_are_none(self):
        metrics = Metrics()
        assert metrics.p999_latency_us() is None


class TestRegistryView:
    def test_counters_live_in_the_registry(self):
        metrics = Metrics()
        metrics.record([(0, _frame())], 1000.0)
        metrics.record([], None)
        metrics.record_batch()
        snapshot = metrics.registry.snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["replies"] == 1
        assert snapshot["drops"] == 1
        assert snapshot["batches"] == 1
        assert snapshot["latency_us"]["count"] == 1

    def test_view_reads_match_registry_counters(self):
        metrics = Metrics()
        metrics.record([(0, _frame())], 1000.0)
        assert metrics.requests == \
            metrics.registry.counter("requests").value

    def test_shared_registry_aggregates_deployments(self):
        registry = MetricsRegistry()
        a = Metrics(registry=registry)
        b = Metrics(registry=registry)
        a.record([(0, _frame())], 1000.0)
        b.record([(0, _frame())], 2000.0)
        assert registry.snapshot()["requests"] == 2
        assert a.requests == 2                     # shared namespace


class TestEmptyShapes:
    def test_empty_snapshot_has_every_key(self):
        snapshot = Metrics().snapshot()
        for key in ("requests", "replies", "drops", "batches",
                    "reply_rate", "avg_latency_us", "p99_latency_us",
                    "p999_latency_us", "avg_core_cycles", "qps",
                    "latency_samples", "cycle_samples"):
            assert key in snapshot
        assert snapshot["avg_latency_us"] is None
        assert snapshot["qps"] is None
