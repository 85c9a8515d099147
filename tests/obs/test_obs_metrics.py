"""Registry instruments + the interpolated-percentile regression set."""

import random

import pytest

from repro.errors import ObsError
from repro.obs.metrics import (Counter, Gauge, Histogram,
                               MetricsRegistry, interpolate_percentile)

SEED = "obs-metrics-1"


class TestInterpolatePercentile:
    def test_empty_is_none(self):
        assert interpolate_percentile([], 0.5) is None

    def test_single_sample_is_the_sample(self):
        assert interpolate_percentile([42.0], 0.99) == 42.0

    def test_median_of_two_is_their_midpoint(self):
        assert interpolate_percentile([10.0, 20.0], 0.5) == 15.0

    def test_endpoints_are_min_and_max(self):
        samples = [1.0, 5.0, 9.0]
        assert interpolate_percentile(samples, 0.0) == 1.0
        assert interpolate_percentile(samples, 1.0) == 9.0

    def test_linear_ramp_is_exact(self):
        # 0..100: the p-th percentile of a linear ramp IS p.
        samples = [float(v) for v in range(101)]
        for fraction in (0.25, 0.5, 0.9, 0.99):
            assert interpolate_percentile(samples, fraction) == \
                pytest.approx(fraction * 100)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ObsError):
            Counter().inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(9)
        gauge.set(3)
        assert gauge.value == 3


class TestHistogram:
    def test_observe_counts_and_stats(self):
        histogram = Histogram(bounds=(10, 20, 30))
        for value in (5, 15, 15, 25, 99):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.counts == [1, 2, 1, 1]   # + overflow bucket
        assert histogram.min == 5
        assert histogram.max == 99
        assert histogram.mean() == pytest.approx(31.8)

    @staticmethod
    def _loop_observe(histogram, value):
        """``observe`` as it was: a hand-rolled binary search, min and
        max each tested against ``None``."""
        low, high = 0, len(histogram.bounds)
        while low < high:
            mid = (low + high) // 2
            if value <= histogram.bounds[mid]:
                high = mid
            else:
                low = mid + 1
        histogram.counts[low] += 1
        histogram.count += 1
        histogram.total += value
        if histogram.min is None or value < histogram.min:
            histogram.min = value
        if histogram.max is None or value > histogram.max:
            histogram.max = value

    def test_bisect_picks_the_loops_bucket(self):
        from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS_US
        rng = random.Random("%s/%s" % (SEED, "observe-differential"))
        for bounds in (DEFAULT_LATENCY_BOUNDS_US, (7,), (0.5, 1.5),
                       tuple(range(0, 1001, 50))):
            values = [0.0, -3.0, bounds[0] - 1e-9, bounds[-1] + 1e-9,
                      bounds[-1] * 10 + 1]
            for bound in bounds:
                values += [bound, bound - 1e-9, bound + 1e-9,
                           float(bound), int(bound)]
            values += [rng.uniform(-1, bounds[-1] * 1.2)
                       for _ in range(400)]
            rng.shuffle(values)
            fast, slow = Histogram(bounds), Histogram(bounds)
            for value in values:
                fast.observe(value)
                self._loop_observe(slow, value)
                assert fast.counts == slow.counts, value
                assert (fast.count, fast.total, fast.min, fast.max) == \
                    (slow.count, slow.total, slow.min, slow.max)
            assert fast.to_dict() == slow.to_dict()
            assert sum(fast.counts) == len(values)

    def test_first_sample_sets_both_ends(self):
        histogram = Histogram()
        assert (histogram.min, histogram.max) == (None, None)
        histogram.observe(4.0)
        assert (histogram.min, histogram.max, histogram.count) == \
            (4.0, 4.0, 1)
        histogram.observe(2)
        histogram.observe(9)
        assert (histogram.min, histogram.max) == (2, 9)
        with pytest.raises(TypeError):
            histogram.observe("fast")

    def test_bounds_must_ascend(self):
        with pytest.raises(ObsError):
            Histogram(bounds=(10, 10))
        with pytest.raises(ObsError):
            Histogram(bounds=(20, 10))
        with pytest.raises(ObsError):
            Histogram(bounds=())

    def test_empty_percentile_is_none(self):
        assert Histogram().percentile(99.0) is None

    def test_percentile_range_checked(self):
        histogram = Histogram()
        histogram.observe(1.0)
        with pytest.raises(ObsError):
            histogram.percentile(101.0)

    # -- the satellite regression: interpolation, never bucket snapping --

    def test_single_sample_reports_the_sample_not_the_bucket_edge(self):
        histogram = Histogram(bounds=(100,))
        histogram.observe(37.0)
        # Upper-bound snapping would report 100.
        assert histogram.percentile(50.0) == 37.0
        assert histogram.percentile(99.0) == 37.0

    def test_uniform_bucket_interpolates_between_bounds(self):
        histogram = Histogram(bounds=(0, 100))
        for value in (10.0, 30.0, 50.0, 70.0, 90.0):
            histogram.observe(value)
        # All five fall in (0, 100]; snapping would pin every
        # percentile to 100.  Interpolation walks the bucket: p50 ->
        # 2.5/5 of the way through [min=10, max=90].
        assert histogram.percentile(50.0) == pytest.approx(50.0)
        assert histogram.percentile(20.0) == pytest.approx(26.0)
        assert histogram.percentile(100.0) == 90.0

    def test_estimates_within_one_bucket_of_exact(self):
        rng = random.Random("%s/%s" % (SEED, "bucket-error"))
        bounds = tuple(range(0, 1001, 50))
        histogram = Histogram(bounds=bounds)
        samples = [rng.uniform(0, 1000) for _ in range(500)]
        for sample in samples:
            histogram.observe(sample)
        ordered = sorted(samples)
        for pct in (50.0, 90.0, 99.0, 99.9):
            exact = interpolate_percentile(ordered, pct / 100.0)
            estimate = histogram.percentile(pct)
            assert abs(estimate - exact) <= 50.0   # one bucket width

    def test_to_dict_has_the_tail_keys(self):
        histogram = Histogram()
        histogram.observe(3.0)
        summary = histogram.to_dict()
        for key in ("count", "mean", "min", "max", "p50", "p99",
                    "p999"):
            assert key in summary


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("requests") is \
            registry.counter("requests")
        assert len(registry) == 1

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("drops", server="shard0")
        b = registry.counter("drops", server="shard1")
        assert a is not b
        a.inc(3)
        assert b.value == 0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.gauge("depth", server="s0", port=1)
        b = registry.gauge("depth", port=1, server="s0")
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("requests")
        with pytest.raises(ObsError):
            registry.gauge("requests")

    def test_snapshot_renders_sorted_labelled_names(self):
        registry = MetricsRegistry()
        registry.counter("drops", server="shard1").inc(2)
        registry.counter("drops", server="shard0").inc(1)
        registry.gauge("live").set(4)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["drops{server=shard0}",
                                  "drops{server=shard1}", "live"]
        assert snapshot["drops{server=shard1}"] == 2

    def test_snapshot_expands_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("latency_us").observe(5.0)
        snapshot = registry.snapshot()
        assert snapshot["latency_us"]["count"] == 1


class TestPrometheusExport:
    def build_registry(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", backend="cluster").inc(1300)
        registry.counter("requests_total", backend="fpga").inc(256)
        registry.counter("drops_total", server="shard1",
                         kind="service").inc(3)
        registry.gauge("live_shards").set(3)
        registry.gauge("queue_depth", server="shard0").set(2.5)
        histogram = registry.histogram(
            "latency_us", bounds=(1, 5, 25), service="memcached")
        for value in (0.4, 0.9, 3.0, 4.0, 30.0):
            histogram.observe(value)
        return registry

    def test_matches_the_golden_file(self):
        import os
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "metrics.prom")
        with open(golden) as handle:
            assert self.build_registry().to_prometheus() == \
                handle.read()

    def test_histogram_buckets_are_cumulative_to_inf(self):
        text = self.build_registry().to_prometheus()
        lines = [line for line in text.splitlines()
                 if line.startswith("latency_us_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)        # cumulative
        assert 'le="+Inf"' in lines[-1]
        assert counts[-1] == 5                 # total observations

    def test_type_headers_precede_sorted_names(self):
        text = self.build_registry().to_prometheus()
        types = [line.split()[3] for line in text.splitlines()
                 if line.startswith("# TYPE")]
        names = [line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE")]
        assert names == sorted(names)
        assert set(types) == {"counter", "gauge", "histogram"}

    def test_invalid_chars_are_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("drop-rate.total", **{"shard id": 'a"b\n'}).inc(1)
        text = registry.to_prometheus()
        assert "drop_rate_total" in text
        assert 'shard_id="a\\"b\\n"' in text

    def test_export_is_deterministic(self):
        assert self.build_registry().to_prometheus() == \
            self.build_registry().to_prometheus()
