"""The interpolated-percentile regression set."""

import random

import pytest

from repro.net.dag import LatencyCapture
from repro.obs.metrics import interpolate_percentile
from repro.serve.loadgen import _percentile_us

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

    @pytest.mark.parametrize("seed", range(6))
    def test_every_percentile_reader_is_this_one(self, seed):
        """The DAG capture and the load generator read their
        percentiles through this function, bit for bit."""
        rng = random.Random(seed)
        samples_ns = [rng.randrange(1, 10 ** 6)
                      for _ in range(rng.randrange(1, 300))]
        ordered = sorted(samples_ns)
        capture = LatencyCapture()
        for sample in samples_ns:
            capture.record(sample)
        for pct in (0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0):
            expected = interpolate_percentile(ordered, pct / 100.0)
            assert capture.percentile_us(pct) == expected / 1000.0
            assert _percentile_us(ordered, pct / 100.0) == expected / 1e3
