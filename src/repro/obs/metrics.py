"""The one percentile rule: linear interpolation over raw samples.

Every latency reader — :class:`~repro.net.dag.LatencyCapture`, the
open-loop report, the time-series sampler, the trace analytics and the
load generator — reads its percentiles through
:func:`interpolate_percentile`, so a p99 never snaps to the nearest
order statistic and means the same thing everywhere.  Latencies are
kept as exact samples (as Emu's DAG card measures them, §5.2), never
bucketed.
"""


def interpolate_percentile(sorted_samples, fraction):
    """Linear-interpolation percentile over pre-sorted raw samples
    (``fraction`` in [0, 1])."""
    if not sorted_samples:
        return None
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = fraction * (len(sorted_samples) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_samples) - 1)
    weight = rank - low
    return sorted_samples[low] * (1.0 - weight) + \
        sorted_samples[high] * weight
