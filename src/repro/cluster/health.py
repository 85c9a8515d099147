"""Failure detection for the self-healing cluster layer.

:class:`MissCountDetector` is the cluster's one detector: a
timeout-style detector for request/response probing without a clock,
where *k* consecutive unanswered requests mark the peer dead.  The
:class:`~repro.cluster.target.ClusterTarget` uses one per shard, so a
crashed shard is evicted after a bounded number of timed-out requests,
never on a single loss.

It is deterministic: fed the same observation sequence it makes the
same call, which is what lets chaos runs assert exact behaviour.
"""

from repro.errors import ClusterError


class MissCountDetector:
    """Timeout-style detection: *k* consecutive misses = dead.

    Clockless: callers report each probe outcome and the detector
    declares the peer suspect after ``suspect_after`` consecutive
    misses.  A single success wipes the miss streak.
    """

    def __init__(self, suspect_after=3):
        if suspect_after < 1:
            raise ClusterError("suspect_after must be >= 1")
        self.suspect_after = suspect_after
        self.misses = 0
        self.probes = 0

    def record_ok(self):
        self.probes += 1
        self.misses = 0

    def record_miss(self):
        """Report an unanswered probe; returns True when the streak
        crosses the threshold (the caller should evict)."""
        self.probes += 1
        self.misses += 1
        return self.is_suspect()

    def is_suspect(self):
        return self.misses >= self.suspect_after

    def reset(self):
        self.misses = 0
