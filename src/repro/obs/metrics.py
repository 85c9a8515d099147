"""Labelled metrics instruments: counters, gauges, histograms.

The registry is the one namespace a deployment's counters live in.
:class:`~repro.deploy.metrics.Metrics` is a *view* over one of these —
its ``requests``/``replies``/``drops`` attributes read registry
counters — so ad-hoc experiment counters and the uniform deployment
accounting share instruments instead of drifting apart, and anything
watching a deployment (the coming control plane, the time-series
sampler) reads one snapshot.

Instruments are deliberately tiny:

* :class:`Counter` — monotonically increasing.
* :class:`Gauge` — last-write-wins level (queue depth, live shards).
* :class:`Histogram` — fixed bucket bounds, O(1) observe.  Percentiles
  interpolate linearly *within* the covering bucket instead of
  snapping to its upper bound, so an estimate moves smoothly with the
  data rather than jumping bucket-to-bucket (regression-tested on
  crafted samples).

Labels are keyword pairs (``counter("drops", server="shard3")``); each
distinct label set is its own instrument, and snapshots render them
``name{k=v,...}`` with sorted keys, so output order is deterministic.
"""

import re
from bisect import bisect_left

from repro.errors import ObsError

#: Default latency histogram bounds (µs): sub-µs device latencies up
#: through host-stack milliseconds, roughly log-spaced.
DEFAULT_LATENCY_BOUNDS_US = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1_000, 2_000, 5_000, 10_000, 50_000)


def interpolate_percentile(sorted_samples, fraction):
    """Linear-interpolation percentile over pre-sorted raw samples
    (``fraction`` in [0, 1]); shared by the open-loop report and the
    time-series sampler."""
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


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ObsError("counters only go up (inc %r)" % (amount,))
        self.value += amount

    def __repr__(self):
        return "Counter(%d)" % self.value


class Gauge:
    """A last-write-wins level."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = value

    def __repr__(self):
        return "Gauge(%r)" % (self.value,)


class Histogram:
    """Fixed-bound bucketed distribution with interpolated percentiles.

    *bounds* are ascending bucket upper bounds; one overflow bucket
    catches everything beyond the last bound.  ``observe`` is one
    ``bisect``; the raw samples are not kept (that is what makes the
    instrument safe at qps) — exact-sample percentiles live where the
    samples do (:class:`~repro.net.dag.LatencyCapture`).
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds=DEFAULT_LATENCY_BOUNDS_US):
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ObsError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ObsError("histogram bounds must be strictly ascending")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        try:
            if value < self.min:
                self.min = value
            elif value > self.max:
                self.max = value
        except TypeError:           # the first sample: both still None
            self.min = self.max = value

    def mean(self):
        return self.total / self.count if self.count else None

    def percentile(self, pct):
        """Estimate the *pct* percentile by linear interpolation
        between the covering bucket's bounds (never upper-bound
        snapping), clamped to the observed min/max so a one-sample
        histogram reports the sample, not a bucket edge."""
        if not self.count:
            return None
        if not 0.0 <= pct <= 100.0:
            raise ObsError("percentile must be in [0, 100]")
        target = (pct / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if cumulative + bucket_count < target or not bucket_count:
                cumulative += bucket_count
                continue
            lower = self.bounds[index - 1] if index > 0 else \
                min(0.0, self.min)
            upper = self.bounds[index] if index < len(self.bounds) \
                else self.max
            lower = max(lower, self.min)
            upper = min(upper, self.max)
            if upper <= lower:
                return lower
            position = (target - cumulative) / bucket_count
            return lower + (upper - lower) * position
        return self.max

    def to_dict(self):
        return {"count": self.count, "mean": self.mean(),
                "min": self.min, "max": self.max,
                "p50": self.percentile(50.0),
                "p99": self.percentile(99.0),
                "p999": self.percentile(99.9)}

    def __repr__(self):
        return "Histogram(count=%d, buckets=%d)" % (
            self.count, len(self.counts))


def _key(name, labels):
    return (name, tuple(sorted(labels.items())))


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name):
    """A legal Prometheus metric name (invalid chars -> ``_``, and a
    leading digit gets a ``_`` prefix)."""
    name = _PROM_INVALID.sub("_", str(name))
    if name[:1].isdigit():
        name = "_" + name
    return name


def _prom_labels(labels, extra=()):
    """``{k="v",...}`` with sorted keys + escaped values (empty string
    without labels)."""
    pairs = sorted(labels.items()) + list(extra)
    if not pairs:
        return ""
    rendered = []
    for key, value in pairs:
        value = str(value).replace("\\", "\\\\").replace('"', '\\"') \
            .replace("\n", "\\n")
        rendered.append('%s="%s"' % (_prom_name(key), value))
    return "{%s}" % ",".join(rendered)


def _prom_value(value):
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return "%d" % int(value)
        return repr(value)
    return "%d" % value


def _render(name, labels):
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join(
        "%s=%s" % pair for pair in sorted(labels.items())))


class MetricsRegistry:
    """One namespace of labelled instruments.

    ``counter``/``gauge``/``histogram`` get-or-create, so producers
    never coordinate registration; asking for an existing name with a
    different instrument kind is an error (one name, one meaning).
    """

    def __init__(self):
        self._instruments = {}      # (name, labels) -> instrument

    def _get(self, cls, name, labels, factory):
        key = _key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ObsError(
                "%r is already a %s, not a %s"
                % (_render(name, labels),
                   type(instrument).__name__, cls.__name__))
        return instrument

    def counter(self, name, **labels):
        return self._get(Counter, name, labels, Counter)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels, Gauge)

    def histogram(self, name, bounds=DEFAULT_LATENCY_BOUNDS_US,
                  **labels):
        return self._get(Histogram, name, labels,
                         lambda: Histogram(bounds))

    def __len__(self):
        return len(self._instruments)

    def snapshot(self):
        """``{rendered-name: value-or-histogram-dict}``, sorted keys —
        a deterministic, JSON-able dump of every instrument."""
        out = {}
        for (name, labels), instrument in sorted(
                self._instruments.items()):
            rendered = _render(name, dict(labels))
            if isinstance(instrument, Histogram):
                out[rendered] = instrument.to_dict()
            else:
                out[rendered] = instrument.value
        return out

    def to_prometheus(self):
        """Prometheus text-exposition rendering of every instrument.

        One ``# TYPE`` header per metric name, label sets as sorted
        ``name{k="v"}`` lines, histograms in the canonical
        ``_bucket``/``_sum``/``_count`` expansion with cumulative
        ``le`` buckets ending at ``+Inf``.  Output is deterministic
        (sorted names, sorted label sets, fixed float rendering), so
        the golden-file test can diff it byte for byte — and the
        coming socket front-end can serve it on ``/metrics``
        unchanged.
        """
        by_name = {}
        for (name, labels), instrument in self._instruments.items():
            by_name.setdefault(name, []).append((dict(labels),
                                                 instrument))
        lines = []
        for name in sorted(by_name):
            prom = _prom_name(name)
            entries = sorted(by_name[name],
                             key=lambda entry:
                             tuple(sorted(entry[0].items())))
            kind = entries[0][1]
            if isinstance(kind, Counter):
                lines.append("# TYPE %s counter" % prom)
                for labels, counter in entries:
                    lines.append("%s%s %s" % (prom,
                                              _prom_labels(labels),
                                              _prom_value(counter.value)))
            elif isinstance(kind, Gauge):
                lines.append("# TYPE %s gauge" % prom)
                for labels, gauge in entries:
                    lines.append("%s%s %s" % (prom,
                                              _prom_labels(labels),
                                              _prom_value(gauge.value)))
            else:
                lines.append("# TYPE %s histogram" % prom)
                for labels, histogram in entries:
                    cumulative = 0
                    for bound, count in zip(histogram.bounds,
                                            histogram.counts):
                        cumulative += count
                        lines.append("%s_bucket%s %d" % (
                            prom,
                            _prom_labels(labels,
                                         [("le",
                                           _prom_value(bound))]),
                            cumulative))
                    lines.append("%s_bucket%s %d" % (
                        prom, _prom_labels(labels, [("le", "+Inf")]),
                        histogram.count))
                    lines.append("%s_sum%s %s" % (
                        prom, _prom_labels(labels),
                        _prom_value(histogram.total)))
                    lines.append("%s_count%s %d" % (
                        prom, _prom_labels(labels), histogram.count))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "MetricsRegistry(%d instruments)" % len(self)
