"""Windowed time-series over an open-loop run.

One end-of-run ``OpenLoopReport`` says *what* happened; this sampler
says *when*: the run is cut into fixed virtual-time windows, and at
each boundary the sampler snapshots the cumulative report counters
(deltas become per-window rates) and the live per-server ingest queue
depths (a gauge read at the boundary instant).  Per-window latency
percentiles come from the window's own completions, so a mid-run fault
shows up as the qps dip / drop spike / p99 bulge in exactly the rows
whose windows overlap the fault — the alignment the autonomous control
plane will steer by.

Everything derives from the seeded run, so the exported TSV is
byte-identical across repeat runs (fixed ``%.3f`` formatting, no wall
clock anywhere).

The open-loop layer drives the live interface — ``flush`` at each
boundary, handing over the run's report; a window's latencies are the
slice of ``report.latencies_ns`` appended since the previous flush, so
the sampler keeps no per-request state of its own.  Consumers read
:attr:`rows` or :meth:`to_tsv`.  Streaming consumers (the SLO monitor)
register in :attr:`TimeSeries.observers` and are called at every
window close with the new row plus that window's own sorted latencies.

Trailing-partial-window semantics (pinned, regression-tested): the
sampler flushes one full-width window per elapsed ``window_ns``;
:meth:`finish` then closes at most one final *partial* row covering
``[last boundary, end)`` — created only when that interval saw any
activity (pending latencies or counter movement), and exposed
explicitly as :attr:`final_partial` (``None`` when the run ended
exactly on a boundary with nothing draining).  The partial row's span
may be shorter *or* longer than ``window_ns`` (completions drain past
the nominal duration); its rates always derive from its actual span.
:meth:`finish` is idempotent — a second call at the same instant adds
nothing.
"""

from collections import namedtuple

from repro.errors import ObsError
from repro.obs.metrics import interpolate_percentile


class Window(namedtuple("Window", (
        "start_ns", "end_ns", "offered", "admitted", "completed",
        "replies", "queue_drops", "service_drops", "p50_us", "p99_us",
        "depths", "busy_fraction"))):
    """One sampled window: counter deltas + boundary gauges
    (``depths`` is the per-server ingest depth at ``end_ns``)."""

    __slots__ = ()

    @property
    def span_ns(self):
        return self.end_ns - self.start_ns

    @property
    def qps(self):
        """Completions per second in this window."""
        return self.completed * 1e9 / self.span_ns if self.span_ns \
            else 0.0

    @property
    def reply_qps(self):
        """Replies per second — the line that dips under faults (a
        timed-out request completes but answers nothing)."""
        return self.replies * 1e9 / self.span_ns if self.span_ns \
            else 0.0

    @property
    def drops(self):
        return self.queue_drops + self.service_drops

    @property
    def max_depth(self):
        return max(self.depths, default=0)

    @property
    def mean_depth(self):
        if not self.depths:
            return 0.0
        return sum(self.depths) / len(self.depths)


def _counters(report):
    """The cumulative counters a window's deltas are taken over."""
    return (report.offered, report.admitted, report.completed,
            report.replies, report.queue_drops, report.service_drops)


class TimeSeries:
    """Accumulates :class:`Window` rows during an open-loop run."""

    #: Aggregate TSV columns (per-server ``depth<i>`` columns follow).
    COLUMNS = ("t_ms", "window_ms", "offered", "admitted", "completed",
               "replies", "queue_drops", "service_drops", "qps",
               "reply_qps", "p50_us", "p99_us", "busy_frac",
               "depth_mean", "depth_max")

    def __init__(self, window_ns):
        if window_ns <= 0:
            raise ObsError("window must be positive")
        self.window_ns = int(window_ns)
        self.rows = []
        #: Streaming window consumers: ``callable(window,
        #: sorted_latencies_ns)`` invoked at every flush (the SLO
        #: monitor's hook).  Observers must not mutate the series.
        self.observers = []
        #: The trailing partial row :meth:`finish` closed (``None``
        #: until finish runs, or when the run ended exactly on a
        #: window boundary with nothing left to record).
        self.final_partial = None
        self._seen = 0                  # report.latencies_ns consumed
        self._last = (0, 0, 0, 0, 0, 0)     # previous cumulative counters
        self._last_busy = 0.0
        self._last_end_ns = 0

    # -- live interface (driven by the open-loop layer) ----------------------

    def flush(self, now_ns, report, depths):
        """Close the window ending at *now_ns* against the cumulative
        *report* counters and the live per-server ingest *depths* (a
        list of ints)."""
        current = _counters(report)
        delta = [now - before
                 for now, before in zip(current, self._last)]
        busy = sum(server.busy_ns for server in report.servers)
        span_ns = now_ns - self._last_end_ns
        capacity_ns = span_ns * max(1, len(report.servers))
        ordered = sorted(report.latencies_ns[self._seen:])
        p50 = interpolate_percentile(ordered, 0.50)
        p99 = interpolate_percentile(ordered, 0.99)
        row = Window(
            self._last_end_ns, now_ns, *delta,
            p50_us=None if p50 is None else p50 / 1000.0,
            p99_us=None if p99 is None else p99 / 1000.0,
            depths=depths,
            busy_fraction=(busy - self._last_busy) / capacity_ns
            if capacity_ns else 0.0)
        self.rows.append(row)
        self._seen += len(ordered)
        self._last = current
        self._last_busy = busy
        self._last_end_ns = now_ns
        for observer in self.observers:
            observer(row, ordered)
        return row

    def finish(self, now_ns, report, depths):
        """Capture the post-duration tail (completions still draining
        after the last full window) as one final partial row, exposed
        on :attr:`final_partial` — created only when time passed since
        the last boundary *and* something happened in it (pending
        window latencies or counter movement); idempotent otherwise."""
        if now_ns > self._last_end_ns and (
                len(report.latencies_ns) > self._seen
                or self._last != _counters(report)):
            self.final_partial = self.flush(now_ns, report, depths)
        return self.final_partial

    # -- consumption ---------------------------------------------------------

    def __len__(self):
        return len(self.rows)

    def windows_overlapping(self, start_ns, end_ns):
        """Rows whose ``[start, end)`` intersects the given range —
        the assert surface for "the dip aligns with the fault"."""
        return [row for row in self.rows
                if row.start_ns < end_ns and row.end_ns > start_ns]

    def to_tsv(self):
        servers = max((len(row.depths) for row in self.rows), default=0)
        header = list(self.COLUMNS) + \
            ["depth%d" % index for index in range(servers)]
        lines = ["\t".join(header)]
        for row in self.rows:
            cells = ["%.3f" % (row.start_ns / 1e6),
                     "%.3f" % (row.span_ns / 1e6),
                     "%d" % row.offered, "%d" % row.admitted,
                     "%d" % row.completed, "%d" % row.replies,
                     "%d" % row.queue_drops, "%d" % row.service_drops,
                     "%.1f" % row.qps, "%.1f" % row.reply_qps,
                     "n/a" if row.p50_us is None else
                     "%.3f" % row.p50_us,
                     "n/a" if row.p99_us is None else
                     "%.3f" % row.p99_us,
                     "%.4f" % row.busy_fraction,
                     "%.2f" % row.mean_depth, "%d" % row.max_depth]
            cells += ["%d" % depth for depth in row.depths]
            cells += ["0"] * (servers - len(row.depths))
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"

    def write_tsv(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_tsv())
        return path

    def __repr__(self):
        return "TimeSeries(%d windows of %.3f ms)" % (
            len(self.rows), self.window_ns / 1e6)
