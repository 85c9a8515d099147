"""TimeSeries windows: deltas, gauges, percentiles, TSV determinism."""

import pytest

from repro.errors import ObsError
from repro.obs.series import TimeSeries, Window


class FakeReport:
    """The cumulative counters and latency list flush() reads."""

    def __init__(self):
        self.offered = 0
        self.admitted = 0
        self.completed = 0
        self.replies = 0
        self.queue_drops = 0
        self.service_drops = 0
        self.latencies_ns = []
        self.servers = [FakeServer(), FakeServer()]


class FakeServer:
    def __init__(self):
        self.busy_ns = 0.0


class TestWindow:
    def test_rates_derive_from_span(self):
        window = Window(0, 1_000_000, offered=10, admitted=10,
                        completed=8, replies=6, queue_drops=1,
                        service_drops=2, p50_us=1.0, p99_us=2.0,
                        depths=[3, 1], busy_fraction=0.5)
        assert window.qps == pytest.approx(8000.0)
        assert window.reply_qps == pytest.approx(6000.0)
        assert window.drops == 3
        assert window.max_depth == 3
        assert window.mean_depth == 2.0

    def test_zero_span_rates_are_zero(self):
        window = Window(5, 5, 0, 0, 0, 0, 0, 0, None, None, [], 0.0)
        assert window.qps == 0.0
        assert window.reply_qps == 0.0


class TestTimeSeries:
    def test_window_must_be_positive(self):
        with pytest.raises(ObsError):
            TimeSeries(window_ns=0)

    def test_flush_records_counter_deltas(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        report.offered = report.admitted = report.completed = 5
        report.replies = 5
        series.flush(1000, report, [2, 0])
        report.offered = report.admitted = report.completed = 12
        report.replies = 11
        report.queue_drops = 1
        series.flush(2000, report, [0, 4])
        first, second = series.rows
        assert (first.offered, first.completed) == (5, 5)
        assert (second.offered, second.completed) == (7, 7)
        assert second.replies == 6
        assert second.queue_drops == 1
        assert first.depths == [2, 0]
        assert second.depths == [0, 4]

    def test_window_percentiles_come_from_window_latencies(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        for latency_ns in (1000, 2000, 3000):
            report.latencies_ns.append(latency_ns)
        report.completed = 3
        series.flush(1000, report, [])
        assert series.rows[0].p50_us == pytest.approx(2.0)
        # The next window starts with a fresh latency set.
        series.flush(2000, report, [])
        assert series.rows[1].p50_us is None

    def test_busy_fraction_is_per_window_utilisation(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()            # two servers
        report.servers[0].busy_ns = 600.0
        report.servers[1].busy_ns = 400.0
        series.flush(1000, report, [])
        # 1000 ns busy over 2 * 1000 ns capacity.
        assert series.rows[0].busy_fraction == pytest.approx(0.5)
        series.flush(2000, report, [])   # nothing new ran
        assert series.rows[1].busy_fraction == 0.0

    def test_finish_emits_partial_tail_only_with_activity(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        report.completed = 1
        series.flush(1000, report, [])
        series.finish(1000, report, [])      # at the boundary: no row
        assert len(series) == 1
        assert series.final_partial is None
        report.completed = 2
        series.finish(1500, report, [])      # drained completion
        assert len(series) == 2
        assert series.rows[1].span_ns == 500
        assert series.final_partial is series.rows[1]

    def test_windows_overlapping(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        for boundary in (1000, 2000, 3000):
            series.flush(boundary, report, [])
        hits = series.windows_overlapping(1500, 2500)
        assert [(w.start_ns, w.end_ns) for w in hits] == \
            [(1000, 2000), (2000, 3000)]

    def test_tsv_has_fixed_shape_and_depth_columns(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        report.offered = report.admitted = report.completed = 2
        report.replies = 2
        report.latencies_ns.append(1500)
        series.flush(1000, report, [1, 3])
        lines = series.to_tsv().strip().split("\n")
        header = lines[0].split("\t")
        assert header[:3] == ["t_ms", "window_ms", "offered"]
        assert header[-2:] == ["depth0", "depth1"]
        row = lines[1].split("\t")
        assert row[0] == "0.000"
        assert row[-2:] == ["1", "3"]

    def test_identical_inputs_give_identical_tsv(self):
        def build():
            series = TimeSeries(window_ns=1000)
            report = FakeReport()
            report.offered = report.completed = 4
            report.latencies_ns.append(1234)
            series.flush(1000, report, [2])
            return series.to_tsv()
        assert build() == build()


class TestFinalPartial:
    """The pinned trailing-partial-window semantics: one partial row
    at most, only with activity, idempotent, rates from actual span."""

    def test_quiet_unstarted_series_finishes_empty(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        assert series.finish(500, report, []) is None
        assert len(series) == 0
        assert series.final_partial is None

    def test_pending_latencies_alone_force_the_partial(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        report.completed = 1
        series.flush(1000, report, [])
        report.latencies_ns.append(700)   # drained after the boundary
        row = series.finish(1200, report, [])
        assert row is series.final_partial
        assert row.p50_us == pytest.approx(0.7)

    def test_finish_is_idempotent(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        report.completed = 3
        first = series.finish(1500, report, [])
        second = series.finish(1500, report, [])
        assert first is second is series.final_partial
        assert len(series) == 1

    def test_partial_longer_than_window_uses_actual_span(self):
        # Completions draining past the nominal duration stretch the
        # partial beyond window_ns; rates must use the real span.
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        report.completed = 4
        row = series.finish(2500, report, [])
        assert row.span_ns == 2500
        assert row.qps == pytest.approx(4 * 1e9 / 2500)


class TestObservers:
    def test_observer_sees_each_row_with_sorted_latencies(self):
        series = TimeSeries(window_ns=1000)
        report = FakeReport()
        seen = []
        series.observers.append(
            lambda row, latencies: seen.append((row, latencies)))
        report.latencies_ns.append(300)
        report.latencies_ns.append(100)
        report.completed = 2
        series.flush(1000, report, [])
        report.completed = 3
        series.finish(1400, report, [])
        assert [row for row, _ in seen] == series.rows
        assert seen[0][1] == [100, 300]
        assert seen[1][1] == []
