"""Trace analytics: request-row reconstruction, critical-path
decomposition exactness, tail attribution, and the FSM flamegraph."""

import pytest

from repro.errors import ObsError
from repro.obs.analyze import (PHASES, RequestRecord, TraceAnalysis,
                               analyze_trace, requests_from_trace)
from repro.obs.trace import TraceRecorder


def record(seq, latency_us, queue_us=0.0, service_us=None,
           reply_us=0.3, where="server0", dropped=False):
    """A RequestRecord whose phases sum exactly to its latency."""
    latency_ns = int(latency_us * 1000)
    queue_ns = int(queue_us * 1000)
    reply_ns = 0 if dropped else int(reply_us * 1000)
    service_ns = latency_ns - queue_ns - reply_ns \
        if service_us is None else int(service_us * 1000)
    return RequestRecord(
        seq=seq, track=0, server=where, start_ns=seq * 1000,
        latency_ns=latency_ns, queue_ns=queue_ns,
        service_ns=service_ns, reply_ns=reply_ns,
        service_kind="hop", where=where, dropped=dropped)


class TestReconstruction:
    def traced_family(self, dropped=False):
        tracer = TraceRecorder()
        now = {"ns": 0}
        tracer.bind_clock(lambda: now["ns"])
        tracer.name_track(0, "shard0")
        tracer.request(0, 100, 300, 800, overhead_ns=300,
                       detail={"seq": 0, "shard": "shard0"},
                       dropped=dropped)
        return tracer

    def test_span_family_becomes_one_record(self):
        records = requests_from_trace(self.traced_family())
        assert len(records) == 1
        rec = records[0]
        assert (rec.seq, rec.where, rec.dropped) == (0, "shard0", False)
        assert (rec.latency_ns, rec.queue_ns, rec.service_ns,
                rec.reply_ns) == (1000, 200, 500, 300)
        assert rec.service_kind == "hop"

    def test_dropped_family_flags_the_record(self):
        records = requests_from_trace(self.traced_family(dropped=True))
        assert records[0].dropped is True

    def test_core_spans_attribute_to_cores(self):
        tracer = TraceRecorder()
        now = {"ns": 0}
        tracer.bind_clock(lambda: now["ns"])
        tracer.request(2, 0, 0, 100, detail={"seq": 5, "core": 2})
        (rec,) = requests_from_trace(tracer)
        assert (rec.service_kind, rec.where) == ("kernel", "core2")

    def test_empty_trace_raises(self):
        tracer = TraceRecorder()
        tracer.bind_clock(lambda: 0)
        with pytest.raises(ObsError):
            analyze_trace(tracer)


class TestCriticalPath:
    def test_phases_decompose_exactly(self):
        records = [record(0, 1.0, queue_us=0.2),
                   record(1, 2.0, queue_us=0.7)]
        path = TraceAnalysis(records).critical_path()
        assert sum(path[phase]["total_ns"] for phase in PHASES) == \
            sum(rec.latency_ns for rec in records)
        assert sum(path[phase]["share"] for phase in PHASES) == \
            pytest.approx(1.0)
        assert path["queue"]["mean_ns"] == pytest.approx(450.0)

    def test_drops_are_excluded_from_the_latency_population(self):
        records = [record(0, 1.0), record(1, 50.0, dropped=True)]
        analysis = TraceAnalysis(records)
        assert len(analysis.completed) == 1
        assert analysis.to_dict()["dropped"] == 1


class TestTailAttribution:
    def test_attributes_phase_and_server(self):
        # 98 fast requests on server a; 2 slow ones whose extra time
        # is queueing on server b.
        records = [record(i, 1.0, where="a") for i in range(98)]
        records += [record(98 + i, 9.0, queue_us=8.0, where="b")
                    for i in range(2)]
        tail = TraceAnalysis(records).tail()
        assert tail["attributed_phase"] == "queue"
        assert tail["attributed_server"] == "b"
        assert tail["tail_by_server"]["b"]["count"] == 2
        assert tail["tail_by_server"]["b"]["excess_us"] == \
            pytest.approx(16.0, abs=0.1)

    def test_drops_slower_than_median_join_the_tail(self):
        # The timeouts: three 50 us drops on the dead shard outweigh
        # a handful of microsecond stragglers elsewhere.
        records = [record(i, 1.0, where="a") for i in range(40)]
        records += [record(40 + i, 1.8, where="c") for i in range(5)]
        records += [record(45 + i, 50.0, service_us=50.0,
                           reply_us=0.0, where="dead", dropped=True)
                    for i in range(3)]
        tail = TraceAnalysis(records).tail()
        assert tail["attributed_server"] == "dead"
        assert tail["tail_dropped"] == 3
        assert tail["tail_by_server"]["dead"]["dropped"] == 3

    def test_fast_drops_stay_out_of_the_tail(self):
        records = [record(i, float(1 + i % 3), where="a")
                   for i in range(20)]
        records += [record(20, 0.0, reply_us=0.0, where="b",
                           dropped=True)]
        tail = TraceAnalysis(records).tail()
        assert tail["tail_dropped"] == 0
        assert "b" not in tail["tail_by_server"]

    def test_needs_two_completions(self):
        assert TraceAnalysis([record(0, 1.0)]).tail() is None

    def test_report_text_names_the_attribution(self):
        records = [record(i, 1.0, where="a") for i in range(20)]
        records += [record(20, 8.0, queue_us=7.0, where="b")]
        analysis = TraceAnalysis(records)
        text = analysis.text()
        assert "-> queue on b" in text
        assert "Critical path" in text

    def test_to_dict_is_deterministic(self):
        def build():
            records = [record(i, 1.0 + (i % 7) / 3.0,
                              where="s%d" % (i % 3))
                       for i in range(30)]
            return TraceAnalysis(records).to_dict()
        assert build() == build()


class TestFlamegraph:
    class FakeState:
        def __init__(self, index, label, cycles):
            self.index = index
            self.label = label
            self.cycles = cycles

    class FakeProfile:
        name = "memcached"
        opt_level = 2
        total_cycles = 100

        def hotspots(self):
            return [TestFlamegraph.FakeState(0, "RX", 70),
                    TestFlamegraph.FakeState(1, "TX", 30)]

    def test_without_profile_flamegraph_is_none(self):
        analysis = TraceAnalysis([record(0, 1.0)])
        assert analysis.flamegraph() is None
        assert "no kernel profile" in analysis.flamegraph_text()

    def test_shares_are_proportional(self):
        analysis = TraceAnalysis([record(0, 1.0)],
                                 profile=self.FakeProfile())
        frames = analysis.flamegraph()
        assert [frame["share"] for frame in frames] == [0.7, 0.3]
        text = analysis.flamegraph_text()
        assert "RX" in text and "#" in text
