"""TraceRecorder: recording, ordering, export formats, validation."""

import json

import pytest

from repro.errors import ObsError
from repro.obs.trace import TraceRecorder
from repro.obs.validate import validate_trace


class TestRecording:
    def test_span_and_instant_counts(self):
        tracer = TraceRecorder()
        tracer.span("request", 100, 50)
        tracer.instant("fault:kill", ts_ns=120)
        assert len(tracer) == 2
        assert repr(tracer) == "TraceRecorder(1 spans, 1 instants)"

    def test_negative_duration_raises(self):
        with pytest.raises(ObsError):
            TraceRecorder().span("bad", 100, -1)

    def test_instant_defaults_to_bound_clock(self):
        tracer = TraceRecorder()
        now = [0]
        tracer.bind_clock(lambda: now[0])
        now[0] = 4242
        tracer.instant("tick")
        assert tracer.events[0]["ts"] == 4242

    def test_unbound_clock_reads_zero(self):
        tracer = TraceRecorder()
        tracer.instant("tick")
        assert tracer.events[0]["ts"] == 0

    def test_hook_emits_instants_without_importing_obs(self):
        tracer = TraceRecorder()
        emit = tracer.hook(cat="cluster", track=3)
        emit("evict:shard2", {"shard": "shard2"})
        (event,) = tracer.find("evict:", cat="cluster")
        assert event["tid"] == 3
        assert event["args"] == {"shard": "shard2"}

    def test_find_filters_by_prefix_and_category(self):
        tracer = TraceRecorder()
        tracer.span("request", 0, 10, cat="request")
        tracer.instant("fault:kill", ts_ns=5, cat="fault")
        tracer.instant("fault:heal", ts_ns=8, cat="fault")
        assert len(tracer.find("fault:")) == 2
        assert len(tracer.find("fault:", cat="request")) == 0
        assert len(tracer.find("", cat="request")) == 1


class TestRequestRows:
    """A served request is kept as one row; the span family is what
    the readers (find, the exporters) see of it."""

    def test_a_row_reads_as_its_family_in_emission_order(self):
        tracer = TraceRecorder()
        detail = {"seq": 4, "shard": "shard1"}
        tracer.request(1, 100, 300, 800, overhead_ns=250.9,
                       detail=detail)
        assert len(tracer.requests) == 1 and tracer.events == []
        members = tracer.find("")
        assert [(m["name"], m["cat"], m["ts"], m["dur"], m["tid"])
                for m in members] == [
            ("request", "request", 100, 950, 1),
            ("queue", "queue", 100, 200, 1),
            ("hop:shard1", "request", 300, 500, 1),
            ("reply", "request", 800, 250, 1)]
        assert [m["args"] for m in members] == [detail, {}, {}, {}]
        assert all(m["ph"] == "X" for m in members)

    def test_reply_only_with_overhead_and_never_on_a_drop(self):
        tracer = TraceRecorder()
        tracer.request(0, 0, 10, 30, detail={"core": 2})
        tracer.request(0, 40, 40, 70, overhead_ns=5,
                       detail={"seq": 1}, dropped=True)
        names = [m["name"] for m in tracer.find("")]
        assert names == ["request", "queue", "kernel@core2",
                         "request", "queue", "kernel"]
        first, second = tracer.find("request")
        assert first["args"] == {"core": 2}
        assert second["args"] == {"seq": 1, "dropped": True}
        assert second["dur"] == 35
        assert tracer.requests[1][6] == {"seq": 1}   # detail untouched

    def test_an_instant_between_two_rows_exports_between_them(self):
        tracer = TraceRecorder()
        tracer.request(0, 500, 500, 500)
        tracer.instant("fault:kill", ts_ns=500)
        tracer.request(0, 500, 500, 500)
        names = [m["name"] for m in tracer.find("")]
        assert names == ["request", "queue", "kernel", "fault:kill",
                         "request", "queue", "kernel"]
        tsv = [line.split("\t")[5]
               for line in tracer.to_tsv().splitlines()[1:]]
        assert tsv == names

    @pytest.mark.parametrize("times, overhead", [
        ((100, 90, 120), 0),         # dispatched before it arrived
        ((100, 110, 105), 0),        # done before it was dispatched
        ((100, 110, 120), -1),       # negative wire overhead
    ])
    def test_a_negative_phase_raises_at_record_time(self, times,
                                                    overhead):
        tracer = TraceRecorder()
        with pytest.raises(ObsError):
            tracer.request(0, *times, overhead_ns=overhead)
        assert tracer.requests == []

    def test_len_and_repr_count_members_without_building_them(
            self, monkeypatch):
        tracer = TraceRecorder()
        tracer.request(0, 0, 1, 2, overhead_ns=3)            # 4 spans
        tracer.request(0, 0, 1, 2)                           # 3
        tracer.request(0, 0, 1, 2, overhead_ns=3, dropped=True)   # 3
        tracer.span("adhoc", 0, 1)
        tracer.instant("tick", ts_ns=1)
        assert len(tracer) == len(tracer.find("")) == 12

        def built(row):
            raise AssertionError("counting built a family")

        monkeypatch.setattr("repro.obs.trace.family", built)
        assert len(tracer) == 12
        assert repr(tracer) == "TraceRecorder(11 spans, 1 instants)"


class TestOrdering:
    def test_events_export_sorted_by_timestamp(self):
        tracer = TraceRecorder()
        tracer.span("late", 500, 10)
        tracer.span("early", 100, 10)
        names = [event["name"] for event in tracer._ordered()]
        assert names == ["early", "late"]

    def test_equal_timestamps_keep_record_order(self):
        tracer = TraceRecorder()
        for index in range(5):
            tracer.instant("e%d" % index, ts_ns=777)
        names = [event["name"] for event in tracer._ordered()]
        assert names == ["e0", "e1", "e2", "e3", "e4"]


class TestChromeExport:
    def _sample(self):
        tracer = TraceRecorder(process="unit")
        tracer.name_track(0, "fpga")
        tracer.span("request", 1000, 2500, track=0,
                    args={"seq": 0})
        tracer.instant("fault:kill", ts_ns=2000, cat="fault")
        return tracer

    def test_timestamps_convert_to_microseconds(self):
        document = self._sample().to_chrome()
        spans = [e for e in document["traceEvents"]
                 if e.get("ph") == "X"]
        assert spans[0]["ts"] == 1.0
        assert spans[0]["dur"] == 2.5

    def test_metadata_names_the_track(self):
        document = self._sample().to_chrome()
        meta = [e for e in document["traceEvents"]
                if e.get("ph") == "M"]
        assert meta[0]["args"]["name"] == "fpga"
        assert meta[0]["tid"] == 0

    def test_instants_have_global_scope(self):
        document = self._sample().to_chrome()
        instants = [e for e in document["traceEvents"]
                    if e.get("ph") == "i"]
        assert instants[0]["s"] == "g"

    def test_export_passes_the_validator(self):
        document = json.loads(self._sample().to_json())
        assert validate_trace(document) == []

    def test_json_is_deterministic_for_identical_inputs(self):
        assert self._sample().to_json() == self._sample().to_json()

    def test_round_trip_through_files(self, tmp_path):
        tracer = self._sample()
        path = tracer.write_json(str(tmp_path / "trace.json"))
        with open(path) as handle:
            assert validate_trace(json.load(handle)) == []


class TestTsvExport:
    def test_tsv_shape(self):
        tracer = TraceRecorder()
        tracer.span("request", 1000, 500, track=2, cat="request",
                    args={"seq": 1})
        tracer.instant("tail-drop", ts_ns=1200, track=2, cat="queue")
        lines = tracer.to_tsv().strip().split("\n")
        assert lines[0].split("\t") == [
            "ts_ns", "dur_ns", "track", "cat", "kind", "name", "args"]
        span = lines[1].split("\t")
        assert span[:6] == ["1000", "500", "2", "request", "span",
                            "request"]
        assert json.loads(span[6]) == {"seq": 1}
        drop = lines[2].split("\t")
        assert drop[:6] == ["1200", "0", "2", "queue", "instant",
                            "tail-drop"]


class TestValidator:
    def test_rejects_spanless_traces(self):
        problems = validate_trace({"traceEvents": []})
        assert any("no spans" in p for p in problems)

    def test_rejects_missing_fields(self):
        document = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 0,
             "dur": 1},
            {"name": "y", "ph": "X"},
        ]}
        problems = validate_trace(document)
        assert any("missing" in p for p in problems)

    def test_rejects_unsorted_timestamps(self):
        document = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 5, "dur": 1, "pid": 1,
             "tid": 0},
            {"name": "b", "ph": "X", "ts": 1, "dur": 1, "pid": 1,
             "tid": 0},
        ]}
        problems = validate_trace(document)
        assert any("not sorted" in p for p in problems)

    def test_rejects_non_json_top_level(self):
        assert validate_trace([1, 2]) != []
