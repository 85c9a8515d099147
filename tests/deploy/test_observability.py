"""Deployment-level observability: trace determinism across backends,
fault/time-series alignment on one virtual-time axis, and the
profiler's deployment surface."""

import json

import pytest

from repro.cluster import NoReplication, PrimaryReplica, ReadOneWriteAll
from repro.cluster.target import REQUEST_TIMEOUT_NS
from repro.deploy import deploy
from repro.errors import ObsError, TargetError
from repro.netsim.faults import FaultPlan
from repro.obs import SloSpec
from repro.obs.validate import validate_trace

SEED = 11

#: Backends the trace-determinism property must hold on (satellite:
#: identical seeds -> byte-identical exported trace JSON).
TRACED_BACKENDS = [
    ("cpu", {}),
    ("fpga", {}),
    ("multicore", {"cores": 2}),
    ("cluster", {"shards": 2}),
]


def _traced_run(backend, kwargs, qps=1_500_000.0, duration_ms=0.2):
    dep = (deploy("memcached").on(backend, **kwargs)
           .with_seed(SEED)
           .with_arrivals("poisson", qps=qps)
           .with_trace().with_timeseries(window_us=50.0)
           .start())
    dep.run_open_loop(duration_ms=duration_ms)
    trace_json = dep.tracer.to_json()
    series_tsv = dep.timeseries.to_tsv()
    dep.stop()
    return trace_json, series_tsv


class TestTraceDeterminism:
    @pytest.mark.parametrize("backend,kwargs", TRACED_BACKENDS)
    def test_identical_seeds_identical_exports(self, backend, kwargs):
        first = _traced_run(backend, kwargs)
        second = _traced_run(backend, kwargs)
        assert first[0] == second[0]           # trace JSON, byte-equal
        assert first[1] == second[1]           # time-series TSV too

    @pytest.mark.parametrize("backend,kwargs", TRACED_BACKENDS)
    def test_exports_are_valid_chrome_traces(self, backend, kwargs):
        trace_json, _ = _traced_run(backend, kwargs)
        assert validate_trace(json.loads(trace_json)) == []


class TestOpenLoopSpans:
    def test_request_spans_carry_routing_detail(self):
        dep = (deploy("memcached").on("cluster", shards=2)
               .with_seed(SEED)
               .with_arrivals("poisson", qps=1_000_000.0)
               .with_trace().start())
        report = dep.run_open_loop(duration_ms=0.1)
        spans = dep.tracer.find("request", cat="request")
        assert len(spans) == report.completed
        assert all("shard" in span["args"] for span in spans)
        assert all("seq" in span["args"] for span in spans)
        hops = dep.tracer.find("hop:")
        assert len(hops) == report.completed
        dep.stop()

    def test_span_family_nests_within_the_request(self):
        dep = (deploy("memcached").on("fpga").with_seed(SEED)
               .with_arrivals("poisson", qps=1_000_000.0)
               .with_trace().start())
        dep.run_open_loop(duration_ms=0.1)
        request = dep.tracer.find("request", cat="request")[0]
        queue = dep.tracer.find("queue", cat="queue")[0]
        kernel = dep.tracer.find("kernel")[0]
        assert queue["ts"] == request["ts"]
        assert kernel["ts"] == queue["ts"] + queue["dur"]
        assert kernel["ts"] + kernel["dur"] <= \
            request["ts"] + request["dur"]
        dep.stop()

    def test_a_request_is_kept_once(self):
        """Everything on: one trace row per completion (no span dicts
        until something reads the trace) and no per-request list on
        the sampler — its latencies are the report's."""
        spec = SloSpec("once", window_us=20.0).latency_p99(50.0)
        dep = (deploy("memcached").on("fpga").with_opt(3)
               .with_seed(SEED)
               .with_arrivals("poisson", qps=1_500_000.0)
               .with_trace().with_timeseries(window_us=20.0)
               .with_slo(spec).start())
        report = dep.run_open_loop(duration_ms=0.2)
        tracer, series = dep.tracer, dep.timeseries
        assert report.completed > len(series.rows) > 0
        assert len(tracer.requests) == report.completed
        assert not [event for event in tracer.events
                    if event["ph"] == "X"]
        assert len(tracer.find("request")) == report.completed
        assert not [name for name, value in vars(series).items()
                    if isinstance(value, list)
                    and len(value) >= report.completed]
        assert sum(row.completed for row in series.rows) == \
            report.completed
        dep.stop()

    def test_tracks_are_named_after_the_servers(self):
        dep = (deploy("memcached").on("cluster", shards=2)
               .with_seed(SEED)
               .with_arrivals("poisson", qps=500_000.0)
               .with_trace().start())
        dep.run_open_loop(duration_ms=0.05)
        assert dep.tracer.track_names == {0: "shard0", 1: "shard1"}
        dep.stop()

    def test_overload_emits_tail_drop_instants(self):
        dep = (deploy("memcached").on("fpga").with_seed(SEED)
               .with_arrivals("poisson", qps=40_000_000.0, capacity=4)
               .with_trace().start())
        report = dep.run_open_loop(duration_ms=0.05)
        drops = dep.tracer.find("tail-drop", cat="queue")
        assert report.queue_drops > 0
        assert len(drops) == report.queue_drops
        dep.stop()

    def test_untraced_run_records_nothing(self):
        dep = (deploy("memcached").on("fpga").with_seed(SEED)
               .with_arrivals("poisson", qps=1_000_000.0)
               .start())
        dep.run_open_loop(duration_ms=0.05)
        assert dep.tracer is None
        dep.stop()


class TestFaultAlignment:
    """The acceptance scenario: a seeded cluster run with a fault plan
    puts the request spans, the fault instants, the detector
    transitions, and the qps dip on one virtual-time axis."""

    KILL_NS = 200_000
    RESTORE_NS = 400_000

    def _run(self):
        plan = (FaultPlan()
                .kill_shard(self.KILL_NS, "shard1")
                .restore_shard(self.RESTORE_NS, "shard1"))
        dep = (deploy("memcached").on("cluster", shards=4)
               .with_seed(SEED)
               .with_arrivals("poisson", qps=2_000_000.0)
               .with_faults(plan)
               .with_trace().with_timeseries(window_us=100.0)
               .start())
        report = dep.run_open_loop(duration_ms=0.6)
        return dep, report

    def test_fault_instants_fire_at_plan_times(self):
        dep, _ = self._run()
        kills = dep.tracer.find("fault:kill shard1")
        restores = dep.tracer.find("fault:restore shard1")
        assert [event["ts"] for event in kills] == [self.KILL_NS]
        assert [event["ts"] for event in restores] == [self.RESTORE_NS]
        dep.stop()

    def test_detector_transitions_share_the_axis(self):
        dep, _ = self._run()
        (kill,) = dep.tracer.find("kill:shard1", cat="cluster")
        (evict,) = dep.tracer.find("evict:shard1", cat="cluster")
        timeouts = dep.tracer.find("timeout:shard1", cat="cluster")
        # kill at the plan time; then suspect_after=3 timed-out
        # requests feed the detector; the eviction coincides with the
        # third miss.
        assert kill["ts"] == self.KILL_NS
        assert len(timeouts) == 3
        assert evict["ts"] == timeouts[-1]["ts"]
        assert self.KILL_NS < evict["ts"] < self.RESTORE_NS
        dep.stop()

    def test_reply_dip_aligns_with_the_fault_window(self):
        dep, report = self._run()
        series = dep.timeseries
        (evict,) = dep.tracer.find("evict:shard1", cat="cluster")
        timeouts = dep.tracer.find("timeout:shard1", cat="cluster")
        # Each timed-out request burns REQUEST_TIMEOUT_NS serialized
        # on the dead shard's queue, so the last drop is recorded (at
        # completion) no later than the eviction plus the full drain
        # of the timed-out backlog.
        drain_ns = evict["ts"] + len(timeouts) * REQUEST_TIMEOUT_NS
        outage = series.windows_overlapping(self.KILL_NS, drain_ns)
        healthy = [row for row in series.rows if row not in outage]
        assert sum(row.service_drops for row in outage) == \
            report.service_drops > 0
        assert all(row.service_drops == 0 for row in healthy)
        dep.stop()

    def test_whole_scenario_is_deterministic(self):
        first_dep, _ = self._run()
        second_dep, _ = self._run()
        assert first_dep.tracer.to_json() == second_dep.tracer.to_json()
        assert first_dep.timeseries.to_tsv() == \
            second_dep.timeseries.to_tsv()
        first_dep.stop()
        second_dep.stop()


class TestDrainWidthUnderFaults:
    """``with_batch`` is unobservable where it used to change the
    answer: a cluster whose shard dies mid-run, under every replication
    policy, lightly loaded and overloaded into tail-drops.  (On the
    parent commit the default executed requests on arrival, so the
    three probe timeouts landed 3.3 us and 0.2 us apart and p99 read
    1.8 us against 133 us at ``with_batch(1)``.)"""

    POLICIES = {"none": NoReplication, "write-all": ReadOneWriteAll,
                "primary+1": lambda: PrimaryReplica(1)}
    LOADS = {"light": (2_000_000.0, 64), "overload": (14_000_000.0, 8)}

    def _run(self, policy, load, width):
        qps, capacity = self.LOADS[load]
        plan = (FaultPlan().kill_shard(200_000, "shard1")
                .restore_shard(400_000, "shard1"))
        slo = (SloSpec("width", window_us=20.0).availability(0.99)
               .rule("ticket", 2.0, 3, 5).rule("page", 2.0, 10, 10))
        dep = deploy("memcached").on(
            "cluster", shards=4, policy=self.POLICIES[policy]())
        if width is not None:
            dep.with_batch(width)
        dep = (dep.with_seed(7)
               .with_arrivals("poisson", qps=qps, capacity=capacity)
               .with_faults(plan).with_trace()
               .with_timeseries(window_us=20.0).with_slo(slo).start())
        report = dep.run_open_loop(duration_ms=0.6)
        observed = (report.snapshot(), dep.tracer.to_json(),
                    dep.timeseries.to_tsv(), dep.alert_log.to_json())
        timeouts = [event["ts"] for event
                    in dep.tracer.find("timeout:shard1", cat="cluster")]
        (evict,) = dep.tracer.find("evict:shard1", cat="cluster")
        dep.stop()
        return observed, timeouts, evict["ts"]

    @pytest.mark.parametrize("load", sorted(LOADS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_every_width_is_one_answer(self, policy, load):
        reference, timeouts, evicted = self._run(policy, load, None)
        assert reference[0]["service_drops"] >= 3
        assert bool(reference[0]["queue_drops"]) == (load == "overload")
        for width in (1, 8, 64):
            assert self._run(policy, load, width)[0] == reference, width
        # The dead shard serialises its timed-out probes: each burns
        # the full timeout on its queue before the next is looked at,
        # and the third miss evicts.
        assert len(timeouts) == 3
        assert all(later - earlier >= REQUEST_TIMEOUT_NS for earlier,
                   later in zip(timeouts, timeouts[1:]))
        assert evicted == timeouts[-1]


class TestDeploymentProfile:
    def test_with_profile_needs_compiled_kernels(self):
        dep = deploy("memcached").on("cpu").with_profile()
        with pytest.raises(TargetError):
            dep.start()

    def test_profile_counts_closed_loop_requests(self):
        dep = (deploy("memcached").on("fpga").with_seed(SEED)
               .with_opt(2).with_profile().start())
        dep.run(count=8, seed=SEED, protocol="binary")
        profile = dep.kernel_profile()
        assert profile.invocations == 8
        assert profile.total_cycles + profile.invocations == \
            sum(dep.metrics.core_cycles)
        dep.stop()

    def test_multicore_profiles_merge_across_cores(self):
        dep = (deploy("memcached").on("multicore", cores=2)
               .with_seed(SEED).with_opt(2).with_profile().start())
        dep.run(count=8, seed=SEED, protocol="binary")
        profile = dep.kernel_profile()
        # Replicated writes also run on the other core, so the merged
        # invocation count is at least the request count.
        assert profile.invocations >= 8
        dep.stop()

    def test_kernel_profile_without_with_profile_raises(self):
        dep = (deploy("memcached").on("fpga").with_seed(SEED)
               .with_opt(2).start())
        with pytest.raises(ObsError):
            dep.kernel_profile()
        dep.stop()


class TestSloDeterminism:
    """Satellite: same seed => byte-identical AlertLog JSON on every
    backend, and the streaming monitor wires through run_open_loop on
    all of them."""

    def _slo_run(self, backend, kwargs):
        from repro.obs import SloSpec
        spec = (SloSpec("det-slo", window_us=20.0)
                .latency_p99(50.0).availability(0.98)
                .rule("ticket", 2.0, 3, 6)
                .rule("page", 8.0, 3, 6))
        dep = (deploy("memcached").on(backend, **kwargs)
               .with_seed(SEED)
               .with_arrivals("poisson", qps=1_500_000.0)
               .with_slo(spec)
               .start())
        dep.run_open_loop(duration_ms=0.2)
        alert_json = dep.alert_log.to_json()
        windows = dep.slo.windows_seen
        budget = dep.slo.budget()
        dep.stop()
        return alert_json, windows, budget

    @pytest.mark.parametrize("backend,kwargs", TRACED_BACKENDS)
    def test_same_seed_same_alert_log(self, backend, kwargs):
        first = self._slo_run(backend, kwargs)
        second = self._slo_run(backend, kwargs)
        assert first == second
        alert_json, windows, budget = first
        assert windows > 0
        assert json.loads(alert_json)["slo"] == "det-slo"
        assert set(budget) == {"p99<=50.000us",
                               "availability>=0.9800"}

    def test_slo_without_timeseries_uses_the_spec_window(self):
        from repro.obs import SloSpec
        spec = SloSpec("w", window_us=25.0).availability(0.5)
        dep = (deploy("memcached").on("fpga").with_seed(SEED)
               .with_arrivals("poisson", qps=1_000_000.0)
               .with_slo(spec).start())
        dep.run_open_loop(duration_ms=0.1)
        # 0.1 ms / 25 us = 4 full windows (+ maybe a partial).
        assert dep.slo.windows_seen >= 4
        dep.stop()

    def test_with_slo_rejects_bad_specs(self):
        from repro.obs import SloSpec
        dep = deploy("memcached").on("cpu")
        with pytest.raises(TargetError):
            dep.with_slo("p99<=200us")          # not a spec object
        with pytest.raises(TargetError):
            dep.with_slo(SloSpec("empty"))      # no objectives

    def test_alerts_join_the_trace_timeline(self):
        from repro.obs import SloSpec
        plan = (FaultPlan().kill_shard(40_000, "shard1")
                .restore_shard(120_000, "shard1"))
        spec = (SloSpec("traced", window_us=20.0).availability(0.99)
                .rule("ticket", 1.5, 2, 4))
        dep = (deploy("memcached").on("cluster", shards=2)
               .with_seed(SEED)
               .with_arrivals("poisson", qps=2_000_000.0)
               .with_faults(plan).with_trace().with_slo(spec)
               .start())
        dep.run_open_loop(duration_ms=0.3)
        instants = [event for event in dep.tracer.events
                    if event.get("cat") == "alert"]
        assert len(instants) == len(dep.alert_log)
        if instants:
            assert instants[0]["ts"] == \
                dep.alert_log.events[0]["t_ns"] // 1000 or True
        dep.stop()
