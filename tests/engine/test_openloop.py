"""Open-loop load layer: arrivals, queueing, drops, determinism.

Seeded per tests/README: one module SEED, one stream per property.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import openloop_sweep as sweep
import strategies
from repro.deploy import deploy
from repro.cluster.balancer import flow_key
from repro.cluster.replication import PrimaryReplica, ReadOneWriteAll
from repro.deploy.backends import BACKENDS
from repro.engine.openloop import ArrivalSpec, run_open_loop
from repro.errors import EngineError, TargetError
from repro.netsim.faults import FaultPlan
from repro.services.catalog import registry

SEED = "engine-openloop"


class TestArrivalSpec:
    def test_rejects_unknown_process(self):
        with pytest.raises(EngineError):
            ArrivalSpec("burst")

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(EngineError):
            ArrivalSpec("poisson", qps=0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(EngineError):
            ArrivalSpec("poisson", capacity=0)

    def test_uniform_gaps_are_exact(self):
        spec = ArrivalSpec("uniform", qps=1e6)   # 1000 ns gaps
        rng = random.Random("%s/uniform" % SEED)
        times = spec.times(10_000, rng)
        assert times == [1000 * k for k in range(1, 10)]

    def test_poisson_is_seeded(self):
        spec = ArrivalSpec("poisson", qps=1e6)
        first = spec.times(50_000, random.Random("%s/p" % SEED))
        second = spec.times(50_000, random.Random("%s/p" % SEED))
        other = spec.times(50_000, random.Random("%s/q" % SEED))
        assert first == second
        assert first != other
        assert all(t < 50_000 for t in first)


def _fpga_deployment(qps, capacity=None, seed=11):
    return (deploy("memcached").on("fpga").with_seed(seed)
            .with_arrivals("poisson", qps=qps, capacity=capacity)
            .start())


class TestOpenLoopRuns:
    def test_light_load_no_queueing_no_drops(self):
        dep = _fpga_deployment(qps=200_000.0)
        report = dep.run_open_loop(duration_ms=0.5)
        assert report.offered > 0
        assert report.completed == report.admitted == report.offered
        assert report.queue_drops == 0
        assert report.replies == report.completed
        assert report.p99_latency_us() >= report.p50_latency_us()

    def test_overload_fills_queues_and_drops(self):
        """Offered load far above the service rate: the ingest queue
        pegs at capacity, tail-drops appear, and waiting dominates the
        latency distribution (p50 ~ full-queue wait >> unloaded)."""
        dep = _fpga_deployment(qps=8_000_000.0, capacity=16)
        report = dep.run_open_loop(duration_ms=0.5)
        assert report.queue_drops > 0
        assert report.max_queue_depth() == 16
        assert report.drop_rate > 0.2
        unloaded = _fpga_deployment(qps=100_000.0, seed=11)
        baseline = unloaded.run_open_loop(duration_ms=0.5)
        assert report.p50_latency_us() > 3 * baseline.p50_latency_us()
        # A dropped request is never processed: the backend saw only
        # the admitted ones.
        assert dep.backend.stats()["frames_in"] == report.admitted

    def test_deterministic_replay(self):
        first = _fpga_deployment(qps=3_000_000.0).run_open_loop(
            duration_ms=0.4)
        second = _fpga_deployment(qps=3_000_000.0).run_open_loop(
            duration_ms=0.4)
        assert first.snapshot() == second.snapshot()
        assert first.latencies_ns == second.latencies_ns

    def test_seed_changes_the_run(self):
        first = _fpga_deployment(qps=3_000_000.0, seed=11)
        second = _fpga_deployment(qps=3_000_000.0, seed=12)
        assert first.run_open_loop(duration_ms=0.4).latencies_ns != \
            second.run_open_loop(duration_ms=0.4).latencies_ns

    def test_requires_with_arrivals(self):
        dep = deploy("memcached").on("fpga").start()
        with pytest.raises(TargetError):
            dep.run_open_loop(duration_ms=0.1)

    def test_multicore_routes_by_port(self):
        dep = (deploy("memcached").on("multicore", cores=4)
               .with_seed(11).with_arrivals("uniform", qps=1_000_000.0)
               .start())
        report = dep.run_open_loop(duration_ms=0.3)
        assert len(report.servers) == 4
        assert report.completed == report.admitted

    def test_cluster_routes_by_key(self):
        dep = (deploy("memcached").on("cluster", shards=4)
               .with_seed(11).with_arrivals("poisson", qps=2_000_000.0)
               .start())
        report = dep.run_open_loop(duration_ms=0.3)
        assert len(report.servers) == 4
        # Consistent hashing spreads the keys over several shards.
        assert sum(1 for s in report.servers if s.arrivals) >= 2

    def test_snapshot_shape_uniform_across_backends(self):
        shapes = []
        for backend in ("cpu", "fpga", "netsim"):
            dep = (deploy("memcached").on(backend).with_seed(11)
                   .with_arrivals("poisson", qps=200_000.0).start())
            snapshot = dep.run_open_loop(duration_ms=0.2).snapshot()
            shapes.append(sorted(snapshot))
        assert shapes[0] == shapes[1] == shapes[2]

    def test_cpu_backend_has_no_timing_model(self):
        dep = (deploy("memcached").on("cpu").with_seed(11)
               .with_arrivals("poisson", qps=200_000.0).start())
        report = dep.run_open_loop(duration_ms=0.2)
        assert report.completed == report.offered
        assert report.p99_latency_us() == 0.0

    def test_cluster_unroutable_frame_is_dropped_not_fatal(self):
        """Regression: a frame with no routable key must record a
        service drop instead of aborting the run with ClusterError
        (closed-loop send() raises; open loop moves on).  It waits on
        server 0 and runs on no shard — alone, and mixed into routable
        traffic at any burst width."""
        dep = (deploy("memcached")
               .on("cluster", shards=2, key_fn=lambda data: None)
               .with_seed(11).with_arrivals("uniform", qps=1_000_000.0)
               .start())
        report = dep.run_open_loop(duration_ms=0.01)
        assert report.completed == report.offered > 0
        assert report.servers[0].arrivals == report.offered
        assert report.service_drops == report.completed
        assert report.replies == 0
        assert dep.target.requests == 0
        assert set(dep.target.shard_loads.values()) == {0}

        def some_keys(data):
            key = flow_key(data)
            return None if key[-1] % 3 == 0 else key

        frames = list(registry()["memcached"].workload(400, 11))
        unroutable = [some_keys(frame.data) is None for frame in frames]
        snapshots = []
        for width in (64, 1):
            dep = (deploy("memcached")
                   .on("cluster", shards=2, key_fn=some_keys)
                   .with_seed(11).with_batch(width)
                   .with_arrivals("poisson", qps=2e6, capacity=None)
                   .start())
            report = dep.run_open_loop(duration_ms=0.15, frames=frames)
            dropped = sum(unroutable[:report.offered])
            assert 0 < dropped < report.offered
            assert report.service_drops >= dropped
            assert dep.target.requests == report.offered - dropped
            assert sum(dep.target.shard_loads.values()) == \
                report.offered - dropped
            snapshots.append(report.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_a_queue_admits_exactly_its_capacity(self):
        """Arrivals 1 ns apart on one server: the first goes into
        service, the next ``capacity`` fill its queue, and only the
        one after them is refused."""
        dep = _fpga_deployment(qps=1e6)
        frames = dep.spec.workload(6, 11)
        spec = ArrivalSpec("uniform", qps=1e9, capacity=4)
        report = run_open_loop(dep.backend, spec, frames, duration_ns=7)
        assert (report.offered, report.admitted, report.queue_drops,
                report.completed) == (6, 5, 1, 5)
        assert report.max_queue_depth() == 4

    def test_report_text_renders(self):
        report = _fpga_deployment(qps=500_000.0).run_open_loop(
            duration_ms=0.2)
        text = report.text()
        assert "Open loop" in text
        assert "p99_latency_us" in text
        assert "p999_latency_us" in text
        assert "mean_queue_depth" in text


class TestReportDepthAndTail:
    def test_snapshot_has_mean_depth_and_p999(self):
        report = _fpga_deployment(qps=500_000.0).run_open_loop(
            duration_ms=0.2)
        snapshot = report.snapshot()
        assert "mean_queue_depth" in snapshot
        assert "p999_latency_us" in snapshot
        assert snapshot["p999_latency_us"] >= \
            snapshot["p99_latency_us"]

    def test_mean_depth_sits_below_max_under_load(self):
        dep = _fpga_deployment(qps=8_000_000.0, capacity=16)
        report = dep.run_open_loop(duration_ms=0.5)
        mean = report.mean_queue_depth()
        assert 0.0 < mean < report.max_queue_depth()

    def test_mean_depth_is_arrival_weighted(self):
        """Direct check on the definition: depth samples are taken at
        each arrival, so the mean is sum(samples)/arrivals."""
        report = _fpga_deployment(
            qps=8_000_000.0, capacity=16).run_open_loop(duration_ms=0.3)
        samples = sum(server.depth_samples
                      for server in report.servers)
        arrivals = sum(server.arrivals for server in report.servers)
        assert report.mean_queue_depth() == \
            pytest.approx(samples / arrivals)

    def test_idle_run_mean_depth_zero(self):
        report = _fpga_deployment(qps=100_000.0).run_open_loop(
            duration_ms=0.1)
        assert report.mean_queue_depth() == 0.0


class TestPercentileCache:
    """The cached sort in ``_percentile_ns`` must be invisible: same
    p50/p99/p999 as a fresh sort, on every call, even after more
    latencies are appended."""

    def _fresh(self, latencies, fraction):
        from repro.obs.metrics import interpolate_percentile
        return interpolate_percentile(sorted(latencies), fraction)

    def test_percentiles_unchanged_by_cache(self):
        from repro.engine.openloop import OpenLoopReport
        rng = random.Random("%s/pcache" % SEED)
        report = OpenLoopReport(ArrivalSpec("uniform", qps=1e6),
                                duration_ns=1000, num_servers=1)
        report.latencies_ns.extend(rng.randrange(100, 100000)
                                   for _ in range(499))
        for fraction, method in [(0.50, report.p50_latency_us),
                                 (0.99, report.p99_latency_us),
                                 (0.999, report.p999_latency_us)]:
            expected = self._fresh(report.latencies_ns, fraction) / 1000.0
            assert method() == expected
            assert method() == expected      # second call hits the cache
        # Appending invalidates: the next call re-sorts and shifts.
        report.latencies_ns.extend([1, 10**9])
        for fraction, method in [(0.50, report.p50_latency_us),
                                 (0.99, report.p99_latency_us),
                                 (0.999, report.p999_latency_us)]:
            assert method() == \
                self._fresh(report.latencies_ns, fraction) / 1000.0

    def test_cache_reused_between_calls(self):
        from repro.engine.openloop import OpenLoopReport
        report = OpenLoopReport(ArrivalSpec("uniform", qps=1e6),
                                duration_ns=1000, num_servers=1)
        report.latencies_ns.extend([300, 100, 200])
        report.p50_latency_us()
        first = report._sorted_latencies
        assert first == [100, 200, 300]
        report.p99_latency_us()
        assert report._sorted_latencies is first

    def test_empty_report_percentiles_are_none(self):
        from repro.engine.openloop import OpenLoopReport
        report = OpenLoopReport(ArrivalSpec("uniform", qps=1e6),
                                duration_ns=1000, num_servers=1)
        assert report.p50_latency_us() is None
        assert report.p999_latency_us() is None


@functools.lru_cache(maxsize=None)
def _sweep_run(case):
    return sweep.run_case(case)


class TestSameBytesAcrossCommits:
    """"Same seed => same bytes" held across a change to the runtime,
    not only between two runs of one commit: the digests in
    ``openloop_sweep.PINNED`` were recorded on the generator-process
    scheduler, before ``run_open_loop`` became plain heap events."""

    @pytest.mark.parametrize("case", sorted(sweep.PINNED))
    def test_digest_is_the_recorded_one(self, case):
        artefacts, _ = _sweep_run(case)
        assert sweep.digest(artefacts) == sweep.PINNED[case]

    def test_every_case_has_a_recorded_digest(self):
        assert set(sweep.DIGESTS) == set(sweep.CASES)

    def test_pinned_cases_span_the_sweep(self):
        assert len(sweep.CASES) == 90
        pinned = [sweep.CASES[name] for name in sweep.PINNED]
        assert {case.backend for case in pinned} == \
            {"cpu", "fpga", "multicore", "cluster", "netsim"}
        assert {case.policy for case in pinned} >= \
            {"primary+1", "write-all"}
        assert {case.obs for case in pinned} == {False, True}
        assert any(case.faults for case in pinned)
        assert any(case.qps == 12e6 for case in pinned)

    def test_completions_are_accounted_before_the_next_request_runs(
            self):
        """The same-nanosecond order: every completion at an instant
        is accounted before any server executes its next request —
        the next request's ``start`` is a zero-delay event behind the
        completions already queued, never a call from inside one.
        Under ``ReadOneWriteAll`` a write's ``replica-apply:*``
        instants fire while it executes, so in export order none may
        precede a ``reply`` span (stamped at its completion) that
        starts at the same timestamp."""
        _, dep = _sweep_run("memcached-cluster-12M-write-all-obs")
        events = dep.tracer.find()
        completing = {}
        for event in events:
            if event["name"].startswith("hop:"):
                completing.setdefault(event["ts"] + event["dur"],
                                      set()).add(event["tid"])
        applied = {event["ts"] for event in events
                   if event["name"].startswith("replica-apply:")}
        # Not vacuous: two servers complete in one nanosecond and a
        # replicated write executes in that same nanosecond.
        assert any(len(tracks) > 1 and when in applied
                   for when, tracks in completing.items())
        executed = set()
        for event in events:
            if event["name"].startswith("replica-apply:"):
                executed.add(event["ts"])
            elif event["name"] == "reply":
                assert event["ts"] not in executed, event


#: service -> the opt level its ``fpga`` deployment runs below (``None``:
#: behavioural pause counting).
FPGA_SERVICES = {"memcached": 3, "nat": 2, "dns": None}


def _started(service, backend="fpga", seed=11, opt=None, **scale):
    dep = deploy(service).on(backend, **scale).with_seed(seed)
    if opt is None and backend != "cpu":
        opt = FPGA_SERVICES[service]
    if opt is not None:
        dep.with_opt(opt)
    return dep.start()


@functools.lru_cache(maxsize=None)
def _modeled_max_qps(service):
    dep = _started(service)
    return dep.max_qps(next(iter(dep.spec.workload(1, 11))))


@functools.lru_cache(maxsize=None)
def _workload(service, count, seed):
    """One frame list per stream, replayed through every run that asks
    for it (as ``bench/`` replays its slices): a run that wrote a
    caller's frame would fail the next run's comparison too."""
    return tuple(registry()[service].workload(count, seed))


def _identity(frames):
    return [(bytes(frame.data), frame.src_port, frame.dst_ports,
             frame.timestamp_ns) for frame in frames]


def _engine_run(width, capacity, process, qps, service="memcached",
                backend="fpga", seed=11, duration_ns=50_000, opt=None,
                plan=None, **scale):
    """The engine's ``run_open_loop`` at burst width *width* over a
    caller's frame list a fifth longer than the expected arrivals
    (under fault *plan*, when given); returns everything a width could
    leak into — replies per server, whose order across servers is
    free — and the frame count of each profile call."""
    dep = _started(service, backend, seed, opt, **scale)
    frames = list(_workload(
        service, int(1.2 * qps * duration_ns / 1e9) + 8, seed))
    offered, mine = _identity(frames), set(map(id, frames))
    replies, bursts = {}, []
    profile = dep.backend.open_loop_profile_batch

    def capture(burst, server=None):
        assert mine.isdisjoint(map(id, burst))     # copies only
        outcomes = profile(burst, server)
        bursts.append(len(burst))
        for emitted, _, _ in outcomes:
            replies.setdefault(server, []).extend(
                bytes(reply.data) for _, reply in emitted)
        return outcomes

    dep.backend.open_loop_profile_batch = capture
    injector = None if plan is None else dep.backend.attach_faults(plan)
    report = run_open_loop(dep.backend,
                           ArrivalSpec(process, qps, capacity), frames,
                           duration_ns, seed=seed, injector=injector,
                           batch=width)
    stats = dep.stats()
    if backend == "cluster":
        assert dep.target.requests == report.admitted
    dep.stop()
    # The list outlasts the arrivals; nothing past them was executed
    # and the caller's frames come back as they were.
    assert report.offered < len(frames) and _identity(frames) == offered
    assert sum(bursts) == report.admitted == report.completed
    if backend == "fpga":
        assert stats["frames_in"] == report.admitted
    observed = (report.snapshot(), report.latencies_ns, replies, stats,
                [(server.arrivals, server.depth_samples, server.max_depth,
                  server.busy_ns) for server in report.servers])
    return observed, bursts


#: (service, backend, opt, scale) the width-vs-reference test runs:
#: one server, and four with routing fixed for the run.
WIDTH_LEGS = (("memcached", "fpga", None, {}),
              ("memcached", "cluster", 2, {"shards": 4}),
              ("dns", "cluster", None, {"shards": 4}))


class TestExecuteAhead:
    """Where routing is fixed for the run a server executes, with the
    request it starts, what waits behind it and the arrivals routed to
    it that cannot be refused; width 1 is the execute-at-dequeue
    reference."""

    @pytest.mark.parametrize("process", ["poisson", "uniform"])
    @pytest.mark.parametrize("qps", [2.5e6, 20e6],
                             ids=["underload", "overload"])
    @pytest.mark.parametrize("capacity", [1, 2, 3, 16, None])
    def test_every_width_is_the_dequeue_reference(self, capacity, qps,
                                                  process):
        for service, backend, opt, scale in WIDTH_LEGS:
            leg = dict(scale, service=service, backend=backend, opt=opt)
            reference, bursts = _engine_run(1, capacity, process, qps,
                                            **leg)
            assert set(bursts) == {1} and reference[2], backend
            if capacity is None:
                assert not reference[0]["queue_drops"]
            elif qps > 5e6:
                assert reference[0]["queue_drops"]
            for width in (2, 8, 64):
                observed, bursts = _engine_run(width, capacity, process,
                                               qps, **leg)
                assert observed == reference, (backend, width)
                assert 1 < max(bursts) <= width
                if capacity is not None:
                    assert max(bursts) <= capacity + 1

    @settings(strategies.SETTINGS, max_examples=20)
    @given(service=st.sampled_from(sorted(FPGA_SERVICES)),
           load=st.floats(0.1, 4.0), width=st.integers(1, 80),
           capacity=st.none() | st.integers(1, 80),
           process=st.sampled_from(["poisson", "uniform"]),
           seed=st.integers(0, 2 ** 16))
    def test_width_is_unobservable_at_any_load(self, service, load, width,
                                               capacity, process, seed):
        qps = load * _modeled_max_qps(service)
        runs = [_engine_run(each, capacity, process, qps, service,
                            seed=seed)
                for each in (1, width)]
        assert runs[0][0] == runs[1][0]

    def test_half_load_fills_the_lanes_where_routing_is_fixed(self):
        """Half the modeled maximum, default capacity: almost nothing
        ever waits, so without execute-ahead a profile call carries
        1.15 frames.  Routing is fixed on ``fpga`` and on a cluster
        that neither replicates nor faces a fault plan."""
        qps = 0.5 * _modeled_max_qps("memcached")

        def frames_per_call(backend, width, **scale):
            _, bursts = _engine_run(width, 64, "poisson", qps,
                                    backend=backend,
                                    duration_ns=200_000, **scale)
            return sum(bursts) / len(bursts)

        assert frames_per_call("fpga", 64) >= 32
        assert frames_per_call("fpga", 1) == 1
        assert frames_per_call("cluster", 64, shards=4) >= 32
        assert frames_per_call("cluster", 1, shards=4) == 1
        pending = FaultPlan().kill_shard(10 ** 9, "shard1")
        for backend, scale in (
                ("multicore", {"cores": 4}), ("cpu", {}),
                ("cluster", {"shards": 4, "policy": ReadOneWriteAll()}),
                ("cluster", {"shards": 4, "plan": pending})):
            assert frames_per_call(backend, 64, **scale) == 1, scale

    def test_independence_is_derived_from_live_state(self):
        """Execute-ahead rests on each server's outcomes depending on
        its own admitted sequence alone: ``fpga`` always (one server,
        no fault surface), an untraced cluster while no write reaches
        a second shard and no shard is down, nothing else."""
        fpga = _started("memcached")
        assert fpga.backend.open_loop_independent()
        with pytest.raises(TargetError, match="no fault surface"):
            fpga.backend.attach_faults(FaultPlan())
        cluster = _started("memcached", "cluster", shards=4)
        assert cluster.backend.open_loop_independent()
        assert not (deploy("memcached").on("cluster", shards=4)
                    .with_trace().start().backend.open_loop_independent())
        cluster.target.kill_shard("shard1")
        assert not cluster.backend.open_loop_independent()
        cluster.target.restore_shard("shard1")
        assert cluster.backend.open_loop_independent()
        for policy in (ReadOneWriteAll(), PrimaryReplica()):
            assert not _started("memcached", "cluster", shards=4,
                                policy=policy
                                ).backend.open_loop_independent()
        for backend, scale in (("multicore", {"cores": 4}), ("cpu", {}),
                               ("netsim", {})):
            assert not _started("memcached", backend, **scale
                                ).backend.open_loop_independent()
        assert not any(hasattr(cls, "burst_native")
                       for cls in BACKENDS.values())

    def test_a_cluster_request_is_routed_once(self):
        """Untraced, with routing fixed, ``owner_of`` runs once per
        arrival: the route the run computes up front is the one the
        shard executes under (3.00 before)."""
        dep = (deploy("dns").on("cluster", shards=4).with_opt(2)
               .with_seed(11).with_arrivals("poisson", qps=2.4e6)
               .start())
        calls = []
        owner_of = dep.target.owner_of

        def counted(frame):
            calls.append(1)
            return owner_of(frame)

        dep.target.owner_of = counted
        report = dep.run_open_loop(duration_ms=1.0)
        assert report.offered > 2000 and report.replies
        assert len(calls) == report.offered
