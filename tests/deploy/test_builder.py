"""The fluent Deployment builder: configuration, lifecycle, seeding."""

import pytest

from repro.deploy import Deployment, ServiceSpec, deploy
from repro.errors import TargetError
from repro.netsim.faults import FaultPlan
from repro.services.catalog import make_memcached, registry

SEED = 11


class TestDeployEntry:
    def test_accepts_registry_name(self):
        dep = deploy("memcached")
        assert isinstance(dep, Deployment)
        assert dep.spec.name == "memcached"

    def test_accepts_spec(self):
        spec = registry()["dns"]
        assert deploy(spec).spec is spec

    def test_accepts_bare_factory(self):
        dep = deploy(make_memcached)
        assert dep.spec.name == "make_memcached"
        dep.on("fpga").start()
        assert dep.target.service.name == "memcached"

    def test_unknown_name_rejected(self):
        with pytest.raises(TargetError, match="unknown service"):
            deploy("definitely-not-a-service")

    def test_non_callable_rejected(self):
        with pytest.raises(TargetError):
            deploy(42)


class TestFluentConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(TargetError, match="unknown backend"):
            deploy("memcached").on("gpu")

    def test_unsupported_backend_rejected(self):
        # The NAT gateway needs a real port space (LAN/WAN).
        with pytest.raises(TargetError, match="does not support"):
            deploy("nat").on("cluster", shards=4)

    def test_bad_opt_level_rejected(self):
        with pytest.raises(TargetError, match="opt_level"):
            deploy("memcached").with_opt(4)

    @pytest.mark.parametrize("width", [None, 0, -3])
    def test_bad_batch_rejected(self, width):
        """The drain bound is a positive integer; ``None`` is not a
        value (there is no unbatched deployment to ask for)."""
        with pytest.raises(TargetError, match="batch"):
            deploy("memcached").with_batch(width)

    def test_config_frozen_after_start(self):
        dep = deploy("memcached").on("cpu").start()
        for call in (lambda: dep.on("fpga"), lambda: dep.with_opt(1),
                     lambda: dep.with_seed(2), lambda: dep.with_batch(8),
                     lambda: dep.with_faults(FaultPlan())):
            with pytest.raises(TargetError, match="already started"):
                call()

    def test_send_requires_start(self):
        dep = deploy("memcached").on("cpu")
        frame = dep.spec.client.request(seed=SEED)
        with pytest.raises(TargetError, match="not started"):
            dep.send(frame)

    def test_stop_and_restart(self):
        dep = deploy("memcached").on("cpu").start()
        first = dep.target
        dep.stop()
        assert not dep.started
        dep.start()
        assert dep.target is not first


class TestSeedPlumbing:
    """with_seed(n) is the single source of randomness (satellite)."""

    def _latencies(self, backend, seed, **kwargs):
        dep = deploy("memcached").on(backend, **kwargs) \
            .with_seed(seed).start()
        dep.run(count=40, seed=3)
        return list(dep.metrics.latency.samples_ns)

    @pytest.mark.parametrize("backend,kwargs", [
        ("fpga", {}),
        ("multicore", {"cores": 2}),
        ("cluster", {"shards": 2}),
    ])
    def test_same_seed_same_run(self, backend, kwargs):
        assert self._latencies(backend, SEED, **kwargs) == \
            self._latencies(backend, SEED, **kwargs)

    def test_different_seed_different_jitter(self):
        assert self._latencies("fpga", SEED) != \
            self._latencies("fpga", SEED + 1)

    def test_cpu_accepts_seed_uniformly(self):
        # The former inconsistency: CpuTarget silently had no seed=.
        dep = deploy("memcached").on("cpu").with_seed(SEED).start()
        assert dep.target.seed == SEED

    def test_seed_reaches_every_shard(self):
        dep = deploy("memcached").on("cluster", shards=3) \
            .with_seed(SEED).start()
        seeds = sorted(shard.seed
                       for shard in dep.target.shards.values())
        assert seeds == [SEED, SEED + 1, SEED + 2]


class TestOptThreading:
    def test_opt_reaches_fpga_kernel_model(self):
        dep = deploy("memcached").on("fpga").with_opt(2).start()
        assert dep.backend.effective_opt == 2
        assert dep.target.pipeline.cycle_model is not None

    def test_opt_falls_back_without_kernel(self):
        dep = deploy("icmp").on("fpga").with_opt(2).start()
        assert dep.backend.effective_opt is None
        assert dep.target.pipeline.cycle_model is None
        # describe() reports what actually runs, not what was asked.
        assert "-O2 (not applied: behavioural)" in dep.describe()

    def test_opt_not_applied_on_cpu_is_reported(self):
        dep = deploy("memcached").on("cpu").with_opt(2).start()
        assert dep.backend.effective_opt is None
        assert "-O2 (not applied: behavioural)" in dep.describe()

    def test_opt_reaches_cluster_shards(self):
        dep = deploy("memcached").on("cluster", shards=2) \
            .with_opt(0).start()
        for shard in dep.target.shards.values():
            assert shard.pipeline.cycle_model is not None

    @pytest.mark.parametrize("backend,kwargs", [
        ("fpga", {}), ("multicore", {"cores": 2}),
        ("cluster", {"shards": 2})])
    def test_every_compiled_model_runs_the_lockstep_engine(self, backend,
                                                           kwargs):
        """No verb asks for it: ``send``, ``send_batch`` and the open
        loop all measure on the lockstep driver, on every device."""
        dep = (deploy("memcached").on(backend, **kwargs).with_opt(2)
               .with_arrivals("poisson", qps=1_000_000.0).start())
        frames = list(dep.spec.workload(32, SEED))
        for port, frame in enumerate(frames):
            frame.src_port = port % 2
        dep.send(frames[0])
        dep.send_batch(frames[1:])
        dep.run_open_loop(duration_ms=0.05)
        kernels = [model._runner for model in dep.backend.cycle_models()]
        assert len(kernels) == max(kwargs.values(), default=1)
        for kernel in kernels:
            assert kernel.lockstep_batches > 0
            assert kernel.fallback_batches == 0


class TestUniformCycleAccounting:
    def test_one_cycle_sample_per_request_on_every_backend(self):
        """A replicated SET runs on every multicore core, but only the
        serving core's cycles are a request cost — sample counts must
        match request counts everywhere or cross-backend histograms
        skew (review finding)."""
        for backend, kwargs in (("fpga", {}),
                                ("multicore", {"cores": 4}),
                                ("cluster", {"shards": 4})):
            dep = deploy("memcached").on(backend, **kwargs) \
                .with_seed(SEED).start()
            dep.run(count=50, seed=3)      # ~10% SETs in the mix
            assert dep.metrics.cycle_samples == 50, backend

    def test_batch_path_keeps_the_invariant(self):
        """send_batch spreads requests over serving cores; the
        per-send harvest must not drop the other cores' samples or
        keep replica applies (review finding)."""
        for backend, kwargs in (("multicore", {"cores": 4}),
                                ("cluster", {"shards": 4})):
            dep = deploy("memcached").on(backend, **kwargs) \
                .with_seed(SEED).start()
            frames = []
            for port, frame in enumerate(dep.spec.workload(16, 3)):
                frame.src_port = port % 4
                frames.append(frame)
            dep.send_batch(frames)
            assert dep.metrics.cycle_samples == 16, backend

    def test_closed_loop_metrics_do_not_inherit_open_loop_samples(self):
        """The open loop executes through the backend and records
        nothing in ``metrics``; a cycle count travels with its
        request's outcome, so a later ``send`` accounts exactly
        itself (a side list harvested by position handed it every
        open-loop completion's sample too)."""
        for backend, kwargs in (("fpga", {}),
                                ("multicore", {"cores": 4}),
                                ("cluster", {"shards": 4})):
            dep = deploy("memcached").on(backend, **kwargs) \
                .with_seed(SEED).with_arrivals("poisson", qps=500_000) \
                .start()
            assert dep.run_open_loop(duration_ms=0.5).completed > 100
            dep.send(next(iter(dep.spec.workload(1, 3))))
            assert dep.metrics.requests == 1, backend
            assert dep.metrics.cycle_samples == 1, backend
            assert dep.metrics.core_cycles > 0, backend
            assert dep.stats()["avg_core_cycles"] == \
                dep.metrics.core_cycles, backend

    def test_a_serving_device_model_is_constant_size(self):
        """Per-request history lives in ``Deployment.metrics`` and
        nowhere below it: replaying a warm working set grows no
        container on the device model, its pipeline or the adapter."""
        from collections import deque
        dep = deploy("memcached").on("fpga").with_opt(3) \
            .with_seed(SEED).start()
        frames = list(dep.spec.workload(64, 3))

        def sizes():
            return {(type(owner).__name__, name): len(value)
                    for owner in (dep.target, dep.target.pipeline,
                                  dep.backend)
                    for name, value in vars(owner).items()
                    if isinstance(value, (list, dict, deque))}

        dep.send_batch([frame.copy() for frame in frames])
        before = sizes()
        assert before                      # the probe sees containers
        for _ in range(2000 // len(frames)):
            dep.send_batch([frame.copy() for frame in frames])
        assert dep.metrics.requests > 2000
        assert sizes() == before


class TestFaults:
    def test_fault_plan_attaches_on_cluster(self):
        plan = FaultPlan().kill_shard(1, "shard0")
        dep = deploy("memcached").on("cluster", shards=2) \
            .with_faults(plan).start()
        assert dep.injector is not None
        assert dep.injector.pending == 1
        dep.injector.advance_to(1)
        assert "shard0" not in dep.target.live_shards

    def test_fault_plan_rejected_on_fpga(self):
        dep = deploy("memcached").on("fpga") \
            .with_faults(FaultPlan())
        with pytest.raises(TargetError, match="no fault surface"):
            dep.start()

    def test_inject_faults_after_start(self):
        """The post-start twin: pick the victim from the live ring."""
        dep = deploy("memcached").on("cluster", shards=3).start()
        victim = dep.target.shard_ids[1]
        injector = dep.inject_faults(FaultPlan().kill_shard(0, victim))
        assert injector is dep.injector
        injector.advance_to(0)
        assert victim not in dep.target.live_shards
        assert "1 timed event(s)" in dep.describe()

    def test_netsim_partition_and_heal(self):
        plan = (FaultPlan().partition(1_000, 0)
                .heal(2_000_000, 0))
        dep = deploy("dns").on("netsim", ports=1) \
            .with_seed(SEED).with_faults(plan).start()
        frame = dep.spec.client.request(seed=SEED)
        emitted, _ = dep.send(frame.copy())    # wire cut mid-flight
        assert emitted == []
        emitted, _ = dep.send(frame.copy())    # healed by now
        assert len(emitted) == 1
        assert dep.metrics.drops == 1


class TestDescribe:
    def test_describe_names_the_run(self):
        from repro.cluster.replication import PrimaryReplica
        plan = FaultPlan().kill_shard(3, "shard1")
        dep = deploy("memcached") \
            .on("cluster", shards=4, policy=PrimaryReplica(1)) \
            .with_opt(1).with_seed(SEED).with_faults(plan)
        text = dep.describe()
        for needle in ("memcached", "cluster", "4 shards", "-O1",
                       str(SEED), "1 timed event(s)", "PrimaryReplica",
                       "configured"):
            assert needle in text
        dep.start()
        assert "started" in dep.describe()

    def test_repr_is_one_line(self):
        dep = deploy("dns").on("multicore", cores=2).with_seed(3)
        text = repr(dep)
        assert "\n" not in text
        assert "dns on multicore" in text and "2 cores" in text

    def test_adhoc_spec_helper(self):
        spec = ServiceSpec.adhoc("probe", make_memcached)
        dep = deploy(spec).on("cpu").start()
        assert dep.spec.name == "probe"


class TestUniformDispatch:
    def test_send_batch_uses_cluster_native_path(self):
        dep = deploy("memcached").on("cluster", shards=2) \
            .with_seed(SEED).start()
        frames = list(dep.spec.workload(16, SEED))
        results = dep.send_batch(frames)
        assert len(results) == 16
        assert dep.target.batches == 1          # native batched path
        assert dep.metrics.batches == 1

    @pytest.mark.parametrize("backend, kwargs", [
        ("multicore", {"cores": 2}), ("cluster", {"shards": 2})])
    def test_write_classifier_survives_a_lone_magic_byte(self, backend,
                                                         kwargs):
        """A UDP payload of the 8-byte frame header plus the single
        byte 0x80 looks binary and has no opcode to index: the write
        classifier both dispatchers run on every frame says "not a
        write", the service drops it, and the deployment keeps
        serving."""
        from repro.core.protocols.memcached import memcached_is_write
        from repro.core.protocols.udp import build_udp
        from repro.net.packet import Frame
        from repro.services.catalog import CLIENT_IP, SERVICE_IP
        hostile = Frame(build_udp(
            0x02_00_00_00_00_01, 0x02_00_00_00_00_AA, CLIENT_IP,
            SERVICE_IP, 40000, 11211, bytes(8) + b"\x80")).pad()
        assert memcached_is_write(hostile) is False
        dep = deploy("memcached").on(backend, **kwargs) \
            .with_seed(SEED).start()
        emitted, _ = dep.send(hostile.copy())
        assert emitted == []
        (emitted, _), = dep.send_batch([hostile.copy()])
        assert emitted == []
        request = dep.spec.client.request(seed=SEED)
        assert dep.send(request)[0]

    def test_max_qps_blends_reads_and_writes(self):
        from repro.harness.multicore import memaslap_rw_pair
        read_frame, write_frame = memaslap_rw_pair(SEED)
        dep = deploy("memcached").on("fpga").with_seed(SEED).start()
        reads_only = dep.max_qps(read_frame)
        mixed = dep.max_qps(read_frame, write_frame, 0.5)
        assert mixed < reads_only        # SETs are slower than GETs

    def test_max_qps_unavailable_on_cpu(self):
        dep = deploy("memcached").on("cpu").start()
        frame = dep.spec.client.request(seed=SEED)
        with pytest.raises(TargetError, match="no throughput model"):
            dep.max_qps(frame)
