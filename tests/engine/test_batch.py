"""Lockstep SoA engine: batch-vs-scalar-vs-interpreter equivalence.

The batched engine (:mod:`repro.engine.batch`) is an aggressive
compilation mode — fused superblocks, per-lane early exits, hazard
gating — so nothing here is assumed: every property is a differential
proof against the scalar engine and (as legs of :mod:`repro.verify`)
the interpreted netlist, on warm streams.

* three-legged warm-stream proof on every service kernel, with the
  lockstep path asserted engaged (the check cannot pass by silently
  falling back to scalar execution);
* batch sizes 1, 2, and wider than the ingest queue depth, plus a
  ragged final batch, all equal to the scalar sequence;
* crafted deep-path memcached requests (GET/SET/DELETE on warm
  tables), at -O0 and -O2;
* the FPGA target's emissions, latencies, and statistics do not depend
  on how a stream is cut into ``send_batch`` calls;
* burst-partition invariance: however a stream is cut into
  ``cycles_batch`` calls, cycles, totals and final memories agree;
* open-loop conformance: the drain width (``with_batch``) is
  unobservable — identical reply bytes, snapshot, trace JSON and series
  TSV at every width, on every backend, under- and overloaded.

Seeded per tests/README: one module SEED, one stream per property.
"""

import random

import pytest

from repro.deploy import deploy
from repro.engine import BatchedKernel, compile_design, compile_kernel
from repro.harness.optimization import (
    SERVICE_KERNELS, memcached_binary_frame,
)
from repro.kiwi.compiler import compile_function
from repro.services.memcached import memcached_kernel
from repro.targets.pipeline import INPUT_QUEUE_DEPTH
from repro.verify import (
    Interpreter, Lockstep, OneLane, check, job_streams,
)

SEED = "engine-batch"

KERNEL_IDS = [case.name for case in SERVICE_KERNELS]


def _three_legs(subject, level, width, jobs, seed):
    """Interpreter, one-lane ``run`` and ``run_batch`` cut *width*
    wide: results, per-lane cycle counts and the memory images after
    every batch must agree — with the lockstep path asserted engaged (a
    report that only exercised the one-lane fallback proves nothing
    about the SoA code)."""
    lockstep = Lockstep(level, (width,))
    report = check(subject,
                   [Interpreter(level), OneLane(level), lockstep],
                   job_streams(subject, jobs, seed))
    assert report.ok, (level, report.mismatches[:1])
    assert lockstep.timing == Interpreter(level).timing
    assert report.legs[lockstep.name]["lockstep_batches"] > 0


@pytest.mark.parametrize("case", SERVICE_KERNELS, ids=KERNEL_IDS)
def test_batched_matches_scalar_and_interpreter(case):
    _three_legs(case, 0, 4, 12, "%s/three-legs" % SEED)


def test_crafted_memcached_deep_paths():
    """GET/SET/DELETE on warm tables through the batched engine, at
    the unoptimized and optimized levels."""
    case = SERVICE_KERNELS[KERNEL_IDS.index("memcached GET")]
    for level in (0, 2):
        _three_legs(case, level, 8, 32, "%s/crafted/%d" % (SEED, level))


def _memcached_jobs(count, rng, depth):
    jobs = []
    keys = [b"abc123", b"zzz999", b"qq1122"]
    for _ in range(count):
        key = rng.choice(keys)
        if rng.random() < 0.5:
            frame = memcached_binary_frame(
                1, key, bytes(rng.getrandbits(8) for _ in range(8)))
        else:
            frame = memcached_binary_frame(0, key)
        image = list(frame) + [0] * (depth - len(frame))
        jobs.append(({"my_ip": 0x0A000001}, {"frame": image}))
    return jobs


@pytest.mark.parametrize("batch", [1, 2, INPUT_QUEUE_DEPTH + 36])
def test_batch_sizes_equal_scalar(batch):
    """Widths 1, 2, and wider than the ingest queue depth (64) — the
    stream length (100) also leaves every width a ragged final batch."""
    design = compile_function(memcached_kernel, opt_level=0)
    scalar = compile_design(design)
    batched = BatchedKernel(design)
    rng = random.Random("%s/sizes/%d" % (SEED, batch))
    jobs = _memcached_jobs(100, rng, scalar._mem_depths["frame"])
    reference = []
    for scalars, memories in jobs:
        results, latency, _ = scalar.run(memories=memories, **scalars)
        reference.append((results, latency))
    got = []
    for start in range(0, len(jobs), batch):
        got.extend(batched.run_batch(jobs[start:start + batch]))
    assert got == reference
    for mem_name, _ in design.spec.memory_params:
        assert batched.memory_image(mem_name) == \
            scalar.memory_image(mem_name)
    assert batched.lockstep_batches > 0


def test_random_inputs_ragged_final_batch():
    """Dictionary noise (what a bare kernel gets) on every service
    kernel, with a job count chosen so the final run_batch call is
    narrower than the batch width."""
    for case in SERVICE_KERNELS:
        lockstep = Lockstep(0, (8,))
        report = check(case.kernel, [OneLane(0), lockstep],
                       job_streams(case.kernel, 19,
                                   "%s/ragged/%s" % (SEED, case.name)))
        assert report.ok, (case.name, report.mismatches[:1])
        assert report.legs[lockstep.name]["lockstep_batches"] > 0, \
            case.name


def test_compile_kernel_batch_returns_batched():
    kernel = compile_kernel(memcached_kernel, opt_level=0, batch=4)
    assert isinstance(kernel, BatchedKernel)
    # The full one-lane surface still works on the batched kernel.
    frame = memcached_binary_frame(0, b"abc123")
    results, latency, _ = kernel.run(
        memories={"frame": list(frame)}, my_ip=1)
    assert latency > 0


def test_fpga_target_send_batch_equals_scalar_sends(bursts):
    """Same service, same seed: emissions, latencies, and per-request
    statistics are byte-identical whether the stream goes through
    ``send`` one frame at a time, as one ``send_batch`` burst, or as a
    ragged cut — compiled cycle model and behavioural pause-count."""
    from repro.services.catalog import registry
    from repro.targets.fpga import FpgaTarget

    spec = registry()["memcached"]

    def frames():
        out = list(spec.workload(48, seed=5, protocol="binary"))
        for index, frame in enumerate(out):
            frame.src_port = index % 4
        return out

    def observe(opt_level, drive):
        target = FpgaTarget(spec.build(), seed=11, opt_level=opt_level)
        results = drive(target, frames())
        return [(tuple((port, bytes(reply.data)) for port, reply
                       in emitted), latency, cycles, service_ns)
                for emitted, latency, cycles, service_ns in results]

    for opt_level in (2, None):
        one_by_one = observe(opt_level, lambda target, stream: [
            target.send(frame) for frame in stream])
        assert len(one_by_one) == 48
        assert any(latency is not None
                   for _, latency, _, _ in one_by_one)
        assert all(cycles > 0 and service_ns > 0
                   for _, _, cycles, service_ns in one_by_one)
        assert one_by_one == observe(
            opt_level, lambda target, stream: target.send_batch(stream))
        assert one_by_one == observe(
            opt_level, lambda target, stream: [
                outcome for burst in bursts(stream, [5, 1, 17, 2])
                for outcome in target.send_batch(burst)])


@pytest.mark.parametrize("service,opt_level,options", [
    ("memcached", 3, {"protocol": "binary"}),
    ("memcached", 0, {"protocol": "binary"}),
    ("nat", 2, {}),
], ids=["memcached-O3", "memcached-O0", "nat-O2"])
def test_cycle_model_is_burst_partition_invariant(service, opt_level,
                                                  options, bursts):
    """How a stream is cut into ``cycles_batch`` calls is invisible:
    ``cycles`` frame by frame, bursts of 1 (the one-lane loop), 2, 3
    (lockstep), 64, the whole stream in one call (chunked inside) and a
    seeded ragged mix give the same per-frame cycles, the same totals
    and the same final image of every kernel memory."""
    from repro.services.catalog import registry

    spec = registry()[service]
    ragged = random.Random("%s/partition/%s" % (SEED, service))
    partitions = [None, [1], [2], [3], [64], [256],
                  [ragged.choice((1, 1, 2, 3, 5, 17, 64))
                   for _ in range(40)]]
    observed = []
    for sizes in partitions:
        model = spec.build().kernel_cycle_model(opt_level)
        frames = list(spec.workload(256, seed=5, **options))
        if sizes is None:
            cycles = [model.cycles(frame) for frame in frames]
        else:
            cycles = [latency for burst in bursts(frames, sizes)
                      for latency in model.cycles_batch(burst)]
        kernel = model._runner
        observed.append((
            cycles, model.requests, model.total_cycles,
            {name: kernel.memory_image(name)
             for name, _ in kernel.spec.memory_params}))
        assert kernel.lockstep_batches > 0 and kernel.fallback_batches == 0
    assert len(observed[0][0]) == 256 and observed[0][1] == 256
    # The streams write the warm tables (the hazard-gated states ran).
    assert all(any(image) for image in observed[0][3].values())
    for sizes, other in zip(partitions[1:], observed[1:]):
        assert other == observed[0], sizes


WIDTHS = (None, 1, 8, INPUT_QUEUE_DEPTH + 16)      # None: the default


def _run_open_loop(width, qps, capacity, service="memcached",
                   backend="fpga", opt_level=2, duration_ms=0.5,
                   **scale):
    """One traced open-loop run at drain width *width*; returns every
    artefact a width could leak into."""
    dep = deploy(service).on(backend, **scale).with_seed(7)
    if opt_level is not None:
        dep.with_opt(opt_level)
    if width is not None:
        dep.with_batch(width)
    dep.with_arrivals("poisson", qps=qps, capacity=capacity)
    dep.with_trace().with_timeseries(window_us=20.0).start()
    replies = []
    profile = dep.backend.open_loop_profile_batch

    def capture(frames):
        outcomes = profile(frames)
        for emitted, _, _ in outcomes:
            replies.extend(bytes(reply.data) for _, reply in emitted)
        return outcomes

    dep.backend.open_loop_profile_batch = capture
    report = dep.run_open_loop(duration_ms=duration_ms)
    observed = (report.snapshot(), replies, dep.tracer.to_json(),
                dep.timeseries.to_tsv())
    dep.stop()
    return observed


@pytest.mark.parametrize("qps,capacity", [
    (2_000_000, INPUT_QUEUE_DEPTH),   # underload: no drops
    (8_000_000, 8),                   # overload: queues fill, tail-drops
], ids=["underload", "overload"])
def test_open_loop_conformance(qps, capacity):
    """The drain width changes only the profiling wall clock, never
    the queueing model: reply bytes, ``queue_drops`` (in fact the whole
    report snapshot), trace and series are identical at every width."""
    reference = _run_open_loop(None, qps, capacity)
    assert reference[1] and \
        bool(reference[0]["queue_drops"]) == (capacity == 8)
    for width in WIDTHS[1:]:
        assert _run_open_loop(width, qps, capacity) == reference, width


#: (service, backend, opt_level, qps, capacity, duration_ms, scale)
SWEEP = {
    "memcached-cpu": ("memcached", "cpu", None, 2e6, 64, 0.3, {}),
    "memcached-netsim": ("memcached", "netsim", None, 2e6, 64, 0.2, {}),
    "memcached-fpga": ("memcached", "fpga", None, 8e6, 8, 0.5, {}),
    "memcached-fpga-O2": ("memcached", "fpga", 2, 8e6, 8, 0.5, {}),
    "memcached-fpga-O3": ("memcached", "fpga", 3, 12e6, 8, 0.5, {}),
    "memcached-multicore-O2": ("memcached", "multicore", 2, 16e6, 8, 0.3,
                               {"cores": 4}),
    "memcached-cluster-O2": ("memcached", "cluster", 2, 16e6, 8, 0.3,
                             {"shards": 4}),
    "dns-cluster": ("dns", "cluster", None, 12e6, 8, 0.3, {"shards": 4}),
    "nat-fpga-O2": ("nat", "fpga", 2, 12e6, 8, 0.3, {}),
    "icmp-multicore": ("icmp", "multicore", None, 20e6, 8, 0.3,
                       {"cores": 4}),
    "filter-fpga-O3": ("filter", "fpga", 3, 1e6, 64, 0.3, {}),
}


@pytest.mark.parametrize("case", sorted(SWEEP))
def test_drain_width_is_unobservable_on_every_backend(case):
    """The fault-free sweep: eleven service x backend cases (eight
    overloaded into tail-drops), each byte-identical at every width —
    on the burst-native backend through look-ahead, everywhere else
    because a request is executed at its own dequeue."""
    service, backend, opt_level, qps, capacity, duration_ms, scale = \
        SWEEP[case]
    runs = [_run_open_loop(width, qps, capacity, service, backend,
                           opt_level, duration_ms, **scale)
            for width in WIDTHS]
    assert runs[0][0]["completed"] > 0
    assert bool(runs[0][0]["queue_drops"]) == (capacity == 8)
    for width, run in zip(WIDTHS[1:], runs[1:]):
        assert run == runs[0], width
