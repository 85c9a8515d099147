"""Lockstep SoA engine: batch-vs-scalar-vs-interpreter equivalence.

The batched engine (:mod:`repro.engine.batch`) is an aggressive
compilation mode — fused superblocks, per-lane early exits, hazard
gating — so nothing here is assumed: every property is a differential
proof against the scalar engine and (through the verify harness) the
interpreted netlist, on warm streams.

* three-legged warm-stream proof on every service kernel, with the
  lockstep path asserted engaged (the check cannot pass by silently
  falling back to scalar execution);
* batch sizes 1, 2, and wider than the ingest queue depth, plus a
  ragged final batch, all equal to the scalar sequence;
* crafted deep-path memcached requests (GET/SET/DELETE on warm
  tables), at -O0 and -O2;
* the batched FPGA target and cycle model reproduce the scalar
  target's emissions, latencies, and statistics exactly;
* burst-partition invariance: however a stream is cut into
  ``cycles_batch`` calls, cycles, totals and final memories agree;
* open-loop conformance: batched and scalar deployments under the same
  seed produce identical reply bytes and ``queue_drops`` (including
  under overload).

Seeded per tests/README: one module SEED, one stream per property.
"""

import random

import pytest

from repro.deploy import deploy
from repro.engine import (
    BatchedKernel, assert_batch_equivalent, batch_differential_check,
    compile_design, compile_kernel,
)
from repro.harness.optimization import (
    SERVICE_KERNELS, memcached_binary_frame, memcached_request_inputs,
)
from repro.kiwi.compiler import compile_function
from repro.kiwi.opt.verify import random_inputs
from repro.services.memcached import memcached_kernel
from repro.targets.pipeline import INPUT_QUEUE_DEPTH

SEED = "engine-batch"

KERNEL_CASES = [(case.name, case.kernel) for case in SERVICE_KERNELS]
KERNEL_IDS = [name for name, _ in KERNEL_CASES]


@pytest.mark.parametrize("name,kernel", KERNEL_CASES, ids=KERNEL_IDS)
def test_batched_matches_scalar_and_interpreter(name, kernel):
    report = assert_batch_equivalent(
        kernel, opt_level=0, batch=4, batches=3,
        seed="%s/three-legs" % SEED)
    assert report.ok
    # The lockstep path must actually have run — a report that only
    # exercised the scalar fallback proves nothing about the SoA code.
    assert report.lockstep_batches > 0


def test_crafted_memcached_deep_paths():
    """GET/SET/DELETE on warm tables through the batched engine, at
    the unoptimized and optimized levels."""
    for level in (0, 2):
        report = batch_differential_check(
            memcached_kernel, opt_level=level, batch=8, batches=4,
            seed="%s/crafted/%d" % (SEED, level),
            input_factory=memcached_request_inputs)
        assert report.ok, (level, report.mismatches[:1])
        assert report.lockstep_batches > 0


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
    batched = BatchedKernel(design, batch=batch)
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
    """Random full-image inputs on every service kernel, with a job
    count chosen so the final run_batch call is narrower than the
    batch width."""
    for case in SERVICE_KERNELS:
        design = compile_function(case.kernel, opt_level=0)
        scalar = compile_design(design)
        batched = BatchedKernel(design, batch=8)
        rng = random.Random("%s/ragged/%s" % (SEED, case.name))
        jobs = [random_inputs(design.spec, rng) for _ in range(19)]
        reference = []
        for scalars, memories in jobs:
            results, latency, _ = scalar.run(
                memories={name: list(image)
                          for name, image in memories.items()},
                **scalars)
            reference.append((results, latency))
        got = []
        for start in range(0, len(jobs), 8):
            got.extend(batched.run_batch(jobs[start:start + 8]))
        assert got == reference, case.name
        assert batched.lockstep_batches > 0, case.name


def test_compile_kernel_batch_returns_batched():
    kernel = compile_kernel(memcached_kernel, opt_level=0, batch=4)
    assert isinstance(kernel, BatchedKernel)
    assert kernel.batch == 4
    # The full scalar surface still works on the batched kernel.
    frame = memcached_binary_frame(0, b"abc123")
    results, latency, _ = kernel.run(
        memories={"frame": list(frame)}, my_ip=1)
    assert latency > 0


def test_fpga_target_send_batch_equals_scalar_sends():
    """Same service, same seed: the batched target's emissions,
    latencies, and per-request statistics are byte-identical to the
    scalar target's."""
    from repro.net.packet import Frame
    from repro.services.memcached import MemcachedService
    from repro.targets.fpga import FpgaTarget

    def frames(seed):
        rng = random.Random("%s/fpga/%s" % (SEED, seed))
        out = []
        for index in range(48):
            key = rng.choice([b"abc123", b"zzz999"])
            if rng.random() < 0.5:
                frame = memcached_binary_frame(
                    1, key, bytes(rng.getrandbits(8) for _ in range(8)))
            else:
                frame = memcached_binary_frame(0, key)
            out.append(Frame(bytes(frame), src_port=index % 4))
        return out

    my_ip = 0x0A000001
    scalar_target = FpgaTarget(MemcachedService(my_ip), seed=11,
                               opt_level=2)
    batched_target = FpgaTarget(MemcachedService(my_ip), seed=11,
                                opt_level=2, batch=8)
    scalar_out = [scalar_target.send(frame) for frame in frames("a")]
    batched_out = batched_target.send_batch(frames("a"))

    def observable(results):
        return [(tuple((port, bytes(reply.data)) for port, reply
                       in emitted), latency)
                for emitted, latency in results]

    assert observable(batched_out) == observable(scalar_out)
    assert batched_target.core_cycle_counts == \
        scalar_target.core_cycle_counts
    assert batched_target.service_times_ns == \
        scalar_target.service_times_ns
    assert batched_target.latencies_ns == scalar_target.latencies_ns


@pytest.mark.parametrize("service,opt_level,options", [
    ("memcached", 3, {"protocol": "binary"}),
    ("memcached", 0, {"protocol": "binary"}),
    ("nat", 2, {}),
], ids=["memcached-O3", "memcached-O0", "nat-O2"])
def test_cycle_model_is_burst_partition_invariant(service, opt_level,
                                                  options, bursts):
    """How a stream is cut into ``cycles_batch`` calls is invisible:
    bursts of 1 (the one-lane loop), 2, 3 (lockstep), 64 and a seeded
    ragged mix give the same per-frame cycles, the same totals and the
    same final image of every kernel memory."""
    from repro.services.catalog import registry

    spec = registry()[service]
    ragged = random.Random("%s/partition/%s" % (SEED, service))
    partitions = [[1], [2], [3], [64],
                  [ragged.choice((1, 1, 2, 3, 5, 17, 64))
                   for _ in range(40)]]
    observed = []
    for sizes in partitions:
        model = spec.build().kernel_cycle_model(opt_level, batch=64)
        frames = list(spec.workload(256, seed=5, **options))
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


def _run_open_loop(batch, qps, capacity):
    dep = deploy("memcached").on("fpga").with_seed(7).with_opt(2)
    if batch is not None:
        dep.with_batch(batch)
    dep.with_arrivals("poisson", qps=qps, capacity=capacity).start()
    replies = []
    backend = dep.backend

    def capture(outcomes):
        for emitted, _, _ in outcomes:
            for _, reply in emitted:
                replies.append(bytes(reply.data))
        return outcomes

    scalar_profile = backend.open_loop_profile
    batch_profile = backend.open_loop_profile_batch
    backend.open_loop_profile = \
        lambda frame: capture([scalar_profile(frame)])[0]
    backend.open_loop_profile_batch = \
        lambda frames: capture(batch_profile(frames))
    report = dep.run_open_loop(duration_ms=0.5)
    snapshot = report.snapshot()
    dep.stop()
    return snapshot, replies


@pytest.mark.parametrize("qps,capacity", [
    (2_000_000, INPUT_QUEUE_DEPTH),   # underload: no drops
    (8_000_000, 8),                   # overload: queues fill, tail-drops
], ids=["underload", "overload"])
def test_open_loop_conformance(qps, capacity):
    """Batched and scalar deployments under the same seed produce
    identical reply bytes and queue_drops (and, in fact, an identical
    report snapshot): batching changes only the profiling wall clock,
    never the queueing model."""
    scalar_snapshot, scalar_replies = _run_open_loop(None, qps, capacity)
    for batch in (1, 8, INPUT_QUEUE_DEPTH + 16):
        snapshot, replies = _run_open_loop(batch, qps, capacity)
        assert replies == scalar_replies, batch
        assert snapshot["queue_drops"] == scalar_snapshot["queue_drops"]
        assert snapshot == scalar_snapshot, batch
