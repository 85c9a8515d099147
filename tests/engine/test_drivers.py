"""The three drivers are one kernel: same budget rule, same latch rule,
same generated code.

* **Cycle budget** — ``run``, one-lane and 8-lane ``run_batch`` and the
  interpreter agree on finish-vs-timeout for every budget around a
  request's latency, on every service kernel (trace superblocks used to
  charge a lane the whole block before a side exit).
* **Rejected calls are atomic** — a call that raises for an unknown
  scalar, an unknown memory or a bad image has changed nothing, on all
  three entry points.
* **Image contract** — memory images may be ``bytes``, ``bytearray``
  or lists of ints, with identical observables; out-of-range list
  values are masked; reads back are ints.
* ``kernel.source`` is the code that runs.

Seeded per tests/README: one module SEED, one stream per property.
"""

import random

import pytest

from repro.engine import compile_design, compile_kernel
from repro.engine.pipelined import PipelinedKernel, compile_pipelined
from repro.errors import CompileError, EngineError
from repro.harness.optimization import (
    SERVICE_KERNELS, memcached_binary_frame,
)
from repro.kiwi.compiler import compile_function
from repro.services.memcached import memcached_kernel

SEED = "engine-drivers"


def _frames(case, design):
    """(label, scalars, memories) — the case's representative request,
    an all-zero frame and a seeded-random one, every image padded to
    its memory's depth so batches of them qualify for lockstep."""
    depths = {name: mem.depth for name, mem in design.spec.memory_params}
    rng = random.Random("%s/frames/%s" % (SEED, case.name))
    base = {name: list(image) + [0] * (depths[name] - len(image))
            for name, image in case.memories.items()}
    out = []
    for label, frame in (
            ("representative", base["frame"]),
            ("zero", [0] * depths["frame"]),
            ("random", [rng.getrandbits(8)
                        for _ in range(depths["frame"])])):
        out.append((label, case.scalars, dict(base, frame=frame)))
    return out


def _finishes(call):
    try:
        call()
    except (EngineError, CompileError):
        return False
    return True


@pytest.mark.parametrize("level", [0, 2])
@pytest.mark.parametrize("case", SERVICE_KERNELS, ids=lambda c: c.name)
def test_budget_sweep_agrees_on_every_driver(case, level):
    design = compile_function(case.kernel, opt_level=level)
    kernel = compile_design(design, batch=8)
    frames = _frames(case, design)
    for label, scalars, memories in frames:
        kernel.reset()
        latency = kernel.run(memories=memories, **scalars)[1]
        for budget in range(1, latency + 3):
            kernel.reset()
            one = _finishes(lambda: kernel.run(
                max_cycles=budget, memories=memories, **scalars))
            assert one == (budget >= latency), (label, budget)
            kernel.reset()
            assert one == _finishes(lambda: kernel.run_batch(
                [(scalars, memories)], max_cycles=budget)), (label, budget)
            assert one == _finishes(lambda: design.run_on(
                design.simulator(), max_cycles=budget,
                memories=memories, **scalars)), (label, budget)
    # Eight lanes, the three frames round-robin: the batch finishes
    # exactly when every one of its lanes would, run one after another.
    jobs = [(scalars, memories) for _, scalars, memories
            in (frames * 3)[:8]]
    kernel.reset()
    worst = max(latency for _, latency in kernel.run_batch(jobs))
    assert kernel.lockstep_batches > 0
    for budget in range(1, worst + 3):
        kernel.reset()
        sequential = _finishes(lambda: [
            kernel.run(max_cycles=budget, memories=memories, **scalars)
            for scalars, memories in jobs])
        kernel.reset()
        assert sequential == _finishes(lambda: kernel.run_batch(
            jobs, max_cycles=budget)), budget
        assert sequential == (budget >= worst)


def sticky(frame: "mem[8]x8", acc: "mem[8]x8", key: "u8") -> "u8":
    x = acc[0] + key
    pause()
    acc[0] = bits(x + frame[0], 8)
    return bits(x, 8)


#: Jobs every entry point must refuse: unknown scalar, unknown memory,
#: image longer than its memory.
_BAD_JOBS = [
    ({"not_a_param": 1}, {"frame": [9] * 8}),
    ({"key": 7}, {"frame": [9] * 8, "nope": [0]}),
    ({"key": 7}, {"frame": [9] * 8, "acc": [0] * 9}),
]
#: ...and the ones only ``run_stream`` refuses: a per-request image for
#: a shared memory, a short stream image.
_BAD_STREAM_JOBS = _BAD_JOBS + [
    ({"key": 7}, {"frame": [9] * 8, "acc": [5] * 8}),
    ({"key": 7}, {"frame": [9] * 4}),
]
_GOOD_JOB = ({"key": 5}, {"frame": [2] * 8})


def _observable(kernel):
    """Everything a later call can see: registers, memories, and —
    through a call that omits every scalar — the sticky inputs."""
    registers = {name: col[0] for name, col in kernel._cols.items()}
    images = {name: kernel.memory_image(name)
              for name, _ in kernel.spec.memory_params}
    follow_up = kernel.run()[:2]
    return registers, images, follow_up, {
        name: kernel.memory_image(name)
        for name, _ in kernel.spec.memory_params}


@pytest.mark.parametrize("entry,bad_jobs", [
    ("run", _BAD_JOBS), ("run_batch", _BAD_JOBS),
    ("run_stream", _BAD_STREAM_JOBS)])
def test_rejected_calls_change_nothing(entry, bad_jobs):
    def fresh():
        kernel = (compile_pipelined(sticky, depth=2)
                  if entry == "run_stream"
                  else compile_kernel(sticky, batch=4))
        kernel.run(memories={"frame": [1] * 8}, key=3)
        return kernel

    expected = _observable(fresh())
    for scalars, memories in bad_jobs:
        kernel = fresh()
        with pytest.raises(EngineError):
            if entry == "run":
                kernel.run(memories=memories, **scalars)
            else:
                # The bad job rides behind a good one: nothing of the
                # good one may have been applied either.
                getattr(kernel, entry)([_GOOD_JOB, (scalars, memories)])
        assert _observable(kernel) == expected, (scalars, memories)


_MY_IP = {"my_ip": 0x0A000001}


def _memcached_frames(stream, count):
    """Binary SETs and GETs over three keys (unpadded), plus one frame
    of noise."""
    rng = random.Random("%s/%s" % (SEED, stream))
    frames = [bytes(rng.getrandbits(8) for _ in range(90))]
    for _ in range(count - 1):
        key = rng.choice([b"abc123", b"zzz999", b"qq1122"])
        value = bytes(rng.getrandbits(8) for _ in range(8))
        frame = (memcached_binary_frame(1, key, value)
                 if rng.random() < 0.5 else memcached_binary_frame(0, key))
        frames.append(bytes(frame).rstrip(b"\0"))
    return frames


@pytest.mark.parametrize("level", [0, 3])
def test_images_may_be_bytes_bytearray_or_list(level):
    """The same requests as ``bytes``, ``bytearray`` and ``list``
    images — full depth (private lane rows) and short (prefix-loaded
    shared memory) — through ``run``, one-lane and four-lane
    ``run_batch``: results, cycles and every memory image agree."""
    design = compile_function(memcached_kernel, opt_level=level)
    depth = dict(design.spec.memory_params)["frame"].depth
    frames = _memcached_frames("images/%d" % level, 8)
    observed = []
    for pad in (True, False):
        for convert in (bytes, bytearray, list):
            for width in (0, 1, 4):             # 0: run(), else run_batch
                kernel = compile_design(design, batch=4)
                jobs = [(_MY_IP, {"frame": convert(
                    frame.ljust(depth, b"\0") if pad else frame)})
                    for frame in frames]
                if width == 0:
                    out = [kernel.run(memories=memories, **scalars)[:2]
                           for scalars, memories in jobs]
                else:
                    out = [pair for start in range(0, len(jobs), width)
                           for pair in kernel.run_batch(
                               jobs[start:start + width])]
                images = {name: kernel.memory_image(name)
                          for name, _ in design.spec.memory_params}
                assert all(type(word) is int for image in images.values()
                           for word in image)
                assert type(kernel.peek_memory("frame", 3)) is int
                observed.append((pad, out, images))
    for pad in (True, False):
        group = [entry for entry in observed if entry[0] == pad]
        assert len(group) == 9
        assert all(entry == group[0] for entry in group), pad


def test_out_of_range_list_images_are_masked():
    """A list image may hold any ints; every driver sees them modulo
    the memory's width, on byte-wide (bytearray-backed) and wider
    memories alike, full-depth or short."""
    for full in (True, False):
        length = 8 if full else 5
        wild = [300, -1, 255, 256, 7, -256, 1 << 40, 0][:length]
        masked = [value & 0xFF for value in wild]
        results = []
        for image in (wild, masked, bytes(masked)):
            kernel = compile_kernel(sticky, batch=4)
            out = [kernel.run(memories={"frame": image}, key=3)[:2]]
            out += kernel.run_batch([({"key": 4}, {"frame": image}),
                                     ({"key": 5}, {"frame": image})])
            results.append((out, kernel.memory_image("frame"),
                            kernel.memory_image("acc")))
        assert results[0] == results[1] == results[2], full
        assert results[0][1][:length] == masked
    kernel = compile_kernel(sticky)
    kernel.load_memory("frame", [511, -2])
    kernel.poke_memory("frame", 2, 0x1FF)
    assert kernel.memory_image("frame")[:3] == [255, 254, 255]


def test_bytes_images_are_validated_before_anything_mutates():
    """Too long an image or an unknown memory raises with nothing
    applied — for bytes-like images too, on run and run_batch."""
    def fresh():
        kernel = compile_kernel(sticky, batch=4)
        kernel.run(memories={"frame": bytes([1] * 8)}, key=3)
        return kernel

    expected = _observable(fresh())
    for memories in ({"frame": bytes(9)},
                     {"frame": bytearray(8), "nope": b"\0"}):
        kernel = fresh()
        with pytest.raises(EngineError):
            kernel.run(memories=memories, key=7)
        assert _observable(kernel) == expected
        kernel = fresh()
        with pytest.raises(EngineError):
            kernel.run_batch([_GOOD_JOB, ({"key": 7}, memories)])
        assert _observable(kernel) == expected


def test_memory_reads_follow_the_last_lane_and_reset_restores_init():
    kernel = compile_kernel(sticky, batch=4)
    init = {name: kernel.memory_image(name) for name in ("frame", "acc")}
    rows = [bytes([lane + 1] * 8) for lane in range(3)]
    kernel.run_batch([({"key": lane}, {"frame": row})
                      for lane, row in enumerate(rows)])
    assert kernel.lockstep_batches == 1
    assert kernel.memory_image("frame") == list(rows[-1])
    assert [kernel.peek_memory("frame", addr) for addr in range(8)] \
        == list(rows[-1])
    assert kernel.memory_image("acc") != init["acc"]
    kernel.reset()
    assert {name: kernel.memory_image(name)
            for name in ("frame", "acc")} == init
    # ...and the reset kernel replays the batch from power-on.
    again = compile_kernel(sticky, batch=4)
    jobs = [({"key": 9}, {"frame": rows[0]})]
    assert kernel.run_batch(jobs) == again.run_batch(jobs)


def test_run_stream_takes_bytes_images():
    """The pipelined driver on the bytearray-backed stream memory:
    bytes and list images retire the same results, cycles and reply
    images (ints), and leave the same shared state."""
    observed = []
    for convert in (bytes, list):
        kernel = compile_pipelined(memcached_kernel, depth=4)
        depth = kernel._mem_depths["frame"]
        out = kernel.run_stream([
            (_MY_IP, {"frame": convert(frame.ljust(depth, b"\0"))})
            for frame in _memcached_frames("stream-images", 12)])
        assert kernel.peak_in_flight > 1
        assert all(type(word) is int for _, _, streams in out
                   for word in streams["frame"])
        observed.append((out, {name: kernel.memory_image(name)
                               for name, _ in kernel.spec.memory_params}))
    assert observed[0] == observed[1]


def test_source_is_the_code_that_runs():
    case = next(c for c in SERVICE_KERNELS if c.name == "ICMP echo")
    design = compile_function(case.kernel, opt_level=0)
    for kernel in (compile_design(design), compile_design(design, batch=4),
                   PipelinedKernel(design)):
        assert "def _b" in kernel.source        # available before any run
        kernel.run(memories=dict(case.memories), **case.scalars)
        compiled = [layout.source for layout in kernel._layouts.values()]
        assert compiled and all(text in kernel.source for text in compiled)
