"""The three drivers are one kernel: same budget rule, same latch rule,
same generated code.

* **Cycle budget** — ``run``, one-lane and 8-lane ``run_batch`` and the
  interpreter agree on finish-vs-timeout for every budget around a
  request's latency, on every service kernel (trace superblocks used to
  charge a lane the whole block before a side exit).
* **Rejected calls are atomic** — a call that raises for an unknown
  scalar, an unknown memory or a bad image has changed nothing, on all
  three entry points.
* ``kernel.source`` is the code that runs.

Seeded per tests/README: one module SEED, one stream per property.
"""

import random

import pytest

from repro.engine import (
    PipelinedKernel, compile_design, compile_kernel, compile_pipelined,
)
from repro.errors import CompileError, EngineError
from repro.harness.optimization import SERVICE_KERNELS
from repro.kiwi.compiler import compile_function

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


def test_source_is_the_code_that_runs():
    case = next(c for c in SERVICE_KERNELS if c.name == "ICMP echo")
    design = compile_function(case.kernel, opt_level=0)
    for kernel in (compile_design(design), compile_design(design, batch=4),
                   PipelinedKernel(design)):
        assert "def _b" in kernel.source        # available before any run
        kernel.run(memories=dict(case.memories), **case.scalars)
        compiled = [layout.source for layout in kernel._layouts.values()]
        assert compiled and all(text in kernel.source for text in compiled)
