"""Differential equivalence: compiled engine vs interpreted simulator.

The engine's contract is stronger than the optimizer's: at the *same*
opt level it must reproduce the interpreter's results, final memory
contents, **and cycle count** exactly — same FSM, same semantics, so
any divergence is an engine miscompile.  Across levels (engine at
``-O2`` vs interpreter at ``-O0``) the machines differ by design, so
cycle counts are exempt and results + memories must still match —
this composes the engine proof with the optimizer's own differential
proof, closing the chain the ISSUE's acceptance criterion names.

Inputs come from the same seeded generators the optimizer's verifier
uses (uniform noise + protocol dictionary bytes), plus any crafted
``input_factory`` a service provides for its deep request paths.
"""

import random

from repro.errors import CompileError, EngineError
from repro.kiwi.opt.verify import random_inputs


class EngineMismatch:
    """One diverging run: the inputs and both observations."""

    def __init__(self, scalars, interpreted, engine, what):
        self.scalars = scalars
        self.interpreted = interpreted
        self.engine = engine
        self.what = what

    def __repr__(self):
        return ("EngineMismatch(%s: scalars=%r, interpreted=%r, "
                "engine=%r)" % (self.what, self.scalars,
                                self.interpreted, self.engine))


class EngineReport:
    """Outcome of one engine-differential session."""

    def __init__(self, name, opt_level, base_level, compare_latency):
        self.name = name
        self.opt_level = opt_level
        self.base_level = base_level
        self.compare_latency = compare_latency
        self.runs = 0
        self.skipped = 0
        self.mismatches = []
        self.interpreter_cycles = 0
        self.engine_cycles = 0

    @property
    def ok(self):
        return not self.mismatches and self.runs > 0

    def __repr__(self):
        return ("EngineReport(%s: engine -O%d vs interpreter -O%d, "
                "%d runs, %d mismatches)"
                % (self.name, self.opt_level, self.base_level,
                   self.runs, len(self.mismatches)))


def _interpret(design, scalars, memories, max_cycles):
    results, cycles, sim = design.run(
        max_cycles=max_cycles,
        memories={name: list(image) for name, image in memories.items()},
        **scalars)
    images = {
        name: [sim.peek_memory(name, addr) for addr in range(mem.depth)]
        for name, mem in design.spec.memory_params}
    return results, images, cycles


def _engine_run(kernel, scalars, memories, max_cycles):
    kernel.reset()
    results, cycles, _ = kernel.run(
        max_cycles=max_cycles,
        memories={name: list(image) for name, image in memories.items()},
        **scalars)
    images = {name: kernel.memory_image(name)
              for name, _ in kernel.spec.memory_params}
    return results, images, cycles


def engine_differential_check(fn, opt_level=0, base_level=None, runs=12,
                              seed="engine", max_cycles=200000,
                              input_factory=None):
    """Co-run *fn* on the engine at ``-Oopt_level`` and the interpreter
    at ``-Obase_level`` (default: the same level) over seeded random
    inputs.  Same-level runs also require identical cycle counts."""
    from repro.engine.compiler import compile_kernel
    from repro.kiwi.compiler import compile_function
    if base_level is None:
        base_level = opt_level
    compare_latency = base_level == opt_level
    reference = compile_function(fn, opt_level=base_level)
    kernel = compile_kernel(fn, opt_level=opt_level)
    report = EngineReport(reference.name, opt_level, base_level,
                          compare_latency)
    rng = random.Random("%s/%s" % (seed, reference.name))
    make_inputs = input_factory or \
        (lambda r: random_inputs(reference.spec, r))
    for _ in range(runs):
        scalars, memories = make_inputs(rng)
        try:
            interpreted = _interpret(reference, scalars, memories,
                                     max_cycles)
        except CompileError:
            report.skipped += 1
            continue
        try:
            engine = _engine_run(kernel, scalars, memories, max_cycles)
        except EngineError:
            report.mismatches.append(EngineMismatch(
                scalars, interpreted[:2], "timeout", "timeout"))
            continue
        report.runs += 1
        report.interpreter_cycles += interpreted[2]
        report.engine_cycles += engine[2]
        if interpreted[0] != engine[0]:
            report.mismatches.append(EngineMismatch(
                scalars, interpreted[0], engine[0], "results"))
        elif interpreted[1] != engine[1]:
            report.mismatches.append(EngineMismatch(
                scalars, "(memories)", "(memories)", "memories"))
        elif compare_latency and interpreted[2] != engine[2]:
            report.mismatches.append(EngineMismatch(
                scalars, interpreted[2], engine[2], "latency"))
    return report


class BatchReport:
    """Outcome of one batch-differential session (three legs: lockstep
    driver, one-lane ``run``, interpreted netlist)."""

    def __init__(self, name, opt_level, batch):
        self.name = name
        self.opt_level = opt_level
        self.batch = batch
        self.batches = 0
        self.runs = 0
        self.skipped = 0
        self.mismatches = []
        #: Batches the driver actually ran in lockstep (vs its
        #: one-lane fallback) — callers assert this is > 0 so the check
        #: cannot silently pass by never engaging the batched code.
        self.lockstep_batches = 0
        self.fallback_batches = 0

    @property
    def ok(self):
        return not self.mismatches and self.runs > 0

    def __repr__(self):
        return ("BatchReport(%s: batch=%d at -O%d, %d batches / %d "
                "runs, %d lockstep, %d mismatches)"
                % (self.name, self.batch, self.opt_level, self.batches,
                   self.runs, self.lockstep_batches,
                   len(self.mismatches)))


def batch_differential_check(fn, opt_level=0, batch=8, batches=8,
                             seed="engine-batch", max_cycles=200000,
                             input_factory=None, deep_inputs=None):
    """Three-legged warm-stream differential proof for the lockstep
    driver (:mod:`repro.engine.batch`).

    The same job stream runs through ``run_batch`` (*batch* jobs per
    call, ragged final batch included), one-lane ``run`` on a second
    kernel, and the warm interpreted netlist.  None of the legs reset
    between jobs, so the comparison covers warm-state parity across
    successive batches as well as per-lane results, per-lane cycle
    counts, and the final memory images after every batch.

    Even-numbered batches load every memory with a fresh full image
    (the lockstep-capable shape); odd-numbered batches load only a
    random subset of memories per job, leaving the rest warm — that
    shape exercises the driver's one-lane fallback and warm-memory
    carry-over.  *deep_inputs* (a list of ``(scalars, memories)``
    jobs) is prepended to the random stream for crafted deep request
    paths; *input_factory(rng)* overrides the random generator.
    """
    from repro.engine.compiler import compile_kernel
    from repro.kiwi.compiler import compile_function
    reference = compile_function(fn, opt_level=opt_level)
    scalar = compile_kernel(fn, opt_level=opt_level)
    batched = compile_kernel(fn, opt_level=opt_level, batch=batch)
    report = BatchReport(reference.name, opt_level, batch)
    rng = random.Random("%s/%s" % (seed, reference.name))
    make_inputs = input_factory or \
        (lambda r: random_inputs(reference.spec, r))
    mem_names = [name for name, _ in reference.spec.memory_params]

    jobs = list(deep_inputs or [])
    while len(jobs) < batches * batch:
        jobs.append(make_inputs(rng))
    # A ragged final batch: drop a few jobs so the last run_batch call
    # is narrower than the configured width.
    if batch > 1 and len(jobs) > batch + 1:
        jobs = jobs[:len(jobs) - rng.randrange(1, batch)]

    sim = reference.simulator()

    def reset_legs():
        scalar.reset()
        batched.reset()
        return reference.simulator()

    for start in range(0, len(jobs), batch):
        chunk = jobs[start:start + batch]
        narrow = start // batch % 2 == 1
        prepared = []
        for scalars, memories in chunk:
            if narrow and len(mem_names) > 1:
                keep = [name for name in mem_names
                        if name in memories and rng.random() < 0.6]
                memories = {name: memories[name] for name in keep}
            prepared.append((scalars, memories))
        try:
            interp = []
            for scalars, memories in prepared:
                results, cycles, _ = reference.run_on(
                    sim, max_cycles=max_cycles,
                    memories={name: list(image)
                              for name, image in memories.items()},
                    **scalars)
                interp.append((results, cycles))
        except CompileError:
            report.skipped += len(chunk)
            sim = reset_legs()
            continue
        except EngineError:
            # Interpreter timeout: skip the batch on every leg so the
            # warm streams stay aligned.
            report.skipped += len(chunk)
            sim = reset_legs()
            continue
        try:
            scalar_out = []
            for scalars, memories in prepared:
                results, cycles, _ = scalar.run(
                    max_cycles=max_cycles,
                    memories={name: list(image)
                              for name, image in memories.items()},
                    **scalars)
                scalar_out.append((results, cycles))
            batch_out = batched.run_batch(
                [(scalars, memories) for scalars, memories in prepared],
                max_cycles=max_cycles)
        except EngineError:
            report.mismatches.append(EngineMismatch(
                "batch@%d" % start, interp, "timeout", "timeout"))
            sim = reset_legs()
            continue
        report.batches += 1
        report.runs += len(chunk)
        if batch_out != interp:
            report.mismatches.append(EngineMismatch(
                "batch@%d" % start, interp, batch_out,
                "batched-vs-interpreter"))
        if batch_out != scalar_out:
            report.mismatches.append(EngineMismatch(
                "batch@%d" % start, scalar_out, batch_out,
                "batched-vs-scalar"))
        for name, mem in reference.spec.memory_params:
            batched_image = batched.memory_image(name)
            if batched_image != scalar.memory_image(name):
                report.mismatches.append(EngineMismatch(
                    "batch@%d" % start, "(memories)", name,
                    "warm-memories-vs-scalar"))
                break
            interp_image = [sim.peek_memory(name, addr)
                            for addr in range(mem.depth)]
            if batched_image != interp_image:
                report.mismatches.append(EngineMismatch(
                    "batch@%d" % start, "(memories)", name,
                    "warm-memories-vs-interpreter"))
                break
    report.lockstep_batches = batched.lockstep_batches
    report.fallback_batches = batched.fallback_batches
    return report


def assert_batch_equivalent(fn, opt_level=0, batch=8, **kwargs):
    """Raise :class:`~repro.errors.EngineError` unless the batched
    driver matches one-lane execution and the interpreter on a warm
    job stream; returns the report otherwise."""
    report = batch_differential_check(fn, opt_level=opt_level,
                                      batch=batch, **kwargs)
    if not report.ok:
        detail = report.mismatches[0] if report.mismatches else \
            "no comparable runs"
        raise EngineError(
            "batched-engine verification failed for %r at -O%d "
            "(batch=%d): %r"
            % (report.name, opt_level, batch, detail))
    return report


class PipelineReport:
    """Outcome of one pipelined-differential session: the -O3
    multi-request-in-flight executor against the sequential -O0
    engine on one warm request stream."""

    def __init__(self, name, opt_level, depth):
        self.name = name
        self.opt_level = opt_level
        self.depth = depth
        self.runs = 0
        self.skipped = 0
        self.mismatches = []
        #: The schedule's initiation interval (None: kernel refused
        #: pipelining and the stream ran serially).
        self.achieved_ii = None
        #: Most requests simultaneously in flight — callers assert
        #: this is > 1 for pipelined kernels, so the check cannot
        #: silently pass without ever overlapping requests.
        self.peak_in_flight = 0
        self.measured_interval = None

    @property
    def ok(self):
        return not self.mismatches and self.runs > 0

    def __repr__(self):
        return ("PipelineReport(%s: depth=%d at -O%d, ii=%r, peak=%d, "
                "%d runs, %d mismatches)"
                % (self.name, self.depth, self.opt_level,
                   self.achieved_ii, self.peak_in_flight, self.runs,
                   len(self.mismatches)))


def pipeline_differential_check(fn, opt_level=3, depth=4, requests=24,
                                seed="engine-pipeline",
                                max_cycles=400000, input_factory=None,
                                deep_inputs=None, level_budget=None):
    """Differential proof for the pipelined executor
    (:mod:`repro.engine.pipelined`).

    One warm request stream runs through the sequential ``-O0`` engine
    and the ``-Oopt_level`` :class:`~repro.engine.pipelined.
    PipelinedKernel` with up to *depth* requests in flight.  Warm
    memories are seeded identically once, then each request carries
    its own scalars and a full image of the kernel's stream buffer
    (the ``frame``), exactly the per-request shape the cycle models
    use.  Per-request results, per-request reply bytes (the mutated
    stream buffer), and the final image of every memory must match;
    latencies are exempt (overlap legitimately changes them).

    The stream is split into two ``run_stream`` calls at an offset
    that is deliberately *not* a multiple of *depth*, so the pipeline
    drains mid-batch and restarts warm — the ragged-shutdown shape.
    """
    from repro.engine.compiler import compile_kernel
    from repro.engine.pipelined import PipelinedKernel
    from repro.kiwi.compiler import DEFAULT_LEVEL_BUDGET, compile_function
    design = compile_function(
        fn, opt_level=opt_level,
        level_budget=(DEFAULT_LEVEL_BUDGET if level_budget is None
                      else level_budget))
    sequential = compile_kernel(fn, opt_level=0)
    pipelined = PipelinedKernel(design, depth=depth)
    report = PipelineReport(design.name, opt_level, depth)
    schedule = pipelined.schedule
    if schedule is not None and schedule.feasible:
        report.achieved_ii = schedule.initiation_interval
    rng = random.Random("%s/%s" % (seed, design.name))
    make_inputs = input_factory or \
        (lambda r: random_inputs(design.spec, r))
    streams = set(pipelined.stream_memories)
    mem_params = list(design.spec.memory_params)

    # Identical warm seed for both legs, then per-request jobs that
    # reload only the stream buffers.
    warm_scalars, warm_memories = make_inputs(rng)
    jobs = []
    for _ in range(max(1, int(requests)) - len(list(deep_inputs or []))):
        scalars, memories = make_inputs(rng)
        jobs.append((scalars, {name: image
                               for name, image in memories.items()
                               if name in streams}))
    for scalars, memories in (deep_inputs or []):
        jobs.append((scalars, {name: image
                               for name, image in memories.items()
                               if name in streams}))

    def seed_leg(kernel):
        kernel.reset()
        for name, image in warm_memories.items():
            kernel.load_memory(name, list(image))

    # Sequential leg first; a timeout truncates the stream for both
    # legs so the warm comparison stays aligned.
    seed_leg(sequential)
    expected = []
    for index, (scalars, memories) in enumerate(jobs):
        try:
            results, _, _ = sequential.run(
                max_cycles=max_cycles,
                memories={name: list(image)
                          for name, image in memories.items()},
                **scalars)
        except EngineError:
            report.skipped += len(jobs) - index
            jobs = jobs[:index]
            break
        expected.append((results,
                         {name: sequential.memory_image(name)
                          for name in streams}))
    final_expected = {name: sequential.memory_image(name)
                      for name, _ in mem_params}

    seed_leg(pipelined)
    split = max(1, len(jobs) - max(1, depth // 2 + 1))
    try:
        got = list(pipelined.run_stream(jobs[:split],
                                        max_cycles=max_cycles))
        drained = pipelined.peak_in_flight
        got += list(pipelined.run_stream(jobs[split:],
                                         max_cycles=max_cycles))
    except EngineError as exc:
        report.mismatches.append(EngineMismatch(
            "stream", "completed", str(exc), "timeout"))
        return report
    report.peak_in_flight = max(drained, pipelined.peak_in_flight)
    report.measured_interval = pipelined.measured_interval()

    report.runs = len(jobs)
    for index, ((results, images), (p_results, _, p_images)) in \
            enumerate(zip(expected, got)):
        if results != p_results:
            report.mismatches.append(EngineMismatch(
                "request %d" % index, results, p_results, "results"))
        elif images != p_images:
            report.mismatches.append(EngineMismatch(
                "request %d" % index, "(reply bytes)", "(reply bytes)",
                "reply-bytes"))
    for name, _ in mem_params:
        if pipelined.memory_image(name) != final_expected[name]:
            report.mismatches.append(EngineMismatch(
                "final", "(memories)", name, "final-memories"))
            break
    return report


def assert_pipeline_equivalent(fn, opt_level=3, depth=4,
                               require_overlap=None, **kwargs):
    """Raise :class:`~repro.errors.EngineError` unless the pipelined
    executor matches the sequential ``-O0`` engine on a warm request
    stream.  *require_overlap* (default: automatic — required exactly
    when the kernel's schedule is feasible) additionally insists the
    stream genuinely had more than one request in flight."""
    report = pipeline_differential_check(fn, opt_level=opt_level,
                                         depth=depth, **kwargs)
    if not report.ok:
        detail = report.mismatches[0] if report.mismatches else \
            "no comparable runs"
        raise EngineError(
            "pipelined-engine verification failed for %r at -O%d "
            "(depth=%d): %r"
            % (report.name, opt_level, depth, detail))
    if require_overlap is None:
        require_overlap = report.achieved_ii is not None
    if require_overlap and report.peak_in_flight < 2:
        raise EngineError(
            "pipelined-engine verification for %r never overlapped "
            "requests (peak in flight %d)"
            % (report.name, report.peak_in_flight))
    return report


def assert_engine_equivalent(fn, opt_level=0, **kwargs):
    """Raise :class:`~repro.errors.EngineError` unless the engine
    matches the interpreter; returns the report otherwise."""
    report = engine_differential_check(fn, opt_level=opt_level, **kwargs)
    if not report.ok:
        detail = report.mismatches[0] if report.mismatches else \
            "no comparable runs"
        raise EngineError(
            "engine verification failed for %r at -O%d: %r"
            % (report.name, opt_level, detail))
    return report
