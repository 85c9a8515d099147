"""One differential harness: ``check(subject, legs, streams)``.

Emu's promise is that one program means the same thing on every
target; the evidence for it is differential and lives here, above
every layer (``repro.kiwi`` never imports ``repro.engine``; no serving
process imports this module).

A *leg* is one way of executing a stream of jobs from power-on: the
interpreted netlist at ``-On``, the one-lane engine, the lockstep
driver under a cut list, the pipelined driver at a depth, a deployed
backend.  It returns one ``(seen, cost)`` observation per job: *seen*
maps ``"result"`` to what the job returned and a memory's name to its
image wherever the leg can see it settled after that job (every memory
on a sequential leg; the stream buffers per request, and everything at
a drain, on an overlapping one), *cost* is the job's cycles or latency.

:func:`check` runs every leg on the same streams.  Whatever two legs
both see must be equal; cost is compared only between legs whose
``timing`` keys are equal (same-level sequential executors, the same
backend under different cuts), so overlap and optimization are exempt
by construction, not by a flag.

:func:`job_streams` is the one input story: a bare kernel gets
dictionary noise, a ``KernelCase`` its representative request and
warm-ups with a few words redrawn (plus the case's crafted generator),
a ``ServiceSpec`` its shard-safe trace.
"""

import collections
import functools
import random

from repro.deploy.builder import deploy
from repro.engine.batch import BatchedKernel
from repro.engine.compiler import CompiledKernel
from repro.engine.pipelined import PipelinedKernel
from repro.errors import CompileError, EngineError, ReproError
from repro.kiwi.compiler import DEFAULT_LEVEL_BUDGET, compile_function
from repro.kiwi.frontend import parse_function
from repro.kiwi.opt.pipeline import DEFAULT_STREAM_MEMORIES

#: Per-job cycle budget; a job the first leg cannot finish is skipped.
MAX_CYCLES = 200000
#: The cut list that hands a stream over in one call.
WHOLE = (1 << 30,)


class Divergence(ReproError):
    """Two legs of a :func:`check` disagreed (or nothing was compared)."""


# -- the input story ---------------------------------------------------------

# Byte values protocol parsers compare against (EtherType 0x08/0x00,
# IP protocols 6/17, ports 53 and 11211 = 0x2B 0x67, the binary
# memcached magic 0x80, bitmask edges): drawing from them makes a
# redrawn header byte land on another valid value far more often than
# uniform noise would.
_DICTIONARY = (0x00, 0x01, 0x06, 0x08, 0x11, 0x35, 0x2B, 0x67, 0x80,
               0xFF)


def _random_word(rng, width):
    if rng.random() < 0.5:
        return rng.getrandbits(width)
    value = 0
    for _ in range((width + 7) // 8):
        value = (value << 8) | rng.choice(_DICTIONARY)
    return value & ((1 << width) - 1)


def draw_job(subject, spec, rng, full):
    """One ``(scalars, memories)`` job for *subject*'s kernel.  A
    *full* job loads every memory (a power-on image: the case's own
    tables, or noise half the time); any other carries only the stream
    buffers and runs on whatever the stream left warm."""
    widths = dict(spec.scalar_params)
    mems = dict(spec.memory_params)

    def noise(mem):
        return [_random_word(rng, mem.width) for _ in range(mem.depth)]

    if not hasattr(subject, "kernel"):      # bare kernel: all noise
        scalars = {name: _random_word(rng, param.width)
                   for name, param in widths.items()}
        memories = {name: noise(mem) for name, mem in mems.items()}
    else:
        bases = [(subject.scalars, subject.memories)] + [
            (scalars, memories) for memories, scalars in subject.warmups]
        pick = rng.randrange(len(bases) + (subject.crafted is not None))
        scalars, memories = (bases[pick] if pick < len(bases)
                             else subject.crafted(rng))
        scalars = {name: scalars.get(name, 0) for name in widths}
        noisy = rng.random() >= 0.5
        memories = {
            name: noise(mem)
            if noisy and name not in DEFAULT_STREAM_MEMORIES
            else (list(memories.get(name, ())) + [0] * mem.depth)[:mem.depth]
            for name, mem in mems.items()}
        # Redraw 0-4 words of the request: a scalar, or a stream-buffer
        # byte — where the request is non-zero (its header fields)
        # three times in four.
        words = list(widths) + [name for name in DEFAULT_STREAM_MEMORIES
                                if name in mems]
        for _ in range(rng.randrange(5)):
            name = rng.choice(words)
            if name in widths:
                scalars[name] = _random_word(rng, widths[name].width)
                continue
            image = memories[name]
            live = [addr for addr, word in enumerate(image) if word]
            addr = (rng.choice(live) if live and rng.random() < 0.75
                    else rng.randrange(len(image)))
            image[addr] = _random_word(rng, mems[name].width)
    if not full:
        memories = {name: image for name, image in memories.items()
                    if name in DEFAULT_STREAM_MEMORIES}
    return scalars, memories


def job_streams(subject, jobs, seed):
    """The streams a :func:`check` of *subject* feeds every leg.

    A ``ServiceSpec`` replays its trace of *jobs* frames.  A kernel (or
    ``KernelCase``) gets both shapes: *jobs* cold one-job streams, each
    a full power-on image, then one warm stream of *jobs* jobs — the
    first quarter full images, the rest stream-buffer-only requests
    over what those left behind.
    """
    if hasattr(subject, "trace"):
        return [list(subject.trace(jobs, seed))]
    spec = parse_function(getattr(subject, "kernel", subject))
    rng = random.Random("%s/%s" % (seed, spec.name))
    cold = [[draw_job(subject, spec, rng, True)] for _ in range(jobs)]
    warm = [draw_job(subject, spec, rng, index < max(1, jobs // 4))
            for index in range(jobs)]
    return cold + [warm]


def cut(items, sizes):
    """*items* in consecutive bursts, sizes cycling through *sizes*."""
    start = turn = 0
    while start < len(items):
        size = sizes[turn % len(sizes)]
        yield items[start:start + size]
        start += size
        turn += 1


# -- legs --------------------------------------------------------------------

class Leg:
    """One executor.  :meth:`run` takes a stream from power-on, burst
    by burst, and returns one observation per job — fewer when a burst
    ran out of cycles.  What a leg adds is ``ready`` (build the
    executor), ``power_on``, ``step`` (one burst → ``(seen, cost)``
    per job) and ``settled`` (the memories readable between bursts)."""

    #: Legs with equal non-None keys must agree on every job's cost.
    timing = None
    cuts = (1,)
    unit = "cycles"

    def bind(self, subject, compile_at):
        self.counters = {self.unit: 0}
        self.ready(subject, compile_at)

    def bursts(self, jobs):
        return cut(jobs, self.cuts)

    def settled(self):
        return {}

    def run(self, jobs):
        self.power_on()
        out = []
        for burst in self.bursts(jobs):
            try:
                observed = self.step(burst)
            except (CompileError, EngineError):     # out of cycles
                break
            observed[-1][0].update(self.settled())
            self.counters[self.unit] += sum(cost or 0
                                            for _, cost in observed)
            out += observed
        return out


def _label(cuts):
    return " whole" if cuts == WHOLE else " %s" % list(cuts)


class OneLane(Leg):
    """``CompiledKernel.run``, one job at a time on one warm kernel.
    Sequential executors of one ``-Olevel`` machine share a timing
    key: same level, same cycle counts."""

    kind = "one-lane"
    engine = CompiledKernel
    level_budget = DEFAULT_LEVEL_BUDGET

    def __init__(self, level):
        self.level = level
        self.timing = ("cycles", level)
        self.name = "%s -O%d" % (self.kind, level)

    def ready(self, subject, compile_at):
        self.kernel = self.engine(compile_at(self.level, self.level_budget))

    def power_on(self):
        self.kernel.reset()

    def step(self, burst):
        (scalars, memories), = burst
        results, cycles, _ = self.kernel.run(MAX_CYCLES, memories,
                                             **scalars)
        return [({"result": results}, cycles)]

    def settled(self):
        return {name: self.kernel.memory_image(name)
                for name, _ in self.kernel.spec.memory_params}


class Interpreter(OneLane):
    """The interpreted netlist — the semantic reference."""

    kind = "interpreter"

    def ready(self, subject, compile_at):
        self.design = compile_at(self.level, self.level_budget)

    def power_on(self):
        self.sim = self.design.simulator()

    def step(self, burst):
        (scalars, memories), = burst
        results, cycles, _ = self.design.run_on(
            self.sim, MAX_CYCLES, memories, **scalars)
        return [({"result": results}, cycles)]

    def settled(self):
        return {name: [self.sim.peek_memory(name, addr)
                       for addr in range(mem.depth)]
                for name, mem in self.design.spec.memory_params}


class Lockstep(OneLane):
    """``BatchedKernel.run_batch`` over the stream cut by *cuts*."""

    kind = "lockstep"
    engine = BatchedKernel

    def __init__(self, level, cuts):
        super().__init__(level)
        self.cuts = cuts
        self.name += _label(cuts)

    def step(self, burst):
        lanes = self.kernel.run_batch(burst, MAX_CYCLES)
        for name in ("lockstep_batches", "fallback_batches"):
            self.counters[name] = getattr(self.kernel, name)
        return [({"result": results}, cycles) for results, cycles in lanes]


class Pipelined(OneLane):
    """``PipelinedKernel.run_stream`` with up to *depth* requests in
    flight (latencies are exempt: overlap changes them).  The pipeline
    drains before every job that reloads a shared memory and once more
    ``depth // 2 + 1`` jobs before the end — a ragged shutdown and warm
    restart; each request's private stream buffers are its reply
    bytes."""

    def __init__(self, level, depth, level_budget=DEFAULT_LEVEL_BUDGET):
        self.level = level
        self.depth = depth
        self.level_budget = level_budget
        self.name = "pipelined -O%d depth %d" % (level, depth)

    def ready(self, subject, compile_at):
        self.kernel = PipelinedKernel(
            compile_at(self.level, self.level_budget), depth=self.depth)
        self.streams = frozenset(self.kernel.stream_memories)
        self.counters.update(achieved_ii=self.kernel.ii, peak_in_flight=0,
                             measured_interval=None)

    def bursts(self, jobs):
        out = [[]]
        for index, job in enumerate(jobs):
            if out[-1] and (job[1].keys() - self.streams or
                            index == len(jobs) - self.depth // 2 - 1):
                out.append([])
            out[-1].append(job)
        return out

    def step(self, burst):
        kernel, counters = self.kernel, self.counters
        for name in burst[0][1].keys() - self.streams:
            kernel.load_memory(name, burst[0][1][name])
        retired = kernel.run_stream(
            [(scalars, {name: image for name, image in memories.items()
                        if name in self.streams})
             for scalars, memories in burst], MAX_CYCLES * len(burst))
        counters["peak_in_flight"] = max(counters["peak_in_flight"],
                                         kernel.peak_in_flight)
        if len(burst) > 1:              # the last burst that retired two
            counters["measured_interval"] = kernel.measured_interval()
        return [({"result": results, **images}, latency)
                for results, latency, images in retired]


class Deployed(Leg):
    """One row of ``repro.deploy.conformance.BACKEND_CASES`` replaying
    a trace — ``send`` per frame, or ``send_batch`` over *cuts* — and
    observing each request's ``(port, bytes)`` reply signature.
    Latency is backend-specific by design, so only cuts of the same
    backend compare it."""

    unit = "latency_ns"

    def __init__(self, case, seed, cuts=None):
        self.label, self.backend, self.kwargs, self.opt_level = case
        self.seed = seed
        self.name = self.timing = self.label
        self.batched = cuts is not None
        if self.batched:
            self.cuts = cuts
            self.name += _label(cuts)

    def ready(self, subject, compile_at):
        self.spec = subject

    def power_on(self):
        dep = deploy(self.spec).on(self.backend, **self.kwargs) \
            .with_seed(self.seed)
        if self.opt_level is not None:
            dep.with_opt(self.opt_level)
        self.deployment = dep.start()

    def step(self, burst):
        burst = [frame.copy() for frame in burst]
        replies = (self.deployment.send_batch(burst) if self.batched
                   else [self.deployment.send(burst[0])])
        return [({"result": tuple((port, bytes(frame.data))
                                  for port, frame in emitted)}, latency)
                for emitted, latency in replies]


# -- the check ---------------------------------------------------------------

#: Leg *leg* against leg *against* at job *job* of stream *stream*:
#: *what* names the result index, the memory word (name + first
#: differing address), ``"cost"`` or ``"stopped"``; *got* / *expected*
#: are the two values there.
Mismatch = collections.namedtuple(
    "Mismatch", "leg against stream job what got expected")


class Report:
    """Outcome of one :func:`check`: ``legs`` maps each leg's name to
    its counters (``cycles``; the lockstep driver's
    ``lockstep_batches`` / ``fallback_batches``; the pipelined
    driver's ``achieved_ii`` / ``peak_in_flight`` /
    ``measured_interval``)."""

    def __init__(self, name, legs):
        self.name = name
        self.legs = {leg.name: leg.counters for leg in legs}
        self.runs = 0
        self.skipped = 0             # jobs the first leg timed out on
        self.mismatches = []

    @property
    def ok(self):
        return not self.mismatches and self.runs > 0

    def require(self):
        """Raise :class:`Divergence` unless the check passed."""
        if not self.ok:
            raise Divergence("%r: %r" % (self, (
                self.mismatches or ["no comparable runs"])[0]))
        return self

    def __repr__(self):
        return ("Report(%s: %d legs, %d runs, %d skipped, %d mismatches)"
                % (self.name, len(self.legs), self.runs, self.skipped,
                   len(self.mismatches)))


def _first_difference(got, expected, timed):
    """``(job, what, got, expected)`` where two legs' observations
    first part ways, or None."""
    for job, ((seen, cost), (ref_seen, ref_cost)) in \
            enumerate(zip(got, expected)):
        for what, ours in seen.items():
            theirs = ref_seen.get(what, ours)
            if ours != theirs:
                at = next((index for index, (a, b)
                           in enumerate(zip(ours, theirs)) if a != b),
                          min(len(ours), len(theirs)))
                return (job, "%s[%d]" % (what, at),
                        ours[at] if at < len(ours) else None,
                        theirs[at] if at < len(theirs) else None)
        if timed and cost != ref_cost:
            return job, "cost", cost, ref_cost
    if len(got) != len(expected):
        return len(got), "stopped", len(got), len(expected)
    return None


def check(subject, legs, streams):
    """Run every leg on every stream; returns a :class:`Report`.

    The first leg is the reference: a job it cannot finish truncates
    the stream (counted in ``skipped``), and every other leg's
    functional observations are compared against it.  Costs are
    compared against the first leg with the same ``timing`` key.
    """
    kernel = getattr(subject, "kernel", subject)

    @functools.lru_cache(maxsize=None)      # one design per level per check
    def compile_at(level, level_budget):
        return compile_function(kernel, opt_level=level,
                                level_budget=level_budget)

    for leg in legs:
        leg.bind(subject, compile_at)
    report = Report(getattr(subject, "name", None) or kernel.__name__,
                    legs)
    for index, stream in enumerate(streams):
        seen = {}
        for position, leg in enumerate(legs):
            got = seen[leg.name] = leg.run(stream)
            if not position:
                report.skipped += len(stream) - len(got)
                report.runs += len(got)
                stream = stream[:len(got)]
                continue
            peers = [other for other in legs[:position]
                     if leg.timing is not None
                     and other.timing == leg.timing]
            for against in dict.fromkeys(legs[:1] + peers[:1]):
                found = _first_difference(got, seen[against.name],
                                          against in peers)
                if found is not None:
                    report.mismatches.append(Mismatch(
                        leg.name, against.name, index, *found))
                    break
    return report
