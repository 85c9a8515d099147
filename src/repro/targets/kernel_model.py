"""Compiled-kernel cycle model for the FPGA target.

The behavioural services count one cycle per ``pause()`` segment —
faithful to the unoptimized schedule but blind to the optimizer.  When
a target is given an explicit ``opt_level``, services that have a flat
Emu-Python kernel swap in this model instead: the kernel is compiled at
that level and every request's core-cycle count is *measured* by
running the frame through the compiled machine's latency-only layout
(:meth:`~repro.engine.batch.BatchedKernel.latencies`: every branch and
every write to the warm memories, none of the reply bytes or results),
with warm state, so stateful kernels — e.g. Memcached's key-value
memories — keep their state between requests, exactly like the
hardware.  Its cycle counts are the interpreted netlist's by the
engine's differential proof (:mod:`repro.verify`); the wall clock is
not.
"""

from repro.engine.batch import BatchedKernel
from repro.errors import TargetError
from repro.kiwi.compiler import DEFAULT_LEVEL_BUDGET, compile_function


class KernelCycleModel:
    """Measured core cycles per request, from a compiled kernel.

    *scalars* are poked on every invocation (latched parameters such as
    the service IP); the *frame_param* memory is loaded with the frame
    bytes (zero-padded / truncated to the memory depth).  All other
    kernel memories stay warm across requests.
    """

    def __init__(self, kernel, opt_level, scalars=None,
                 frame_param="frame", max_cycles=100000,
                 level_budget=None):
        self.level_budget = (DEFAULT_LEVEL_BUDGET if level_budget is None
                             else int(level_budget))
        self.design = compile_function(kernel, opt_level=opt_level,
                                       level_budget=self.level_budget)
        memories = dict(self.design.spec.memory_params)
        if frame_param not in memories:
            raise TargetError(
                "kernel %r has no %r memory parameter"
                % (self.design.name, frame_param))
        self.frame_param = frame_param
        self.depth = memories[frame_param].depth
        self.scalars = dict(scalars or {})
        self.max_cycles = max_cycles
        self._runner = BatchedKernel(self.design)
        self.requests = 0
        self.total_cycles = 0

    @property
    def initiation_interval(self):
        """Steady-state issue interval (cycles) from the ``-O3``
        pipelining schedule, or None when the machine does not pipeline
        (below -O3, analysis refused, or the frame buffer is not a
        per-request stream memory so requests cannot overlap)."""
        schedule = getattr(self.design.fsm, "pipeline_schedule", None)
        if schedule is None or not schedule.feasible:
            return None
        if self.frame_param not in schedule.stream_memories:
            return None
        return schedule.initiation_interval

    def poke_memory(self, name, addr, value):
        """Backdoor-program one warm memory word (services use this to
        install rule tables etc.)."""
        self._runner.poke_memory(name, addr, value)

    # -- profiling (per-FSM-state cycle attribution) -------------------------

    def enable_profiling(self):
        """Count cycles per FSM state from now on
        (:meth:`repro.engine.compiler.CompiledKernel.enable_profiling`)."""
        self._runner.enable_profiling()
        return self

    def profile(self):
        """The accumulated :class:`~repro.obs.profiler.KernelProfile`
        (raises unless :meth:`enable_profiling` ran first)."""
        from repro.obs.profiler import KernelProfile
        return KernelProfile.from_kernel(self._runner)

    def cycles(self, frame):
        """Measured latency (cycles) of one frame through the kernel."""
        return self.cycles_batch([frame])[0]

    def cycles_batch(self, frames):
        """Measured latencies (cycles) of *frames*, in order.

        They go through the lockstep driver in one call; how a stream
        is cut into calls is unobservable — cycle counts and the
        warm-memory end state are those of one frame per call (the
        ``Cycles`` leg of the differential suite proves it).
        """
        depth = self.depth
        latencies = self._runner.latencies(
            self.scalars, self.frame_param,
            [frame.data[:depth].ljust(depth, b"\0") for frame in frames],
            self.max_cycles)
        self.requests += len(latencies)
        self.total_cycles += sum(latencies)
        return latencies
