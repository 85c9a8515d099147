"""The cycle model's view of a kernel, as a ``repro.verify`` leg.

``Cycles(level, cuts)`` runs a stream through
``BatchedKernel.latencies``, the latency-only entry
``KernelCycleModel`` measures with: one call per run of jobs that share
their scalars, one full ``frame`` image per job, and a job that brings
power-on images of the other memories starts a new call with them
loaded (backdoor, like the warm tables a service pokes in).  It shares
``Interpreter``'s timing key, so a check compares every job's cycle
count, and it sees only the shared memories: results and the reply
bytes are what a latency-only layout does not compute.
"""

from repro.engine.batch import BatchedKernel
from repro.verify import MAX_CYCLES, OneLane, _label

#: The memory every job loads in full.
STREAM = "frame"


class Cycles(OneLane):
    """``BatchedKernel.latencies`` over the stream cut by *cuts*."""

    kind = "cycles"
    engine = BatchedKernel

    def __init__(self, level, cuts):
        super().__init__(level)
        self.cuts = cuts
        self.name += _label(cuts)

    def step(self, burst):
        out, images, scalars = [], [], None
        for job_scalars, memories in burst:
            shared = sorted(memories.keys() - {STREAM})
            if images and (shared or job_scalars != scalars):
                out += self._latencies(scalars, images)
                images = []
            for name in shared:
                self.kernel.load_memory(name, memories[name])
            scalars = job_scalars
            images.append(memories[STREAM])
        return out + self._latencies(scalars, images)

    def _latencies(self, scalars, images):
        cycles = self.kernel.latencies(scalars, STREAM, images, MAX_CYCLES)
        for name in ("lockstep_batches", "fallback_batches"):
            self.counters[name] = getattr(self.kernel, name)
        return [({}, count) for count in cycles]

    def settled(self):
        return {name: self.kernel.memory_image(name)
                for name, _ in self.kernel.spec.memory_params
                if name != STREAM}
