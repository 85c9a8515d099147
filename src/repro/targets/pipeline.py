"""Functional model of the NetFPGA reference pipeline (Fig. 10).

Four 10G ports feed per-port input FIFOs; a round-robin input arbiter
picks one frame at a time into the *main logical core* (the Emu
service); the core's output bitmap fans the frame out into per-port
output queues, which drain onto the wires.

"Emu capitalizes on this generic NetFPGA design: we target only the
main logical core and build upon all other components to be shared
between services."  This module is those shared components.
"""

from repro.core.dataplane import NetFPGAData
from repro.errors import TargetError
from repro.ip.fifo import SyncFIFO

BUS_BYTES = 32                  # 256-bit AXI-Stream datapath
INPUT_QUEUE_DEPTH = 64
OUTPUT_QUEUE_DEPTH = 64


class NetfpgaPipeline:
    """Input arbiter + main logical core slot + output queues.

    *cycle_model* (optional, a
    :class:`~repro.targets.kernel_model.KernelCycleModel`) replaces the
    behavioural pause-count with cycles measured on the compiled kernel
    — the frame's fate is still decided behaviourally, but its cost is
    the optimized (or deliberately unoptimized) machine's.
    """

    def __init__(self, service, num_ports=4, cycle_model=None):
        self.service = service
        self.num_ports = num_ports
        self.cycle_model = cycle_model
        self.input_queues = [SyncFIFO(width=8, depth=INPUT_QUEUE_DEPTH)
                             for _ in range(num_ports)]
        self.output_queues = [SyncFIFO(width=8, depth=OUTPUT_QUEUE_DEPTH)
                              for _ in range(num_ports)]
        self._arbiter_next = 0
        self.frames_in = 0
        self.frames_out = 0
        self.frames_dropped_ingress = 0
        self.core_busy_cycles = 0

    def receive(self, frame):
        """A frame arrives on its ``src_port``; queue it for the arbiter."""
        if not 0 <= frame.src_port < self.num_ports:
            raise TargetError("no port %d on this pipeline"
                              % frame.src_port)
        queue = self.input_queues[frame.src_port]
        if not queue.try_push(frame):
            self.frames_dropped_ingress += 1
            return False
        self.frames_in += 1
        return True

    def arbitrate(self):
        """Round-robin pick of the next queued frame (or ``None``)."""
        ports = self.num_ports
        start = self._arbiter_next
        for port in range(start, start + ports):
            queue = self.input_queues[port % ports]
            if not queue.empty:
                self._arbiter_next = (port + 1) % ports
                return queue.pop()
        return None

    def run_core(self, frame, cycles=None):
        """Push one frame through the main logical core.

        Returns ``(dataplane, core_cycles)`` — hardware semantics, so
        the cycle count is measured, not assumed.  *cycles* supplies a
        pre-measured count (the batched FPGA target measures a whole
        burst in one lockstep run, then replays each frame's
        behavioural fate here with its already-known cost).
        """
        dataplane = NetFPGAData(frame)
        dataplane, counted = self.service.process_counting(dataplane)
        if cycles is None:
            cycles = counted if self.cycle_model is None \
                else self.cycle_model.cycles(frame)
        self.core_busy_cycles += cycles
        return dataplane, cycles

    def dispatch(self, dataplane):
        """Fan the core's decision out into the output queues."""
        emitted = []
        dst_ports = dataplane.dst_ports
        for port in range(self.num_ports):
            if dst_ports >> port & 1:
                out_frame = dataplane.to_frame()
                out_frame.src_port = dataplane.src_port
                if self.output_queues[port].try_push((port, out_frame)):
                    emitted.append((port, out_frame))
                    self.frames_out += 1
        return emitted

    def process_frame(self, frame):
        """Full path: receive → arbitrate → core → output queues.

        Returns ``(emitted, core_cycles, queued)`` where *emitted* is a
        list of ``(port, frame)`` and *queued* the frame the arbiter
        handed the core on this arrival (``None``: the ingress FIFO
        refused *frame*).
        """
        if not self.receive(frame):
            return [], 0, None
        queued = self.arbitrate()
        dataplane, cycles = self.run_core(queued)
        return self.dispatch(dataplane), cycles, queued

    def drain_port(self, port):
        """Pop everything sitting in one output queue."""
        frames = []
        queue = self.output_queues[port]
        while not queue.empty:
            frames.append(queue.pop()[1])
        return frames

    def occupancy(self):
        """Queue occupancies, for monitoring/debug."""
        return {
            "input": [q.occupancy for q in self.input_queues],
            "output": [q.occupancy for q in self.output_queues],
        }
