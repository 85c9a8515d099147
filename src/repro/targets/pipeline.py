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
        self._waiting = 0           # frames sitting in the input FIFOs
        self.frames_in = 0
        self.frames_out = 0
        self.frames_dropped_ingress = 0
        self.core_busy_cycles = 0

    def receive(self, frame):
        """A frame arrives on its ``src_port``; queue it for the arbiter."""
        if not 0 <= frame.src_port < self.num_ports:
            raise TargetError("no port %d on this pipeline"
                              % frame.src_port)
        if not self.input_queues[frame.src_port].try_push(frame):
            self.frames_dropped_ingress += 1
            return False
        self.frames_in += 1
        self._waiting += 1
        return True

    def arbitrate(self):
        """Round-robin pick of the next queued frame (or ``None``)."""
        ports = self.num_ports
        start = self._arbiter_next
        for port in range(start, start + ports):
            queue = self.input_queues[port % ports]
            if not queue.empty:
                self._arbiter_next = (port + 1) % ports
                self._waiting -= 1
                return queue.pop()
        return None

    def admit(self, frame):
        """``receive`` then ``arbitrate``: the frame the core gets on
        this arrival (``None``: the ingress FIFO refused *frame*).  With
        nothing waiting, that is the frame itself and it skips the FIFO."""
        if self._waiting or not 0 <= frame.src_port < self.num_ports:
            return self.arbitrate() if self.receive(frame) else None
        self.frames_in += 1
        self._arbiter_next = (frame.src_port + 1) % self.num_ports
        return frame

    def run_core(self, frame, cycles=None):
        """Push one frame through the main logical core.

        Returns ``(dataplane, core_cycles)`` — hardware semantics, so
        the cycle count is measured, not assumed.  *cycles* supplies a
        pre-measured count (the FPGA target measures a whole burst in
        one lockstep run, then replays each frame's behavioural fate
        here with its already-known cost).
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
        # One turn per set bit: every reply service's bitmap is one-hot.
        pending = dataplane.dst_ports & ((1 << self.num_ports) - 1)
        while pending:
            lowest = pending & -pending
            pending ^= lowest
            port = lowest.bit_length() - 1
            out_frame = dataplane.to_frame()
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
        queued = self.admit(frame)
        if queued is None:
            return [], 0, None
        dataplane, cycles = self.run_core(queued)
        return self.dispatch(dataplane), cycles, queued

    def drain(self, emitted):
        """The wire pulls the output queues *emitted* went to dry."""
        for port, _ in emitted:
            self.output_queues[port].clear()

    def occupancy(self):
        """Queue occupancies, for monitoring/debug."""
        return {
            "input": [q.occupancy for q in self.input_queues],
            "output": [q.occupancy for q in self.output_queues],
        }
