"""The FPGA target: NetFPGA SUME timing around the functional pipeline.

Latency model (what the DAG card would see, DUT-only, §5.2):

    DUT latency = PHY/MAC (rx+tx) + arbiter wait + ingest + core cycles
                  + byte-serial datapath work + egress + serialization

All cycle terms run at the SUME's native 200 MHz (5 ns/cycle).  The only
non-determinism is the arbiter phase (0–3 cycles, seeded RNG): FPGA
latency is *predictable*, which is exactly the paper's headline
observation — 99th percentile within ~20–50 ns of the average, against
milliseconds of host-side tail.

Throughput model: the paper's services process one request at a time in
the core (FSM semantics), so the sustainable query rate is
``1 / (per-request datapath time)``, capped by 10G line rate for the
request size.  §5.4's numbers are consistent with this (e.g. ICMP echo:
1.09 µs avg latency ≈ 0.78 µs wire constant + 1/3.226 Mq/s of datapath).

At ``-O3`` the core may overlap independent requests (the Kiwi
pipelining schedule's initiation interval): each request's *latency*
is unchanged, but the steady-state interval between completions drops
to the widest stage — the core's II, either ingest walk, or the
byte-serial extra work — so the sustainable rate rises accordingly
(:meth:`FpgaTimingModel.cycles`).
"""

import itertools
import random

from repro.errors import TargetError
from repro.targets.pipeline import BUS_BYTES, NetfpgaPipeline

CLOCK_HZ = 200_000_000
NS_PER_CYCLE = 1e9 / CLOCK_HZ

PHY_MAC_NS = 640            # rx + tx PHY/MAC pair (10GBASE-R + MAC)
ARBITER_BASE_CYCLES = 8     # input arbiter + metadata path
OUTPUT_QUEUE_CYCLES = 8
ARBITER_JITTER_CYCLES = 3   # phase alignment: the only latency noise
LINE_RATE_BPS = 10_000_000_000
ETHERNET_OVERHEAD_BYTES = 24   # preamble + FCS + IFG


def line_rate_pps(frame_bytes):
    """Max packets/s of one 10G port at a given frame size."""
    wire_bytes = max(frame_bytes, 60) + ETHERNET_OVERHEAD_BYTES
    return LINE_RATE_BPS / (8.0 * wire_bytes)


#: Nothing measured ahead: a core run counts (or measures) its own cycles.
_UNMEASURED = itertools.repeat(None)


def _checksum_walk_cycles(frame):
    return len(frame.data) // 4


class FpgaTimingModel:
    """Turns measured core cycles + frame sizes into nanoseconds."""

    def __init__(self, seed=1):
        self._rng = random.Random(seed)

    def cycles(self, frame_bytes, core_cycles, extra_cycles=0,
               reply_bytes=None, core_interval_cycles=None):
        """``(latency, occupancy)`` of one request in datapath cycles,
        the two bus walks computed once for both.

        *latency* is the jitter-free trip through the DUT.  *occupancy*
        is how long the request holds the datapath, which sets the max
        query rate: the same sum while the core runs one request at a
        time, the steady-state interval between completions when it
        overlaps them every ``core_interval_cycles`` (the -O3 initiation
        interval).  Then the arbiter/output-queue constants amortize
        across in-flight requests and only the *widest* stage bounds
        throughput.  The stages of the pipelined datapath are the
        ingress walk, the core, and the egress walk; the byte-serial
        extra work (request parse and checksum-in on the way in,
        response construction and checksum-out on the way out) rides
        the two walks, half each, so it lengthens those stages rather
        than forming a fourth serial unit.  Each stage still holds one
        request at a time — total work per request is conserved, only
        the overlap across requests changes."""
        # Store-and-forward over the 256-bit bus, each way (ceil).
        ingress = -(-frame_bytes // BUS_BYTES)
        egress = ingress if reply_bytes is None \
            else -(-reply_bytes // BUS_BYTES)
        latency = (ARBITER_BASE_CYCLES + ingress + core_cycles +
                   extra_cycles + egress + OUTPUT_QUEUE_CYCLES)
        if core_interval_cycles is None:
            return latency, latency
        extra_in = extra_cycles // 2
        return latency, max(1, core_interval_cycles, ingress + extra_in,
                            egress + extra_cycles - extra_in)

    def wire_ns(self, latency_cycles, reply_bytes):
        """What the DAG card sees for a reply that took *latency_cycles*
        through the datapath: PHY/MAC, this request's arbiter phase (the
        one random draw) and serialization added."""
        cycles = latency_cycles + \
            self._rng.randrange(ARBITER_JITTER_CYCLES + 1)
        serialization_ns = 8e9 * reply_bytes / LINE_RATE_BPS
        return PHY_MAC_NS + cycles * NS_PER_CYCLE + serialization_ns

    def latency_ns(self, frame_bytes, core_cycles, extra_cycles=0,
                   reply_bytes=None):
        reply_bytes = frame_bytes if reply_bytes is None else reply_bytes
        return self.wire_ns(self.cycles(
            frame_bytes, core_cycles, extra_cycles, reply_bytes)[0],
            reply_bytes)

    def service_time_ns(self, frame_bytes, core_cycles, extra_cycles=0,
                        reply_bytes=None):
        """Per-request datapath occupancy of a one-at-a-time core."""
        return self.cycles(frame_bytes, core_cycles, extra_cycles,
                           reply_bytes)[1] * NS_PER_CYCLE


class FpgaTarget:
    """Run a service as the main logical core of a NetFPGA SUME.

    ``send(frame)`` returns the request's outcome, ``(emitted,
    latency_ns, core_cycles, service_ns)`` (see
    :mod:`repro.deploy.backends`); the device keeps no per-request
    history — that is :class:`~repro.deploy.metrics.Metrics`' job, above
    the deployment.

    *opt_level* selects the Kiwi middle-end level for the core-cycle
    model.  ``None`` (the default) keeps the behavioural pause-count;
    an integer compiles the service's flat kernel (services that have
    one expose ``kernel_cycle_model``) at that level and measures each
    request on the resulting netlist, so Table 3/4-style rows can
    compare optimized against unoptimized cycles per request.
    """

    def __init__(self, service, num_ports=4, seed=1, opt_level=None,
                 level_budget=None):
        self.service = service
        self.opt_level = opt_level
        self.level_budget = level_budget
        cycle_model = None
        if opt_level is not None:
            factory = getattr(service, "kernel_cycle_model", None)
            if factory is None:
                raise TargetError(
                    "service %r has no compiled-kernel cycle model; "
                    "cannot honour opt_level=%r"
                    % (getattr(service, "name", service), opt_level))
            cycle_model = factory(opt_level, level_budget=level_budget)
        self.pipeline = NetfpgaPipeline(service, num_ports,
                                        cycle_model=cycle_model)
        #: The core's -O3 initiation interval (cycles), or None when
        #: the core runs one request at a time (behavioural model,
        #: below -O3, or no feasible pipelining schedule).
        self.core_interval_cycles = getattr(
            cycle_model, "initiation_interval", None)
        # Byte-serial datapath work beyond the handler's own pauses.
        # Services override ``datapath_extra_cycles`` when their
        # hardware implementation does byte-serial work the behavioural
        # handler expresses in one step (checksums over payloads,
        # response construction); the default charges the checksum
        # walk.
        self._extra_cycles = getattr(
            service, "datapath_extra_cycles", _checksum_walk_cycles)
        self.timing = FpgaTimingModel(seed)
        self.seed = seed

    @property
    def cycle_model(self):
        """The compiled-kernel cycle model driving this device's core
        counts (``None`` on the behavioural pause-count path) — the
        observability layer reaches it here to enable per-FSM-state
        profiling."""
        return self.pipeline.cycle_model

    def send(self, frame):
        """One request through the DUT; returns its outcome."""
        return self._emit(frame, self._core(self.pipeline.admit(frame),
                                            _UNMEASURED))

    def send_batch(self, frames):
        """A burst of requests through the DUT.

        Returns one outcome per frame.  How a stream is cut into
        bursts (or ``send`` calls) is unobservable: admission,
        arbitration, behavioural fate, statistics, and the
        arbiter-jitter RNG all advance in frame order.  With a compiled
        cycle model the burst's admitted frames are measured in one
        ``cycles_batch`` call.
        """
        frames = list(frames)
        pipeline = self.pipeline
        model = pipeline.cycle_model
        # Per frame, what the arbiter handed the core on its arrival
        # (``None``: the ingress FIFO refused the frame).
        queued = [pipeline.admit(frame) for frame in frames]
        measured = _UNMEASURED if model is None else iter(
            model.cycles_batch([frame for frame in queued
                                if frame is not None]))
        # One pass per stage, not per frame: a long burst keeps each
        # stage's code and data hot (measured: ~2 us/request at 64).
        cores = [self._core(frame, measured) for frame in queued]
        return [self._emit(frame, core)
                for frame, core in zip(frames, cores)]

    def _core(self, frame, measured):
        """The core run of a frame the arbiter handed over (``None``
        passes through): its dataplane, its cycles — the next of
        *measured* — and its extra cycles, read behind its own run and
        before the next (services may accrue them per request: DRAM)."""
        if frame is None:
            return None
        dataplane, cycles = self.pipeline.run_core(frame, next(measured))
        return frame, dataplane, cycles, self._extra_cycles(frame)

    def _emit(self, frame, core):
        """A frame's dispatch, statistics and timing — its outcome;
        *core* is its :meth:`_core` (``None``: refused at ingress).
        The occupancy is what the request serialises on the core for,
        drops included: a rejected frame still occupied the core."""
        if core is None:
            emitted, core_cycles = [], 0
            extra_cycles = self._extra_cycles(frame)
        else:
            frame, dataplane, core_cycles, extra_cycles = core
            emitted = self.pipeline.dispatch(dataplane)
        reply_bytes = len(emitted[0][1].data) if emitted else None
        latency_cycles, occupancy = self.timing.cycles(
            len(frame.data), core_cycles, extra_cycles, reply_bytes,
            self.core_interval_cycles)
        service_ns = occupancy * NS_PER_CYCLE
        if not emitted:               # dropped: nothing on the wire
            return emitted, None, core_cycles, service_ns
        self.pipeline.drain(emitted)
        return (emitted, self.timing.wire_ns(latency_cycles, reply_bytes),
                core_cycles, service_ns)

    def max_qps(self, frame):
        """Sustainable queries/s for requests shaped like *frame*."""
        emitted, core_cycles, queued = self.pipeline.process_frame(
            frame.copy())
        self.pipeline.drain(emitted)
        if queued is not None:
            frame = queued
        occupancy = self.timing.cycles(
            len(frame.data), core_cycles, self._extra_cycles(frame),
            len(emitted[0][1].data) if emitted else None,
            self.core_interval_cycles)[1]
        return min(1e9 / (occupancy * NS_PER_CYCLE),
                   line_rate_pps(len(frame.data)))
