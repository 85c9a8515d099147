"""Service base class: one codebase, heterogeneous targets (§3.3).

A service implements ``on_frame(dataplane)`` as a generator that yields
``pause()`` wherever the C# original called ``Kiwi.Pause()``.  The three
targets drive it differently:

* CPU target / network simulator — :meth:`process` drains the generator
  (software semantics);
* FPGA target — the pipeline steps the generator one segment per clock
  (hardware semantics), which *measures* the service's cycle count.

Either way a :class:`~repro.errors.ParseError` out of ``on_frame`` is a
drop, decided here once and counted on ``service.malformed``: the
wrappers keep raising and no handler guards its own header reads.
"""

from repro.core.dataplane import NetFPGAData
from repro.errors import ParseError
from repro.kiwi.runtime import run_software


class EmuService:
    """Base class for Emu network services."""

    #: Human-readable service name (used in reports).
    name = "service"
    #: Frames whose handler raised :class:`ParseError` (dropped).
    malformed = 0

    def on_frame(self, dataplane):
        """Per-frame handler; generator yielding ``pause()`` markers.

        Subclasses decide the fate of the frame by setting
        ``dataplane.dst_ports`` (directly or through the
        :mod:`repro.core.netfpga` helpers); leaving it zero drops the
        frame, exactly like Fig. 2's comment says.
        """
        raise NotImplementedError

    def tick(self):
        """Advance per-clock IP-block models (overridden if any)."""

    # -- software semantics -------------------------------------------------

    def process(self, frame_or_dataplane):
        """Run the handler to completion (software semantics).

        Accepts a :class:`~repro.net.packet.Frame` or a prepared
        :class:`~repro.core.dataplane.NetFPGAData`; returns the dataplane
        so callers can inspect ``dst_ports`` and the mutated frame.
        """
        if isinstance(frame_or_dataplane, NetFPGAData):
            dataplane = frame_or_dataplane
        else:
            dataplane = NetFPGAData(frame_or_dataplane)
        try:
            run_software(self.on_frame(dataplane))
        except ParseError:
            dataplane.dst_ports = 0
            self.malformed += 1
        return dataplane

    def process_counting(self, frame_or_dataplane):
        """Hardware semantics: returns ``(dataplane, cycles)``.

        Steps the handler one pause-segment per cycle, ticking IP-block
        models on the shared clock; the cycle count is the service's
        contribution to module latency.
        """
        if isinstance(frame_or_dataplane, NetFPGAData):
            dataplane = frame_or_dataplane
        else:
            dataplane = NetFPGAData(frame_or_dataplane)
        gen = self.on_frame(dataplane)
        cycles = 1
        try:
            while True:
                next(gen)
                cycles += 1
                self.tick()
        except StopIteration:
            pass
        except ParseError:              # cycles: up to the raising segment
            dataplane.dst_ports = 0
            self.malformed += 1
        return dataplane, cycles

    def reset(self):
        """Clear learned/cached state (overridden where meaningful)."""
