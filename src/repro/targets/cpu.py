"""The CPU target (workflow A of Fig. 1): software semantics.

The service runs as an ordinary process: frames arrive on virtual
interfaces (tap-style), the handler runs to completion per frame, and
replies leave on the interfaces the output bitmap selects.  This is the
develop/test/debug environment — functional, not timing-accurate.
"""

from repro.core.dataplane import NetFPGAData
from repro.net.interfaces import VirtualInterface


class CpuTarget:
    """Run a service over a set of virtual network interfaces.

    *seed* is accepted for uniformity with the other targets (the
    :mod:`repro.deploy` layer threads one seed to every backend).
    Software semantics are deterministic, so the seed changes nothing
    here — but a call site no longer needs to know which targets
    randomize and which don't.
    """

    def __init__(self, service, num_ports=4, seed=1):
        self.service = service
        self.seed = seed
        self.interfaces = [VirtualInterface("veth%d" % port)
                           for port in range(num_ports)]
        self.frames_processed = 0

    def send(self, frame):
        """Inject one frame; returns the list of (port, frame) emitted."""
        dataplane = NetFPGAData(frame)
        self.service.process(dataplane)
        self.frames_processed += 1
        emitted = []
        for port, interface in enumerate(self.interfaces):
            if dataplane.dst_ports & (1 << port):
                out = dataplane.to_frame()
                interface.transmit(out)
                emitted.append((port, out))
        return emitted
