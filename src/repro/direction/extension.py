"""Program transformation: embedding the controller (Fig. 11).

"Transformation of the program to include a controller: normal packets
are handled without change, but direction packets are passed to the
controller.  Pink dots represent extension points, one of which is
added within the control flow of the original program."

:class:`DirectedService` wraps any Emu service with exactly that
transformation; :func:`extension_point` is the marker services (or the
wrapper) use to signal a crossing.
"""

from repro.direction.controller import Controller
from repro.direction.packets import (
    KIND_COMMAND, KIND_REPLY, build_direction_packet, is_direction_frame,
    parse_direction_packet,
)
from repro.errors import DirectionError, ParseError
from repro.kiwi.runtime import pause
from repro.services.base import EmuService

MAIN_LOOP_POINT = "main_loop"


def extension_point(controller, name):
    """Signal that execution crossed extension point *name*."""
    return controller.hit(name)


class DirectedService(EmuService):
    """A service extended with a debug controller (the Fig. 11 shape).

    * direction packets are intercepted and executed by the controller,
      with replies sent back to the director;
    * one extension point is crossed in the main loop, before the
      original handler runs;
    * the wrapped service's counters/statistics are exposed through the
      accessor enumeration automatically, and callers may expose more.
    """

    def __init__(self, service, features=("read", "write", "increment"),
                 my_mac=0x02_00_00_00_00_0D):
        self.inner = service
        self.name = service.name + "+debug"
        self.my_mac = my_mac
        self.controller = Controller(features=features)
        self.controller.add_point(MAIN_LOOP_POINT)
        self.frames_directed = 0
        self._expose_service_counters()

    def _expose_service_counters(self):
        for attr, value in vars(self.inner).items():
            if isinstance(value, int) and not attr.startswith("_"):
                self.controller.expose(
                    attr,
                    getter=lambda a=attr: getattr(self.inner, a),
                    setter=lambda v, a=attr: setattr(self.inner, a, v))

    def on_frame(self, dataplane):
        # Fig. 11: the direction check runs before the program.
        if is_direction_frame(dataplane.tdata):
            yield pause()
            self._handle_direction(dataplane)
            return
        # The in-control-flow extension point.
        if not extension_point(self.controller, MAIN_LOOP_POINT):
            # A breakpoint fired: the program is stopped; drop traffic
            # until the director resumes it.
            dataplane.dst_ports = 0
            return
        yield pause()
        yield from self.inner.on_frame(dataplane)

    def _handle_direction(self, dataplane):
        self.frames_directed += 1
        try:
            kind, seq, point, text = parse_direction_packet(
                dataplane.tdata)
        except ParseError:
            dataplane.dst_ports = 0
            return
        if kind != KIND_COMMAND:
            dataplane.dst_ports = 0
            return
        reply_lines = []
        try:
            if text == "resume":
                self.controller.resume()
                reply_lines.append("resumed")
            elif text.startswith("uninstall"):
                parts = text.split()
                self.controller.uninstall(
                    point, parts[1] if len(parts) > 1 else None)
                reply_lines.append("uninstalled")
            else:
                self.controller.install(point, text)
                reply_lines.append("installed")
        except DirectionError as err:
            reply_lines.append("error: %s" % err)
        for reply_name, value in self.controller.replies():
            reply_lines.append("%s=%s" % (reply_name, value))

        from repro.core.protocols.ethernet import EthernetWrapper
        eth = EthernetWrapper(dataplane.tdata)
        director_mac = eth.source_mac
        reply = build_direction_packet(
            director_mac, self.my_mac, KIND_REPLY, seq, point,
            "\n".join(reply_lines))
        dataplane.tdata[:] = reply
        dataplane.dst_ports = 1 << dataplane.src_port

    def datapath_extra_cycles(self, frame):
        inner = getattr(self.inner, "datapath_extra_cycles", None)
        base = inner(frame) if inner is not None else len(frame.data) // 4
        # The controller's extension point costs one pipeline bubble
        # only when procedures are installed (Table 5 shows ~0-0.5%).
        has_procs = any(self.controller._points.values())
        return base + (1 if has_procs else 0)

    def reset(self):
        self.inner.reset()
