"""The direction subsystem: commands, CASP, controller, packets."""

import random

import pytest

from repro.direction import (
    CaspMachine, CaspProcedure, Controller, DirectedService, Director,
    Op, build_direction_packet, lower_command, parse_command,
    parse_direction_packet,
)
from repro.direction.packets import KIND_COMMAND, KIND_REPLY, \
    is_direction_frame
from repro.errors import DirectionError
from repro.net.packet import Frame, ip_to_int, mac_to_int
from repro.services import IcmpEchoService

SEED = "direction-1"


class TestCommandParsing:
    def test_print(self):
        cmd = parse_command("print x")
        assert (cmd.verb, cmd.target) == ("print", "x")

    def test_break_with_condition(self):
        cmd = parse_command("break L1 counter >= 10")
        assert cmd.verb == "break"
        assert cmd.condition.op == ">="
        assert cmd.condition.value == 10

    def test_watch_and_unwatch(self):
        assert parse_command("watch v v == 0").condition.op == "=="
        assert parse_command("unwatch v").verb == "unwatch"

    def test_count_variants(self):
        for sub in ("reads", "writes", "calls"):
            cmd = parse_command("count %s target" % sub)
            assert cmd.subverb == sub

    def test_trace_subcommands(self):
        for sub in ("start", "stop", "clear", "print", "full"):
            cmd = parse_command("trace %s v" % sub)
            assert cmd.subverb == sub

    def test_trace_start_with_condition_and_length(self):
        cmd = parse_command("trace start v v > 5 32")
        assert cmd.condition.value == 5
        assert cmd.length == 32

    def test_backtrace(self):
        assert parse_command("backtrace").verb == "backtrace"

    def test_hex_condition_constant(self):
        assert parse_command("break L x == 0xff").condition.value == 255

    def test_malformed_rejected(self):
        for bad in ("", "frobnicate x", "print", "count x",
                    "trace bogus v", "break L x ~= 2",
                    "watch v v == notanumber"):
            with pytest.raises(DirectionError):
                parse_command(bad)


class TestCaspMachine:
    def test_counters_and_arrays(self):
        machine = CaspMachine(array_capacity=2)
        proc = CaspProcedure("p", [
            (Op.INC_COUNTER, "c"),
            (Op.PUSH_CONST, 42),
            (Op.APPEND_ARRAY, "buf"),
            (Op.DROP,),
            (Op.CONTINUE,),
        ])
        machine.execute(proc, lambda n: 0, lambda n, v: None)
        assert machine.counter("c") == 1
        assert machine.array("buf") == [42]

    def test_backward_jump_rejected(self):
        """No loops: the controller language is computationally weak."""
        with pytest.raises(DirectionError):
            CaspProcedure("bad", [(Op.JUMP_IF_FALSE, -1)])

    def test_jump_past_end_rejected(self):
        with pytest.raises(DirectionError):
            CaspProcedure("bad", [(Op.JUMP_IF_FALSE, 5), (Op.CONTINUE,)])

    def test_conditional_skip(self):
        machine = CaspMachine()
        proc = CaspProcedure("p", [
            (Op.PUSH_VAR, "x"),
            (Op.PUSH_CONST, 10),
            (Op.CMP, "<"),
            (Op.JUMP_IF_FALSE, 1),
            (Op.INC_COUNTER, "small"),
            (Op.CONTINUE,),
        ])
        machine.execute(proc, lambda n: 5, lambda n, v: None)
        machine.execute(proc, lambda n: 50, lambda n, v: None)
        assert machine.counter("small") == 1

    def test_reply_collection(self):
        machine = CaspMachine()
        proc = CaspProcedure("p", [
            (Op.PUSH_VAR, "v"),
            (Op.REPLY, "v"),
            (Op.CONTINUE,),
        ])
        machine.execute(proc, lambda n: 123, lambda n, v: None)
        assert machine.drain_replies() == [("v", 123)]
        assert machine.drain_replies() == []


class TestLowering:
    def test_fig7_trace_fills_buffer_then_breaks(self):
        """The exact Fig. 7 behaviour: log while room, then overflow."""
        machine = CaspMachine(array_capacity=3)
        proc = lower_command(parse_command("trace start V"))
        outcomes = [
            machine.execute(proc, lambda n: i, lambda n, v: None)
            for i in range(5)
        ]
        assert outcomes == [Op.CONTINUE] * 3 + [Op.BREAK] * 2
        assert machine.array("V_trace_buf") == [0, 1, 2]
        assert machine.counter("V_trace_overflow") == 2

    def test_break_lowers_to_conditional_break(self):
        machine = CaspMachine()
        proc = lower_command(parse_command("break L x == 3"))
        assert machine.execute(proc, lambda n: 2,
                               lambda n, v: None) == Op.CONTINUE
        assert machine.execute(proc, lambda n: 3,
                               lambda n, v: None) == Op.BREAK

    def test_count_lowers_to_counter(self):
        machine = CaspMachine()
        proc = lower_command(parse_command("count writes x"))
        machine.execute(proc, lambda n: 0, lambda n, v: None)
        assert machine.counter("x_writes_count") == 1


class TestController:
    def make(self, features=("read", "write", "increment")):
        controller = Controller(features=features)
        controller.add_point("main")
        state = {"hits": 7}
        controller.expose("hits", lambda: state["hits"],
                          lambda v: state.__setitem__("hits", v))
        return controller, state

    def test_install_and_hit(self):
        controller, _ = self.make()
        controller.install("main", "print hits")
        assert controller.hit("main") is True
        assert controller.replies() == [("hits", 7)]

    def test_breakpoint_stops_program(self):
        controller, _ = self.make()
        controller.install("main", "break main hits == 7")
        assert controller.hit("main") is False
        assert controller.program_stopped
        controller.resume()
        assert not controller.program_stopped

    def test_feature_gating(self):
        controller, _ = self.make(features=("read",))
        with pytest.raises(DirectionError):
            controller.install("main", "count reads hits")

    def test_uninstall(self):
        controller, _ = self.make()
        controller.install("main", "count reads hits")
        controller.uninstall("main", "count")
        controller.hit("main")
        assert controller.machine.counter("hits_reads_count") == 0

    def test_unknown_point_rejected(self):
        controller, _ = self.make()
        with pytest.raises(DirectionError):
            controller.install("nowhere", "print hits")

    def test_unknown_variable_rejected(self):
        controller, _ = self.make()
        controller.install("main", "print mystery")
        with pytest.raises(DirectionError):
            controller.hit("main")

    def test_netlist_grows_with_features(self):
        from repro.rtl import estimate_resources
        read_only = estimate_resources(
            Controller(features=("read",)).build_netlist())
        full = estimate_resources(Controller(
            features=("read", "write", "increment")).build_netlist())
        assert full.logic > read_only.logic

    def test_netlist_and_its_verilog_agree_every_cycle(self, simulators):
        """A seeded ``point_hit``/``var_in`` drive: the netlist and its
        Verilog text agree on ``var_out`` and ``stopped`` after every
        edge, and ``var_out`` is the value captured at the last hit."""
        rng = random.Random("%s/controller" % SEED)
        sim = simulators(Controller(
            features=("read", "write", "increment")).build_netlist())
        captured = 0
        for _ in range(200):
            hit, value = rng.random() < 0.3, rng.randrange(1 << 32)
            sim.poke("point_hit", hit)
            sim.poke("var_in", value)
            captured = value if hit else captured
            sim.step()
            assert (sim.peek("var_out"), sim.peek("stopped")) == \
                (captured, 0)


class TestDirectionPackets:
    MAC_DBG = mac_to_int("02:00:00:00:00:0d")
    MAC_DIR = mac_to_int("02:00:00:00:00:d1")

    def test_roundtrip(self):
        raw = build_direction_packet(self.MAC_DBG, self.MAC_DIR,
                                     KIND_COMMAND, 5, "main_loop",
                                     "print hits")
        assert is_direction_frame(bytearray(raw))
        kind, seq, point, text = parse_direction_packet(bytearray(raw))
        assert (kind, seq, point, text) == \
            (KIND_COMMAND, 5, "main_loop", "print hits")

    def test_normal_frame_not_direction(self):
        from repro.core.protocols.icmp import build_icmp_echo_request
        raw = build_icmp_echo_request(1, 2, 3, 4)
        assert not is_direction_frame(bytearray(raw))


class TestDirectedService:
    IP = ip_to_int("10.0.0.1")

    def make(self):
        inner = IcmpEchoService(my_ip=self.IP)
        return DirectedService(inner)

    def send(self, service, raw):
        dp = service.process(Frame(raw, src_port=0).pad())
        if dp.dst_ports:
            return [bytearray(dp.tdata)]
        return []

    def test_normal_traffic_unchanged(self):
        from repro.core.protocols.icmp import ICMPWrapper, \
            build_icmp_echo_request
        service = self.make()
        raw = build_icmp_echo_request(
            2, 3, ip_to_int("10.0.0.2"), self.IP)
        replies = self.send(service, raw)
        assert replies and ICMPWrapper(replies[0]).is_echo_reply

    def test_direction_packet_goes_to_controller(self):
        service = self.make()
        director = Director(service.my_mac, self.MAC_DIR(),
                            lambda raw: self.send(service, raw))
        replies = director.direct("main_loop", "print requests_seen")
        assert replies
        assert "installed" in replies[0]
        assert service.frames_directed == 1

    def MAC_DIR(self):
        return mac_to_int("02:00:00:00:00:d1")

    def test_installed_print_reports_on_next_hit(self):
        from repro.core.protocols.icmp import build_icmp_echo_request
        service = self.make()
        director = Director(service.my_mac, self.MAC_DIR(),
                            lambda raw: self.send(service, raw))
        director.direct("main_loop", "print requests_seen")
        raw = build_icmp_echo_request(
            2, 3, ip_to_int("10.0.0.2"), self.IP)
        self.send(service, raw)             # crosses the point
        replies = director.direct("main_loop", "print replies_sent")
        joined = "\n".join(replies)
        assert "requests_seen=" in joined

    def test_breakpoint_drops_traffic_until_resume(self):
        from repro.core.protocols.icmp import build_icmp_echo_request
        service = self.make()
        director = Director(service.my_mac, self.MAC_DIR(),
                            lambda raw: self.send(service, raw))
        director.direct("main_loop", "break main_loop requests_seen == 0")
        raw = build_icmp_echo_request(
            2, 3, ip_to_int("10.0.0.2"), self.IP)
        assert self.send(service, raw) == []       # stopped
        director.direct("main_loop", "uninstall break")
        director.direct("main_loop", "resume")
        assert self.send(service, raw)             # flowing again
