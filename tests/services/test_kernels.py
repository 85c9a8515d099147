"""Compiled kernels: Kiwi output matches the behavioural services."""

import pytest

from repro.core.protocols.icmp import ICMPWrapper, build_icmp_echo_request
from repro.core.protocols.ipv4 import IPv4Wrapper
from repro.kiwi import compile_function
from repro.net.packet import Frame, ip_to_int, mac_to_int
from repro.services.icmp_echo import IcmpEchoService, icmp_echo_kernel
from repro.services.switch import build_emu_switch_core, switch_kernel

MAC_SVC = mac_to_int("02:00:00:00:00:01")
MAC_CLI = mac_to_int("02:00:00:00:00:aa")
IP_SVC = ip_to_int("10.0.0.1")
IP_CLI = ip_to_int("10.0.0.2")


@pytest.fixture(scope="module")
def switch_design():
    return compile_function(switch_kernel)


@pytest.fixture(scope="module")
def icmp_design():
    return compile_function(icmp_echo_kernel)


class TestSwitchKernel:
    def test_miss_broadcasts(self, switch_design):
        (ports, learn, _), latency, _ = switch_design.run(
            src_port=2, dst_hit=0, dst_port=0, src_hit=0)
        assert ports == 0b1011
        assert learn == 1

    def test_hit_forwards_one_hot(self, switch_design):
        (ports, learn, _), _, _ = switch_design.run(
            src_port=2, dst_hit=1, dst_port=3, src_hit=1)
        assert ports == 0b1000
        assert learn == 0

    def test_learn_key_is_source_mac(self, switch_design):
        frame = [0] * 64
        frame[6:12] = [0x02, 0, 0, 0, 0, 0xAA]
        (_, _, key), _, _ = switch_design.run(
            memories={"frame": frame}, src_port=0, dst_hit=0,
            dst_port=0, src_hit=0)
        assert key == MAC_CLI

    def test_latency_budget(self, switch_design):
        """Table 3: Emu switch = 8 cycles incl. 2 CAM + 1 output reg."""
        _, latency, _ = switch_design.run(
            src_port=0, dst_hit=1, dst_port=1, src_hit=1)
        assert latency + 2 + 1 == 8

    def test_full_core_with_cam_learns(self, simulators):
        design, top = build_emu_switch_core()
        sim = simulators(top)

        def run_packet(dst_mac, src_mac, src_port):
            # CAM searches dst first; the kernel latches its results.
            sim.poke("search_key", dst_mac)
            sim.poke("src_port", src_port)
            sim.poke("start", 1)
            sim.step()
            sim.poke("start", 0)
            # After the decision, the CAM write (learn) needs src on the
            # search bus for dedup; the core drives write via learn_en.
            cycles = 0
            while sim.peek("busy") and cycles < 50:
                sim.step()
                cycles += 1
            return sim.peek("dst_ports")

        ports = run_packet(0xBBBBBBBBBBBB, 0xAAAAAAAAAAAA, 2)
        assert ports == 0b1011          # miss -> broadcast


class TestIcmpKernel:
    def run_kernel(self, icmp_design, raw, my_ip=IP_SVC):
        frame = list(raw) + [0] * (128 - len(raw))
        (out,), latency, sim = icmp_design.run(
            memories={"frame": frame}, my_ip=my_ip)
        reply = bytearray(sim.peek_memory("frame", i)
                          for i in range(len(raw)))
        return out, latency, reply

    def test_produces_valid_reply(self, icmp_design):
        raw = build_icmp_echo_request(MAC_SVC, MAC_CLI, IP_CLI, IP_SVC)
        out, latency, reply = self.run_kernel(icmp_design, raw)
        assert out == 1
        icmp = ICMPWrapper(reply)
        assert icmp.is_echo_reply
        assert icmp.checksum_ok()
        ip = IPv4Wrapper(reply)
        assert ip.source_ip_address == IP_SVC
        assert ip.destination_ip_address == IP_CLI

    def test_matches_behavioural_service(self, icmp_design):
        """Same frame through the compiled kernel and the service."""
        raw = build_icmp_echo_request(MAC_SVC, MAC_CLI, IP_CLI, IP_SVC,
                                      identifier=9, sequence=77)
        out, _, kernel_reply = self.run_kernel(icmp_design, raw)
        service = IcmpEchoService(my_ip=IP_SVC, my_mac=MAC_SVC)
        dp = service.process(Frame(raw, src_port=0))
        assert out == 1
        # The service also refreshes TTL; compare the ICMP message and
        # addressing, which both paths must agree on.
        assert ICMPWrapper(kernel_reply).message() == \
            ICMPWrapper(dp.tdata).message()
        assert IPv4Wrapper(kernel_reply).source_ip_address == \
            IPv4Wrapper(dp.tdata).source_ip_address

    def test_wrong_ip_dropped(self, icmp_design):
        raw = build_icmp_echo_request(MAC_SVC, MAC_CLI, IP_CLI,
                                      ip_to_int("10.0.0.9"))
        out, _, _ = self.run_kernel(icmp_design, raw)
        assert out == 0

    def test_non_ipv4_dropped(self, icmp_design):
        raw = bytearray(build_icmp_echo_request(MAC_SVC, MAC_CLI,
                                                IP_CLI, IP_SVC))
        raw[12] = 0x86                     # not IPv4
        out, latency, _ = self.run_kernel(icmp_design, bytes(raw))
        assert out == 0
        assert latency <= 3                # early-out costs almost nothing


class TestServiceKernelsCompile:
    def test_dns_kernel_compiles_and_runs(self):
        from repro.services.dns_server import dns_kernel
        design = compile_function(dns_kernel)
        assert design.state_count > 4
        assert design.resources().logic > 0

    def test_memcached_kernel_compiles_and_runs(self):
        from repro.services.memcached import memcached_kernel
        design = compile_function(memcached_kernel)
        (out,), _, _ = design.run(memories={"frame": [0] * 512},
                                  my_ip=IP_SVC)
        assert out == 0                    # not a memcached packet

    def test_verilog_emitted_for_all_kernels(self):
        from repro.services.dns_server import dns_kernel
        from repro.services.memcached import memcached_kernel
        for kernel in (switch_kernel, icmp_echo_kernel, dns_kernel,
                       memcached_kernel):
            text = compile_function(kernel).verilog()
            assert text.startswith("module ")
