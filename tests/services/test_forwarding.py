"""Learning switch + L3-L4 filter + iptables front-end (§4.1)."""

import pytest

from repro.core.protocols.icmp import build_icmp_echo_request
from repro.core.protocols.tcp import TCPFlags, build_tcp
from repro.core.protocols.udp import build_udp
from repro.errors import ParseError
from repro.net.packet import Frame, ip_to_int, mac_to_int
from repro.services import FilteringSwitch, L3L4Filter, LearningSwitch
from repro.services.filter_l3l4 import ACCEPT, DROP, FilterRule
from repro.services.iptables_cli import IptablesCli

MAC_A = mac_to_int("02:00:00:00:00:aa")
MAC_B = mac_to_int("02:00:00:00:00:bb")
IP_A = ip_to_int("10.0.0.2")
IP_B = ip_to_int("10.0.0.3")


def frame_between(dst_mac, src_mac, src_port, dst_port_l4=80,
                  proto="tcp"):
    if proto == "tcp":
        raw = build_tcp(dst_mac, src_mac, IP_A, IP_B, 1234, dst_port_l4,
                        TCPFlags.SYN)
    else:
        raw = build_udp(dst_mac, src_mac, IP_A, IP_B, 1234, dst_port_l4,
                        b"x")
    return Frame(raw, src_port=src_port).pad()


class TestLearningSwitch:
    def test_unknown_destination_floods(self):
        sw = LearningSwitch()
        dp = sw.process(frame_between(MAC_B, MAC_A, src_port=2))
        assert dp.dst_ports == 0b1011      # all but port 2

    def test_learns_source_then_forwards(self):
        sw = LearningSwitch()
        sw.process(frame_between(MAC_B, MAC_A, src_port=2))
        dp = sw.process(frame_between(MAC_A, MAC_B, src_port=0))
        assert dp.dst_ports == 0b0100      # straight to port 2

    def test_station_move_keeps_first_binding(self):
        """Fig. 2 only learns *absent* MACs — a moved station keeps its
        first port until the entry ages out (the paper's simple
        switch has no relearning path)."""
        sw = LearningSwitch()
        sw.process(frame_between(MAC_B, MAC_A, src_port=2))
        sw.process(frame_between(MAC_B, MAC_A, src_port=3))  # A moved
        dp = sw.process(frame_between(MAC_A, MAC_B, src_port=0))
        assert dp.dst_ports == 0b0100

    def test_language_cam_variant_equivalent(self):
        for use_ip_cam in (True, False):
            sw = LearningSwitch(use_ip_cam=use_ip_cam)
            sw.process(frame_between(MAC_B, MAC_A, src_port=2))
            dp = sw.process(frame_between(MAC_A, MAC_B, src_port=0))
            assert dp.dst_ports == 0b0100

    def test_reset_forgets(self):
        sw = LearningSwitch()
        sw.process(frame_between(MAC_B, MAC_A, src_port=2))
        sw.reset()
        dp = sw.process(frame_between(MAC_A, MAC_B, src_port=0))
        assert dp.dst_ports == 0b1110

    def test_hardware_semantics_cycle_count(self):
        sw = LearningSwitch()
        _, cycles = sw.process_counting(
            frame_between(MAC_B, MAC_A, src_port=2))
        assert cycles == 4          # 3 pauses + completion


class TestFilterRules:
    def test_protocol_match(self):
        rule = FilterRule(protocol=6, verdict=DROP)
        assert rule.matches(6, 0, 0, 0, 0)
        assert not rule.matches(17, 0, 0, 0, 0)

    def test_prefix_match(self):
        rule = FilterRule(src_ip=ip_to_int("10.0.0.0"),
                          src_mask=0xFF000000, verdict=DROP)
        assert rule.matches(6, ip_to_int("10.9.9.9"), 0, 0, 0)
        assert not rule.matches(6, ip_to_int("11.0.0.1"), 0, 0, 0)

    def test_port_range(self):
        rule = FilterRule(dport_lo=1000, dport_hi=2000, verdict=DROP)
        assert rule.matches(6, 0, 0, 0, 1500)
        assert not rule.matches(6, 0, 0, 0, 2500)

    def test_chain_first_match_wins(self):
        chain = L3L4Filter(default_policy=ACCEPT)
        chain.append(FilterRule(protocol=6, verdict=ACCEPT))
        chain.append(FilterRule(protocol=6, verdict=DROP))
        assert chain.verdict(6, 0, 0, 0, 0) == ACCEPT

    def test_default_policy(self):
        chain = L3L4Filter(default_policy=DROP)
        assert chain.verdict(17, 0, 0, 0, 0) == DROP

    def test_bad_verdict_rejected(self):
        with pytest.raises(ParseError):
            FilterRule(verdict="REJECT")


class TestFilteringSwitch:
    def test_drop_rule_blocks_forwarding(self):
        chain = L3L4Filter(default_policy=ACCEPT)
        chain.append(FilterRule(protocol=6, dport_lo=80, dport_hi=80,
                                verdict=DROP))
        fsw = FilteringSwitch(filter_chain=chain)
        dp = fsw.process(frame_between(MAC_B, MAC_A, src_port=1,
                                       dst_port_l4=80))
        assert dp.dst_ports == 0
        assert fsw.filtered == 1

    def test_accepted_traffic_switches(self):
        fsw = FilteringSwitch()
        dp = fsw.process(frame_between(MAC_B, MAC_A, src_port=1,
                                       dst_port_l4=22))
        assert dp.dst_ports == 0b1101
        assert fsw.accepted == 1


class TestIptablesCli:
    def make(self, policy=ACCEPT):
        chain = L3L4Filter(default_policy=policy)
        return chain, IptablesCli(chain)

    def test_append_drop_rule(self):
        chain, cli = self.make()
        cli.run("-A FORWARD -p tcp --dport 80 -j DROP")
        assert chain.verdict(6, 0, 0, 0, 80) == DROP
        assert chain.verdict(6, 0, 0, 0, 81) == ACCEPT

    def test_source_cidr(self):
        chain, cli = self.make()
        cli.run("-A FORWARD -s 10.0.0.0/8 -j DROP")
        assert chain.verdict(17, ip_to_int("10.1.2.3"), 0, 0, 0) == DROP
        assert chain.verdict(17, ip_to_int("11.1.2.3"), 0, 0, 0) == ACCEPT

    def test_port_range_syntax(self):
        chain, cli = self.make()
        cli.run("-A FORWARD -p udp --sport 1000:2000 -j DROP")
        assert chain.verdict(17, 0, 0, 1500, 0) == DROP

    def test_delete_by_number(self):
        chain, cli = self.make()
        cli.run("-A FORWARD -p tcp -j DROP")
        cli.run("-D FORWARD 1")
        assert chain.verdict(6, 0, 0, 0, 0) == ACCEPT

    def test_flush_and_policy(self):
        chain, cli = self.make()
        cli.run("-A FORWARD -p tcp -j DROP")
        cli.run("-F")
        cli.run("-P FORWARD DROP")
        assert not chain.rules
        assert chain.default_policy == DROP

    def test_list_output(self):
        _, cli = self.make()
        cli.run("-A FORWARD -p icmp -j DROP")
        listing = cli.run("-L")
        assert "Chain FORWARD" in listing
        assert "icmp" in listing

    def test_bad_commands_rejected(self):
        _, cli = self.make()
        for bad in ["-A FORWARD -p tcp", "-A INPUT -j DROP",
                    "-A FORWARD --dport nope -j DROP",
                    "-X FORWARD", "-D FORWARD x",
                    "-A FORWARD -s 10.0.0.0/40 -j DROP"]:
            with pytest.raises(ParseError):
                cli.run(bad)
