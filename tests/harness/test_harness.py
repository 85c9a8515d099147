"""Harness plumbing: renderers and fast experiment pieces.

The full experiments run in benchmarks/; these tests check the harness
machinery itself quickly.
"""

import pytest

from repro.harness.report import render_table
from repro.harness.tables import (
    direction_commands, render_table1, render_table2,
    solution_comparison,
)


class TestRenderer:
    def test_alignment(self):
        text = render_table(["a", "bb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) <= len(max(lines, key=len))
                   for line in lines)

    def test_title(self):
        text = render_table(["h"], [["v"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = render_table(["x"], [[1234.5678], [0.1234]])
        assert "1234.6" in text
        assert "0.123" in text

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])


class TestQualitativeTables:
    def test_table1_six_solutions(self):
        assert len(solution_comparison()) == 6
        text = render_table1()
        for name in ("Emu", "Kiwi", "Vivado HLS", "SDNet", "P4",
                     "ClickNP"):
            assert name in text

    def test_table2_all_verbs(self):
        table = direction_commands()
        assert len(table) == 8
        text = render_table2()
        assert "trace" in text and "backtrace" in text


class TestTimingModelConsistency:
    def test_latency_equals_fixed_plus_service_time(self):
        """The Table 4 internal consistency the paper's numbers show:
        DUT latency ~ wire constant + 1/throughput."""
        from repro.net.packet import ip_to_int
        from repro.net.workloads import ping_flood
        from repro.services import IcmpEchoService
        from repro.targets import FpgaTarget
        target = FpgaTarget(
            IcmpEchoService(my_ip=ip_to_int("10.0.0.1")))
        frame = next(iter(ping_flood(ip_to_int("10.0.0.1"),
                                     ip_to_int("10.0.0.2"), count=1)))
        qps = target.max_qps(frame.copy())
        _, latency_ns, _, service_ns = target.send(frame.copy())
        assert service_ns == pytest.approx(1e9 / qps)
        fixed_ns = latency_ns - 1e9 / qps
        assert 500 < fixed_ns < 900       # PHY/MAC + serialization

    def test_emu_dns_slower_than_icmp(self):
        """Heavier services cost more datapath time (Table 4 ordering)."""
        from repro.harness.table4 import (
            CLIENT_IP, DNS_NAMES, SERVICE_IP,
        )
        from repro.net.packet import ip_to_int
        from repro.net.workloads import dns_query_stream, ping_flood
        from repro.services import DnsServerService, IcmpEchoService
        from repro.targets import FpgaTarget

        icmp_target = FpgaTarget(IcmpEchoService(my_ip=SERVICE_IP))
        icmp_frame = next(iter(ping_flood(SERVICE_IP, CLIENT_IP,
                                          count=1)))
        dns = DnsServerService(
            my_ip=SERVICE_IP,
            table={DNS_NAMES[0]: ip_to_int("192.0.2.1")})
        dns_target = FpgaTarget(dns)
        dns_frame = next(iter(dns_query_stream(SERVICE_IP, CLIENT_IP,
                                               DNS_NAMES[:1], count=1)))
        assert dns_target.max_qps(dns_frame) < \
            icmp_target.max_qps(icmp_frame)
