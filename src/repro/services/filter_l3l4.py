"""L3–L4 filter (§4.1): iptables-style rules slotted into the switch.

The paper ships "a tool that emulates the command-line parameter
interface of IP tables" which "generates code that slots into our
learning switch", turning it into an L3 filter (addresses, protocols)
or L4 filter (TCP/UDP port ranges).  Here:

* :class:`FilterRule` / :class:`L3L4Filter` — the rule engine over a
  TCAM IP block;
* :class:`FilteringSwitch` — the learning switch with the filter
  slotted in front;
* :mod:`repro.services.iptables_cli` — the command-line front-end.
"""

from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper
from repro.core.protocols.tcp import TCPWrapper
from repro.core.protocols.udp import UDPWrapper
from repro.errors import ParseError
from repro.ip.tcam import TernaryCAM
from repro.kiwi.runtime import pause
from repro.services.base import EmuService
from repro.services.switch import LearningSwitch

ACCEPT = "ACCEPT"
DROP = "DROP"


class FilterRule:
    """One match-and-verdict rule (a parsed iptables rule)."""

    __slots__ = ("protocol", "src_ip", "src_mask", "dst_ip", "dst_mask",
                 "sport_lo", "sport_hi", "dport_lo", "dport_hi", "verdict")

    def __init__(self, protocol=None, src_ip=0, src_mask=0, dst_ip=0,
                 dst_mask=0, sport_lo=0, sport_hi=0xFFFF, dport_lo=0,
                 dport_hi=0xFFFF, verdict=DROP):
        if verdict not in (ACCEPT, DROP):
            raise ParseError("verdict must be ACCEPT or DROP")
        self.protocol = protocol
        self.src_ip = src_ip & 0xFFFFFFFF
        self.src_mask = src_mask & 0xFFFFFFFF
        self.dst_ip = dst_ip & 0xFFFFFFFF
        self.dst_mask = dst_mask & 0xFFFFFFFF
        self.sport_lo = sport_lo
        self.sport_hi = sport_hi
        self.dport_lo = dport_lo
        self.dport_hi = dport_hi
        self.verdict = verdict

    def matches(self, protocol, src_ip, dst_ip, sport, dport):
        if self.protocol is not None and protocol != self.protocol:
            return False
        if (src_ip & self.src_mask) != (self.src_ip & self.src_mask):
            return False
        if (dst_ip & self.dst_mask) != (self.dst_ip & self.dst_mask):
            return False
        if not self.sport_lo <= sport <= self.sport_hi:
            return False
        if not self.dport_lo <= dport <= self.dport_hi:
            return False
        return True

    def __repr__(self):
        proto = {None: "all", IPProtocols.ICMP: "icmp",
                 IPProtocols.TCP: "tcp",
                 IPProtocols.UDP: "udp"}.get(self.protocol, "?")
        return "FilterRule(%s -> %s)" % (proto, self.verdict)


class L3L4Filter:
    """An ordered rule chain with a default policy.

    Exact-prefix rules are additionally programmed into a TCAM netlist
    so the design's resource cost is accounted like hardware would be.
    """

    def __init__(self, default_policy=ACCEPT, depth=64):
        if default_policy not in (ACCEPT, DROP):
            raise ParseError("default policy must be ACCEPT or DROP")
        self.rules = []
        self.default_policy = default_policy
        self.tcam = TernaryCAM(key_width=72, value_width=1, depth=depth)
        self.matched_rule = None

    def append(self, rule):
        self.rules.append(rule)
        self._program_tcam()
        return len(self.rules) - 1

    def delete(self, index):
        if not 0 <= index < len(self.rules):
            raise ParseError("no rule %d" % index)
        del self.rules[index]
        self._program_tcam()

    def flush(self):
        self.rules = []
        self._program_tcam()

    def _program_tcam(self):
        """Mirror prefix-matchable parts of the chain into the TCAM."""
        for slot in range(self.tcam.depth):
            self.tcam.invalidate(slot)
        for slot, rule in enumerate(self.rules[:self.tcam.depth]):
            key = ((rule.protocol or 0) << 64) | (rule.src_ip << 32) | \
                rule.dst_ip
            mask = ((0xFF if rule.protocol is not None else 0) << 64) | \
                (rule.src_mask << 32) | rule.dst_mask
            self.tcam.write(slot, key, mask,
                            1 if rule.verdict == ACCEPT else 0)

    def verdict(self, protocol, src_ip, dst_ip, sport=0, dport=0):
        """First-match verdict, iptables chain semantics."""
        for rule in self.rules:
            if rule.matches(protocol, src_ip, dst_ip, sport, dport):
                self.matched_rule = rule
                return rule.verdict
        self.matched_rule = None
        return self.default_policy

    def verdict_for_frame(self, tdata):
        """Classify an Ethernet frame; non-IPv4 follows the default."""
        if not tdata.is_ipv4():
            return self.default_policy
        ip = IPv4Wrapper(tdata)
        sport = dport = 0
        if ip.protocol == IPProtocols.TCP:
            l4 = TCPWrapper(tdata)
            sport, dport = l4.source_port, l4.destination_port
        elif ip.protocol == IPProtocols.UDP:
            l4 = UDPWrapper(tdata)
            sport, dport = l4.source_port, l4.destination_port
        return self.verdict(ip.protocol, ip.source_ip_address,
                            ip.destination_ip_address, sport, dport)


class FilteringSwitch(EmuService):
    """The learning switch with the L3–L4 filter slotted in front."""

    name = "filtering_switch"

    def __init__(self, filter_chain=None, **switch_kwargs):
        self.filter = filter_chain if filter_chain is not None \
            else L3L4Filter()
        self.switch = LearningSwitch(**switch_kwargs)
        self.accepted = 0
        self.filtered = 0

    def on_frame(self, dataplane):
        verdict = self.filter.verdict_for_frame(dataplane.tdata)
        yield pause()
        if verdict == DROP:
            self.filtered += 1
            dataplane.dst_ports = 0
            return
        self.accepted += 1
        yield from self.switch.on_frame(dataplane)

    def reset(self):
        self.switch.reset()
        self.accepted = 0
        self.filtered = 0

    def kernel_cycle_model(self, opt_level, level_budget=None):
        """Core-cycle model from the compiled filter-stage kernel,
        programmed with this switch's rule chain (first 8 rules)."""
        from repro.targets.kernel_model import KernelCycleModel
        model = KernelCycleModel(filter_kernel, opt_level,
                                 level_budget=level_budget)
        for slot, rule in enumerate(self.filter.rules[:8]):
            model.poke_memory("rule_valid", slot, 1)
            model.poke_memory("rule_proto", slot, rule.protocol or 0)
            model.poke_memory("rule_src", slot, rule.src_ip)
            model.poke_memory("rule_smask", slot, rule.src_mask)
            model.poke_memory("rule_dlo", slot, rule.dport_lo)
            model.poke_memory("rule_dhi", slot, rule.dport_hi)
            model.poke_memory(
                "rule_accept", slot, 1 if rule.verdict == ACCEPT else 0)
        return model


def filter_kernel(frame: "mem[64]x8", rule_proto: "mem[8]x8",
                  rule_src: "mem[8]x32", rule_smask: "mem[8]x32",
                  rule_dlo: "mem[8]x16", rule_dhi: "mem[8]x16",
                  rule_accept: "mem[8]x1",
                  rule_valid: "mem[8]x1") -> "u1":
    """Flat Emu-Python L3/L4 filter stage for the Kiwi compiler.

    An 8-entry rule chain evaluated in order (first match wins,
    iptables semantics, default accept): protocol, masked source
    address, and destination-port range.  The rule memories are the
    hardware image of :class:`FilterRule`; the unrolled match chain is
    what the optimizer's CSE and fusion passes chew on.  Returns the
    accept bit.
    """
    ethertype = (frame[12] << 8) | frame[13]
    if ethertype != 0x0800:
        return 1                    # non-IP traffic is switched freely
    proto = frame[23]
    src_ip = 0
    for i in range(4):
        src_ip = bits((src_ip << 8) | frame[26 + i], 32)
    pause()

    dport = (frame[36] << 8) | frame[37]
    ports_known = 0
    if proto == 6:
        ports_known = 1
    if proto == 17:
        ports_known = 1
    if ports_known == 0:
        dport = 0
    pause()

    verdict = 1
    decided = 0
    for r in range(8):
        m = 0
        if rule_valid[r] == 1:
            m = 1
            if rule_proto[r] != 0:
                if bits(rule_proto[r], 8) != bits(proto, 8):
                    m = 0
            if bits(src_ip & rule_smask[r], 32) != rule_src[r]:
                m = 0
            if bits(dport, 16) < rule_dlo[r]:
                m = 0
            if bits(dport, 16) > rule_dhi[r]:
                m = 0
        if decided == 0:
            if m == 1:
                verdict = rule_accept[r]
                decided = 1
    pause()
    return verdict
