"""NAT gateway (§4.4) — UDP and TCP, "written entirely in C#".

Port-restricted NAPT between a local network (port ``LAN_PORT``) and an
external network (port ``WAN_PORT``):

* outbound packets get their source rewritten to the gateway's public
  address and an allocated public port; the mapping is remembered;
* inbound packets to a mapped public port are rewritten back to the
  private endpoint; unmapped inbound traffic is dropped.

ICMP echo packets are translated by (identifier) the same way, so
``ping`` through the gateway works.
"""

from repro.core import netfpga as NetFPGA
from repro.core.protocols.ethernet import EthernetWrapper
from repro.core.protocols.icmp import ICMPWrapper
from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper
from repro.core.protocols.tcp import TCPWrapper
from repro.core.protocols.udp import UDPWrapper
from repro.kiwi.runtime import pause
from repro.services.base import EmuService

LAN_PORT = 0
WAN_PORT = 1
FIRST_PUBLIC_PORT = 10000


class NatEntry:
    """One translation: (private ip, private port) <-> public port."""

    __slots__ = ("private_ip", "private_port", "public_port", "protocol")

    def __init__(self, private_ip, private_port, public_port, protocol):
        self.private_ip = private_ip
        self.private_port = private_port
        self.public_port = public_port
        self.protocol = protocol


class NatService(EmuService):
    """NAPT gateway between a LAN-side and a WAN-side port."""

    name = "nat"

    def __init__(self, public_ip, gateway_mac=0x02_00_00_00_00_05,
                 wan_next_hop_mac=0x02_00_00_00_01_00,
                 lan_port=LAN_PORT, wan_port=WAN_PORT,
                 max_entries=4096):
        self.public_ip = public_ip
        self.gateway_mac = gateway_mac
        self.wan_next_hop_mac = wan_next_hop_mac
        self.lan_port = lan_port
        self.wan_port = wan_port
        self.max_entries = max_entries
        self._next_port = FIRST_PUBLIC_PORT
        self._outbound = {}      # (proto, priv_ip, priv_port) -> entry
        self._inbound = {}       # (proto, public_port) -> entry
        self._lan_macs = {}      # private ip -> mac (learned)
        self.translated_out = 0
        self.translated_in = 0
        self.dropped = 0

    # -- mapping -------------------------------------------------------------

    def _allocate(self, protocol, private_ip, private_port):
        key = (protocol, private_ip, private_port)
        entry = self._outbound.get(key)
        if entry is None:
            if len(self._outbound) >= self.max_entries:
                return None                     # table exhausted
            public_port = self._next_port
            self._next_port += 1
            if self._next_port > 0xFFFF:
                self._next_port = FIRST_PUBLIC_PORT
            entry = NatEntry(private_ip, private_port, public_port,
                             protocol)
            self._outbound[key] = entry
            self._inbound[(protocol, public_port)] = entry
        return entry

    # -- dataplane -----------------------------------------------------------

    def on_frame(self, dataplane):
        if not dataplane.tdata.is_ipv4():
            self.dropped += 1
            return
        ip = IPv4Wrapper(dataplane.tdata)
        outbound = dataplane.src_port == self.lan_port
        yield pause()

        if ip.protocol == IPProtocols.UDP:
            l4 = UDPWrapper(dataplane.tdata)
        elif ip.protocol == IPProtocols.TCP:
            l4 = TCPWrapper(dataplane.tdata)
        elif ip.protocol == IPProtocols.ICMP:
            yield from self._translate_icmp(dataplane, ip, outbound)
            return
        else:
            self.dropped += 1
            return
        yield pause()

        if outbound:
            self._lan_macs[ip.source_ip_address] = \
                EthernetWrapper(dataplane.tdata).source_mac
            entry = self._allocate(ip.protocol, ip.source_ip_address,
                                   l4.source_port)
            if entry is None:
                self.dropped += 1
                return
            yield pause()
            ip.source_ip_address = self.public_ip
            l4.source_port = entry.public_port
            self._finish(dataplane, ip, l4, self.wan_port,
                         self.wan_next_hop_mac)
            self.translated_out += 1
        else:
            entry = self._inbound.get((ip.protocol, l4.destination_port))
            if entry is None or ip.destination_ip_address != self.public_ip:
                self.dropped += 1
                return
            yield pause()
            ip.destination_ip_address = entry.private_ip
            l4.destination_port = entry.private_port
            dst_mac = self._lan_macs.get(entry.private_ip, 0xFFFFFFFFFFFF)
            self._finish(dataplane, ip, l4, self.lan_port, dst_mac)
            self.translated_in += 1

    def _translate_icmp(self, dataplane, ip, outbound):
        icmp = ICMPWrapper(dataplane.tdata)
        yield pause()
        if outbound:
            entry = self._allocate(IPProtocols.ICMP, ip.source_ip_address,
                                   icmp.identifier)
            if entry is None:
                self.dropped += 1
                return
            self._lan_macs[ip.source_ip_address] = \
                EthernetWrapper(dataplane.tdata).source_mac
            ip.source_ip_address = self.public_ip
            icmp.identifier = entry.public_port
            self._finish(dataplane, ip, icmp, self.wan_port,
                         self.wan_next_hop_mac)
            self.translated_out += 1
        else:
            entry = self._inbound.get((IPProtocols.ICMP, icmp.identifier))
            if entry is None or ip.destination_ip_address != self.public_ip:
                self.dropped += 1
                return
            ip.destination_ip_address = entry.private_ip
            icmp.identifier = entry.private_port
            dst_mac = self._lan_macs.get(entry.private_ip, 0xFFFFFFFFFFFF)
            self._finish(dataplane, ip, icmp, self.lan_port, dst_mac)
            self.translated_in += 1

    def _finish(self, dataplane, ip, l4, out_port, dst_mac):
        eth = EthernetWrapper(dataplane.tdata)
        eth.source_mac = self.gateway_mac
        eth.destination_mac = dst_mac
        ip.ttl = max(1, ip.ttl - 1)
        ip.update_checksum()
        if isinstance(l4, (UDPWrapper, TCPWrapper)):
            l4.update_checksum(ip)
        else:
            l4.update_checksum()
        NetFPGA.set_output_port(dataplane, out_port)

    def datapath_extra_cycles(self, frame):
        """Header rewrite plus incremental L3 checksum and a full L4
        checksum pass over the translated segment (2 B/cycle)."""
        l4_bytes = max(0, len(frame.data) - 34)
        return 16 + l4_bytes // 2

    def reset(self):
        self._outbound.clear()
        self._inbound.clear()
        self._lan_macs.clear()
        self._next_port = FIRST_PUBLIC_PORT
        self.translated_out = self.translated_in = self.dropped = 0

    def kernel_cycle_model(self, opt_level, level_budget=None):
        """Core-cycle model from the compiled outbound-path kernel
        (used by the FPGA target when an ``opt_level`` is requested)."""
        from repro.targets.kernel_model import KernelCycleModel
        return KernelCycleModel(
            nat_kernel, opt_level,
            scalars={"public_ip": self.public_ip, "src_port": 0},
            level_budget=level_budget)


def nat_kernel(frame: "mem[64]x8", public_ip: "u32", src_port: "u8",
               map_ip: "mem[64]x32", map_port: "mem[64]x16",
               map_valid: "mem[64]x1") -> ("u4", "u16"):
    """Flat Emu-Python outbound NAPT datapath for the Kiwi compiler.

    The hot path of the gateway: a LAN-side UDP frame has its source
    endpoint remembered in a 64-entry direct-mapped table and is
    rewritten to leave from ``(public_ip, 10000 + slot)``.  Inbound and
    ICMP translation stay behavioural; this kernel is what the
    optimizer benchmarks measure.  Returns ``(output-port bitmap,
    public port)`` — bitmap 0 drops, bit 1 is the WAN port.
    """
    ethertype = (frame[12] << 8) | frame[13]
    if ethertype != 0x0800:
        return 0, 0
    if frame[23] != 17:
        return 0, 0
    if src_port != 0:
        return 0, 0                 # inbound handled elsewhere
    pause()

    src_ip = 0
    for i in range(4):
        src_ip = bits((src_ip << 8) | frame[26 + i], 32)
    sport = (frame[34] << 8) | frame[35]
    slot = bits(src_ip ^ (src_ip >> 8) ^ sport, 6)
    pause()

    # Port-restricted mapping: install on miss, reuse on hit.
    hit = 0
    if map_valid[slot] == 1 and map_ip[slot] == src_ip and \
            map_port[slot] == bits(sport, 16):
        hit = 1
    if hit == 0:
        map_ip[slot] = src_ip
        map_port[slot] = bits(sport, 16)
        map_valid[slot] = 1
    public_port = bits(slot, 16) + 10000
    pause()

    # Rewrite the source IP (checksum passes are charged as datapath
    # extras, as in the behavioural service).
    frame[26] = bits(public_ip >> 24, 8)
    frame[27] = bits(public_ip >> 16, 8)
    frame[28] = bits(public_ip >> 8, 8)
    frame[29] = bits(public_ip, 8)
    pause()

    frame[34] = bits(public_port >> 8, 8)
    frame[35] = bits(public_port, 8)
    return 2, public_port
