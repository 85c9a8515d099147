"""Non-recursive DNS server (§4.3).

Resolves A-record queries from a fixed table.  The paper's prototype
limits names to 26 bytes and answers "cannot resolve" for unknown names;
both behaviours are reproduced (the length cap is configurable, as the
paper notes the constraint can be relaxed).
"""

from repro.core import netfpga as NetFPGA
from repro.core.protocols.dns import (
    DNSHeader, DNSQuestion, MAX_PAPER_NAME_BYTES, QClass, QType, RCode,
    build_dns_response, decode_name, encode_name,
)
from repro.core.protocols.udp import UDPRequest
from repro.errors import ParseError
from repro.kiwi.runtime import pause
from repro.services.base import EmuService

DNS_PORT = 53


class DnsServerService(EmuService):
    """Answers non-recursive A queries from a resolution table."""

    name = "dns"

    def __init__(self, my_ip, my_mac=0x02_00_00_00_00_03,
                 max_name_bytes=MAX_PAPER_NAME_BYTES, table=None):
        self.my_ip = my_ip
        self.my_mac = my_mac
        self.max_name_bytes = max_name_bytes
        self.table = {}
        if table:
            for name, address in table.items():
                self.add_record(name, address)
        self.queries_seen = 0
        self.answers_sent = 0
        self.nxdomain_sent = 0

    def add_record(self, name, address):
        """Register ``name -> address`` (address as 32-bit int)."""
        if len(name) > self.max_name_bytes:
            raise ParseError(
                "name %r exceeds the %d-byte limit"
                % (name, self.max_name_bytes))
        self.table[name.lower().rstrip(".")] = address

    def remove_record(self, name):
        self.table.pop(name.lower().rstrip("."), None)

    def on_frame(self, dataplane):
        request = UDPRequest.parse(dataplane.tdata)
        if request is None or \
                request.destination_ip_address != self.my_ip or \
                request.destination_port != DNS_PORT:
            return
        yield pause()

        payload = request.payload()
        try:
            header = DNSHeader.decode(payload)
            if not header.is_query or header.qdcount < 1:
                return
            question, _ = DNSQuestion.decode(payload, 12)
        except ParseError:
            return
        self.queries_seen += 1
        yield pause()

        # Resolution-table lookup (CAM/hash probe in hardware).
        rcode, address = self._resolve(question)
        yield pause()

        response = build_dns_response(header.txid, question,
                                      address=address, rcode=rcode)
        if rcode == RCode.NO_ERROR and address is not None:
            self.answers_sent += 1
        else:
            self.nxdomain_sent += 1
        yield pause()

        request.reply(response)
        NetFPGA.send_back(dataplane)

    def _resolve(self, question):
        name = question.name.lower()
        if len(encode_name(name)) - 1 > self.max_name_bytes + 1:
            return RCode.NAME_ERROR, None
        if question.qtype != QType.A or question.qclass != QClass.IN:
            return RCode.NOT_IMPLEMENTED, None
        address = self.table.get(name)
        if address is None:
            return RCode.NAME_ERROR, None
        return RCode.NO_ERROR, address

    def datapath_extra_cycles(self, frame):
        """The hardware walks the QNAME byte-serially (hash + compare),
        builds the answer record byte-serially, and runs UDP + IP
        checksum passes — all beyond the handler's coarse pauses."""
        payload_bytes = max(0, len(frame.data) - 42)
        return 40 + 3 * payload_bytes

    def reset(self):
        self.queries_seen = 0
        self.answers_sent = 0
        self.nxdomain_sent = 0


def dns_kernel(frame: "mem[512]x8", my_ip: "u32", tags: "mem[64]x32",
               addrs: "mem[64]x32", tvalid: "mem[64]x1") -> "u4":
    """Flat Emu-Python DNS responder for the Kiwi compiler (Table 5).

    Hardware design: hash the queried name into a 64-entry table of
    (tag, address); tag-compare confirms the hit.  The response is
    written over the query in the frame memory.  Returns the output
    bitmap (0 = drop).
    """
    ethertype = (frame[12] << 8) | frame[13]
    if ethertype != 0x0800:
        return 0
    if frame[23] != 17:
        return 0
    dport = (frame[36] << 8) | frame[37]
    if dport != 53:
        return 0
    pause()

    # Walk the QNAME labels (bytes from offset 54), hashing as we go.
    h = 0
    tag = 0
    i = 0
    bad = 0
    while i < 64:
        c = frame[54 + i]
        if c == 0:
            i = 64
        else:
            h = bits(h * 31 + c, 32)
            tag = bits(tag ^ (bits(c, 32) << bits(8 * (i & 3), 6)), 32)
            i = i + 1
            if i == 27:
                bad = 1
                i = 64
        pause()
    if bad == 1:
        return 0
    pause()

    # Table probe.
    idx = bits(h, 6)
    hit = 0
    addr = 0
    if tvalid[idx] == 1 and tags[idx] == tag:
        hit = 1
        addr = addrs[idx]
    pause()

    # Patch the header into a response: QR=1, rcode, ANCOUNT.
    frame[44] = 0x80 + (0 if hit == 1 else 3)
    frame[45] = 0
    frame[48] = 0
    frame[49] = hit
    pause()

    # Swap MACs and IPs, swap UDP ports.
    for k in range(6):
        t1 = frame[k]
        frame[k] = frame[6 + k]
        frame[6 + k] = t1
    for k in range(4):
        t2 = frame[26 + k]
        frame[26 + k] = frame[30 + k]
        frame[30 + k] = t2
    for k in range(2):
        t3 = frame[34 + k]
        frame[34 + k] = frame[36 + k]
        frame[36 + k] = t3
    pause()

    if hit == 1:
        # Append a compressed-name A record; offsets are frame-relative
        # (the record starts right after the question, found via i scan
        # in a fuller design; fixed layout assumed here).
        base = 54 + 32
        frame[base] = 0xC0
        frame[base + 1] = 0x0C
        frame[base + 2] = 0
        frame[base + 3] = 1
        frame[base + 4] = 0
        frame[base + 5] = 1
        frame[base + 6] = 0
        frame[base + 7] = 0
        frame[base + 8] = 1
        frame[base + 9] = 44
        frame[base + 10] = 0
        frame[base + 11] = 4
        frame[base + 12] = bits(addr >> 24, 8)
        frame[base + 13] = bits(addr >> 16, 8)
        frame[base + 14] = bits(addr >> 8, 8)
        frame[base + 15] = bits(addr, 8)
    return 1
