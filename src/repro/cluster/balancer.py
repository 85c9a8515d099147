"""The shard balancer: an L4 load balancer that is itself an Emu program.

The cluster's front door is not a magic dispatcher — it is an
:class:`~repro.services.base.EmuService` like every other service in
this repo, so it runs on the CPU target, in :mod:`repro.netsim`, or as
the main logical core of an FPGA, and its cycle cost is measurable the
same way (§3.3's single-codebase claim extended to the balancing tier).

Requests arrive on the uplink port; the balancer extracts a flow key —
the memcached key when the frame is memcached-over-UDP (so GET and SET
of the same key always reach the same shard despite memaslap's random
ephemeral source ports), the 5-tuple otherwise — walks it through the
Pearson construction (:mod:`repro.ip.pearson`, Fig. 5's hash core), and
emits the frame on the ring owner's port.  Frames arriving on shard
ports are replies and are forwarded back up the uplink.

Balancers compose hierarchically: a spine balancer hashing over leaf
ids and per-leaf balancers hashing over local shard ids give the
leaf-spine dataplane of :mod:`repro.cluster.topology`.
"""

import struct

from repro.core import netfpga as NetFPGA
from repro.core.protocols.ethernet import EtherTypes
from repro.core.protocols.ipv4 import IPProtocols, IPv4Wrapper
from repro.core.protocols.memcached import (
    BinaryMagic, MemcachedBinaryWrapper, parse_ascii_command,
    split_udp_frame,
)
from repro.core.protocols.udp import UDPRequest
from repro.cluster.health import DEFAULT_PHI_THRESHOLD, PhiAccrualDetector
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.errors import ClusterError, ParseError
from repro.kiwi.runtime import pause
from repro.services.base import EmuService
from repro.utils.bitutil import BitUtil

MEMCACHED_PORT = 11211

#: Fixed header-parse cycles before the hash walk begins (ethernet +
#: IPv4 + UDP field extraction in the request pipeline).
PARSE_CYCLES = 12
#: Consistent-hash ring lookup once the digest is ready (BRAM walk).
LOOKUP_CYCLES = 4


_FIVE_TUPLE = struct.Struct("!IIBHH")


def _udp_request(buf):
    """*buf* decoded once as a UDP request; ``None`` for anything else,
    a truncated one included."""
    try:
        return UDPRequest.parse(buf)
    except ParseError:
        return None


def _memcached_key(request):
    if request.destination_port != MEMCACHED_PORT:
        return None
    try:
        _, body = split_udp_frame(request.payload())
        if body[:1] and body[0] == BinaryMagic.REQUEST:
            return MemcachedBinaryWrapper(body).key()
        return parse_ascii_command(body).key
    except ParseError:
        return None


def memcached_key(buf):
    """The memcached key carried by *buf*, or ``None`` if not memcached."""
    request = _udp_request(buf)
    return None if request is None else _memcached_key(request)


def five_tuple_key(buf):
    """``src_ip·dst_ip·proto·sport·dport`` as bytes (L4 flow identity)."""
    try:
        if len(buf) < 14 or BitUtil.get16(buf, 12) != EtherTypes.IPV4:
            return bytes(buf[:14]) or None
        ip = IPv4Wrapper(buf)
        proto = ip.protocol
        ports = b"\x00\x00\x00\x00"
        if proto in (IPProtocols.TCP, IPProtocols.UDP):
            offset = ip.payload_offset()
            if len(buf) >= offset + 4:
                ports = bytes(buf[offset:offset + 4])
        return (int(ip.source_ip_address).to_bytes(4, "big") +
                int(ip.destination_ip_address).to_bytes(4, "big") +
                bytes([proto]) + ports)
    except ParseError:
        return bytes(buf[:14]) or None


def flow_key(buf):
    """Default key extractor: memcached key, else the 5-tuple — for a
    UDP request both from one parse."""
    request = _udp_request(buf)
    if request is None:
        return five_tuple_key(buf)
    key = _memcached_key(request)
    if key is None:
        key = _FIVE_TUPLE.pack(
            request.source_ip_address, request.destination_ip_address,
            IPProtocols.UDP, request.source_port, request.destination_port)
    return key


class ShardBalancerService(EmuService):
    """Hash the flow key, emit on the owning shard's port."""

    name = "shard-balancer"

    def __init__(self, shard_ports, uplink_port=0, ring=None,
                 vnodes=DEFAULT_VNODES, key_fn=flow_key,
                 phi_threshold=DEFAULT_PHI_THRESHOLD):
        """*shard_ports* maps shard id → output port (a list of ports
        auto-names shards ``shard0..N-1``)."""
        if not isinstance(shard_ports, dict):
            shard_ports = {"shard%d" % index: port
                           for index, port in enumerate(shard_ports)}
        if not shard_ports:
            raise ClusterError("balancer needs at least one shard port")
        if uplink_port in shard_ports.values():
            raise ClusterError("uplink port %d collides with a shard port"
                               % uplink_port)
        self.shard_ports = dict(shard_ports)
        self.uplink_port = uplink_port
        self.ring = ring if ring is not None else \
            HashRing(sorted(shard_ports), vnodes=vnodes)
        self.key_fn = key_fn
        self.dispatched = {shard: 0 for shard in self.shard_ports}
        self.replies_forwarded = 0
        self.unroutable = 0
        # -- health: every shard reply doubles as a heartbeat ------------
        self._shard_by_port = {port: shard
                               for shard, port in self.shard_ports.items()}
        self.health = {shard: PhiAccrualDetector(threshold=phi_threshold)
                       for shard in self.shard_ports}
        self.down = set()               # shards evicted from the ring
        #: Control-plane clock (callable → now_ns); set by the netsim
        #: wiring so heartbeats can be timestamped.  Without a clock the
        #: balancer routes but never suspects anyone.
        self.clock = None
        self.evictions = 0
        self.restores = 0
        #: Optional ``callable(label, args=None)`` — the observability
        #: layer's instant-event hook (``TraceRecorder.hook()``);
        #: detector state transitions emit through it so this module
        #: never imports the tracing package.
        self.event_hook = None

    def on_frame(self, dataplane):
        if dataplane.src_port != self.uplink_port:
            # Reply path: anything from a shard goes back up — and is a
            # free heartbeat for the failure detector.
            self.replies_forwarded += 1
            shard = self._shard_by_port.get(dataplane.src_port)
            if shard is not None and self.clock is not None:
                self.health[shard].heartbeat(self.clock())
            NetFPGA.set_output_port(dataplane, self.uplink_port)
            return
        key = self.key_fn(dataplane.tdata)
        yield pause()
        if key is None:
            self.unroutable += 1
            NetFPGA.drop(dataplane)
            return
        shard = self.ring.lookup(key)
        yield pause()
        port = self.shard_ports.get(shard)
        if port is None:
            self.unroutable += 1
            NetFPGA.drop(dataplane)
            return
        self.dispatched[shard] += 1
        NetFPGA.set_output_port(dataplane, port)

    # -- health-driven membership -------------------------------------------

    def check_health(self, now_ns=None):
        """Evict every shard whose φ crossed the threshold at *now_ns*.

        Suspicion is judged at the moment the *most recently heard*
        shard last spoke, not at ``now_ns`` raw: silence is only
        evidence of death while someone else is still talking.  An
        idle cluster (workload drained, every shard quiet) therefore
        never evicts anyone — heartbeats here are reply-driven, and
        idle is not dead.

        Returns the shards evicted by this check.  The last live shard
        is never evicted (an empty ring would make every key
        unroutable, which is strictly worse than routing into a
        suspected partition).
        """
        if now_ns is None:
            if self.clock is None:
                raise ClusterError("check_health needs a clock or now_ns")
            now_ns = self.clock()
        heard = [detector.last_heartbeat_ns
                 for detector in self.health.values()
                 if detector.heartbeats_seen]
        reference = min(now_ns, max(heard)) if heard else now_ns
        evicted = []
        for shard in self.shard_ports:
            if shard in self.down or len(self.ring) <= 1:
                continue
            if self.health[shard].is_suspect(reference):
                if self.event_hook is not None:
                    self.event_hook(
                        "phi-suspect:%s" % shard,
                        {"shard": shard,
                         "phi": round(self.health[shard].phi(reference),
                                      3)})
                self.mark_down(shard)
                evicted.append(shard)
        return evicted

    def mark_down(self, shard):
        """Evict *shard* from the ring; its keys fall to the survivors."""
        if shard not in self.shard_ports:
            raise ClusterError("no shard %r" % (shard,))
        if shard in self.down:
            return
        if len(self.ring) <= 1:
            raise ClusterError("cannot evict the last live shard")
        self.ring.remove_shard(shard)
        self.down.add(shard)
        self.evictions += 1
        if self.event_hook is not None:
            self.event_hook("mark-down:%s" % shard, {"shard": shard})

    def mark_up(self, shard):
        """Re-admit a recovered shard.  Its detector history is
        discarded — with no heartbeats φ stays 0, so stale silence
        cannot instantly re-evict it, and no synthetic heartbeat is
        injected (that would make the restored shard look like live
        traffic and re-arm suspicion of genuinely idle peers)."""
        if shard not in self.shard_ports:
            raise ClusterError("no shard %r" % (shard,))
        if shard not in self.down:
            return
        self.ring.add_shard(shard)
        self.down.discard(shard)
        self.health[shard].reset()
        self.restores += 1
        if self.event_hook is not None:
            self.event_hook("mark-up:%s" % shard, {"shard": shard})

    # -- cycle model ---------------------------------------------------------

    def datapath_extra_cycles(self, frame):
        """Byte-serial Pearson walk over the flow key.

        The multi-lane hash (one lane per digest byte) runs its lanes
        in parallel in hardware, so the walk costs one cycle per key
        byte, bracketed by a fixed header parse and the ring lookup.
        A frame with no routable key still pays the parse that
        discovered that.
        """
        key = self.key_fn(frame.data)
        key_bytes = len(key) if key is not None else 0
        return PARSE_CYCLES + key_bytes + LOOKUP_CYCLES

    def reset(self):
        self.dispatched = {shard: 0 for shard in self.shard_ports}
        self.replies_forwarded = 0
        self.unroutable = 0
