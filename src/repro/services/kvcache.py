"""In-dataplane look-aside LRU cache (§4.4 "Caching").

The SwitchKV-inspired use case: GET requests whose key is cached are
answered directly from the dataplane; misses are forwarded on to the
storage server, and the server's responses populate the cache on the
way back.  Eviction is the Fig. 9 LRU (HashCAM + NaughtyQ) — the logic
that "would be difficult in P4 because eviction must be managed by the
control plane".
"""

from repro.core import netfpga as NetFPGA
from repro.core.lru import LRU
from repro.core.protocols.memcached import (
    BinaryMagic, BinaryOpcodes, BinaryStatus, MemcachedBinaryWrapper,
    build_binary_response, build_udp_frame_header, split_udp_frame,
)
from repro.core.protocols.udp import UDPRequest
from repro.errors import ParseError
from repro.kiwi.runtime import pause
from repro.services.base import EmuService

CACHE_PORT = 11211


class KVCacheService(EmuService):
    """Cache sitting between clients (port 0) and a server (port 1)."""

    name = "kvcache"

    def __init__(self, client_port=0, server_port=1, depth=64,
                 listen_port=CACHE_PORT):
        self.client_port = client_port
        self.server_port = server_port
        self.listen_port = listen_port
        self.lru = LRU(key_width=64, value_width=64, depth=depth)
        self.cache_hits = 0
        self.cache_misses = 0
        self.populated = 0

    @staticmethod
    def _key64(key):
        """Fold a key (≤8 bytes meaningfully) into the CAM's 64-bit key."""
        return int.from_bytes(bytes(key[:8]).ljust(8, b"\x00"), "big")

    def on_frame(self, dataplane):
        request = UDPRequest.parse(dataplane.tdata)
        from_client = dataplane.src_port == self.client_port
        if request is None or self.listen_port != (
                request.destination_port if from_client
                else request.source_port):
            if dataplane.tdata.is_ipv4():
                self._forward(dataplane)
            return
        yield pause()

        try:
            request_id, body = split_udp_frame(request.payload())
            message = MemcachedBinaryWrapper(body)
        except ParseError:
            self._forward(dataplane)
            return
        yield pause()

        if from_client and message.is_request and \
                message.opcode == BinaryOpcodes.GET:
            result = self.lru.lookup(self._key64(message.key()))
            yield pause()
            if result.matched:
                self.cache_hits += 1
                response = build_binary_response(
                    BinaryOpcodes.GET, opaque=message.opaque,
                    value=int(result.result).to_bytes(8, "big"),
                    extras=b"\x00" * 4)
                # A cache in the path keeps the TTL the client sent.
                request.reply(build_udp_frame_header(request_id) + response,
                              ttl=request.ttl)
                NetFPGA.send_back(dataplane)
                return
            self.cache_misses += 1
            self._forward(dataplane)
            return
        if not from_client and message.is_response and \
                message.opcode == BinaryOpcodes.GET and \
                message.status == BinaryStatus.NO_ERROR:
            value = message.value()
            if len(value) == 8:
                self.lru.cache(self._key64(message.key()),
                               int.from_bytes(value, "big"))
                self.populated += 1
            yield pause()
        self._forward(dataplane)

    def _forward(self, dataplane):
        out = self.server_port if dataplane.src_port == self.client_port \
            else self.client_port
        NetFPGA.set_output_port(dataplane, out)

    def reset(self):
        self.lru = LRU(key_width=64, value_width=64, depth=self.lru.depth)
        self.cache_hits = self.cache_misses = self.populated = 0
