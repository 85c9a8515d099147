"""Memcached server (§4.3).

The paper's design evolved in stages, all reproduced here:

* the initial prototype: binary protocol over UDP, 6-byte keys, 8-byte
  values (``MemcachedService(profile="paper-initial")``);
* later extensions: the ASCII protocol, larger keys/values, and more
  storage (``profile="extended"``) — each with its own latency/
  throughput/functionality trade-off (§5.4 "Optimizations" discusses
  on-chip vs DRAM storage; see ``storage="dram"``).

Eviction is LRU via the Fig. 9 construction (HashCAM + NaughtyQ) when
the store fills.
"""

from collections import OrderedDict

from repro.core import netfpga as NetFPGA
from repro.core.protocols.memcached import (
    BinaryMagic, BinaryOpcodes, BinaryStatus, MemcachedBinaryWrapper,
    build_binary_response, build_udp_frame_header, parse_ascii_command,
    split_udp_frame,
)
from repro.core.protocols.udp import UDPRequest
from repro.errors import HostModelError, ParseError
from repro.ip.bram import DramModel
from repro.kiwi.runtime import pause
from repro.services.base import EmuService

MEMCACHED_PORT = 11211

PROFILES = {
    # The paper's first prototype: GET/SET/DELETE, binary over UDP,
    # 6-byte keys, 8-byte values.
    "paper-initial": {"max_key": 6, "max_value": 8, "capacity": 4096,
                      "ascii": False, "binary": True},
    # The extended design evaluated in Table 4 (UDP + ASCII protocol).
    "extended": {"max_key": 250, "max_value": 1024, "capacity": 65536,
                 "ascii": True, "binary": True},
}


class MemcachedService(EmuService):
    """GET/SET/DELETE key-value cache over UDP."""

    name = "memcached"

    def __init__(self, my_ip, my_mac=0x02_00_00_00_00_04,
                 profile="extended", storage="onchip"):
        if profile not in PROFILES:
            raise HostModelError("unknown profile %r" % profile)
        config = PROFILES[profile]
        self.my_ip = my_ip
        self.my_mac = my_mac
        self.profile = profile
        self.max_key = config["max_key"]
        self.max_value = config["max_value"]
        self.capacity = config["capacity"]
        self.ascii_enabled = config["ascii"]
        self.binary_enabled = config["binary"]
        self.storage = storage
        self._store = {}
        self._recency = OrderedDict()    # keys, least recent first
        self._dram = DramModel(width=8, depth=1 << 24) \
            if storage == "dram" else None
        self.gets = 0
        self.sets = 0
        self.deletes = 0
        self.hits = 0
        self.misses = 0
        self.extra_cycles = 0        # DRAM access cycles, if any

    # -- store ---------------------------------------------------------------

    def _touch(self, key):
        self._recency[key] = None
        self._recency.move_to_end(key)

    def store_set(self, key, value, flags=0):
        if len(key) > self.max_key:
            return BinaryStatus.INVALID_ARGUMENTS
        if len(value) > self.max_value:
            return BinaryStatus.VALUE_TOO_LARGE
        if key not in self._store and len(self._store) >= self.capacity:
            victim, _ = self._recency.popitem(last=False)  # LRU eviction
            del self._store[victim]
        self._store[key] = (bytes(value), flags)
        self._touch(key)
        if self._dram is not None:
            self._dram.write(hash(key) & (self._dram.depth - 1), 0)
            self.extra_cycles += self._dram.last_access_latency()
        return BinaryStatus.NO_ERROR

    def store_get(self, key):
        entry = self._store.get(key)
        if self._dram is not None:
            self._dram.read(hash(key) & (self._dram.depth - 1))
            self.extra_cycles += self._dram.last_access_latency()
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)
        return entry

    def store_delete(self, key):
        if key in self._store:
            del self._store[key]
            del self._recency[key]
            return True
        return False

    # -- dataplane -----------------------------------------------------------

    def on_frame(self, dataplane):
        request = UDPRequest.parse(dataplane.tdata)
        if request is None or \
                request.destination_ip_address != self.my_ip or \
                request.destination_port != MEMCACHED_PORT:
            return
        yield pause()

        try:
            request_id, body = split_udp_frame(request.payload())
        except ParseError:
            return
        yield pause()

        if self.binary_enabled and body[:1] and \
                body[0] == BinaryMagic.REQUEST:
            response = yield from self._handle_binary(body)
        elif self.ascii_enabled:
            response = yield from self._handle_ascii(body)
        else:
            return
        if response is None:
            return
        yield pause()

        request.reply(build_udp_frame_header(request_id) + response)
        NetFPGA.send_back(dataplane)

    def _handle_binary(self, body):
        try:
            message = MemcachedBinaryWrapper(body)
        except ParseError:
            return None
        opcode = message.opcode
        key = message.key()
        yield pause()

        if opcode == BinaryOpcodes.GET:
            self.gets += 1
            entry = self.store_get(key)
            yield pause()
            if entry is None:
                return build_binary_response(
                    opcode, status=BinaryStatus.KEY_NOT_FOUND,
                    opaque=message.opaque)
            value, flags = entry
            return build_binary_response(
                opcode, value=value, opaque=message.opaque,
                extras=int(flags).to_bytes(4, "big"))
        if opcode == BinaryOpcodes.SET:
            self.sets += 1
            extras = message.extras()
            flags = int.from_bytes(extras[:4], "big") if len(extras) >= 4 \
                else 0
            status = self.store_set(key, message.value(), flags)
            yield pause()
            return build_binary_response(opcode, status=status,
                                         opaque=message.opaque)
        if opcode == BinaryOpcodes.DELETE:
            self.deletes += 1
            found = self.store_delete(key)
            yield pause()
            status = BinaryStatus.NO_ERROR if found else \
                BinaryStatus.KEY_NOT_FOUND
            return build_binary_response(opcode, status=status,
                                         opaque=message.opaque)
        return build_binary_response(
            opcode, status=BinaryStatus.UNKNOWN_COMMAND,
            opaque=message.opaque)

    def _handle_ascii(self, body):
        try:
            command = parse_ascii_command(body)
        except ParseError:
            return b"ERROR\r\n"
        yield pause()

        if command.verb == "get":
            self.gets += 1
            entry = self.store_get(command.key)
            yield pause()
            if entry is None:
                return b"END\r\n"
            value, flags = entry
            return (b"VALUE %s %d %d\r\n" % (command.key, flags,
                                             len(value)) +
                    value + b"\r\nEND\r\n")
        if command.verb == "set":
            self.sets += 1
            status = self.store_set(command.key, command.value,
                                    command.flags)
            yield pause()
            if command.noreply:
                return None
            return b"STORED\r\n" if status == BinaryStatus.NO_ERROR \
                else b"NOT_STORED\r\n"
        if command.verb == "delete":
            self.deletes += 1
            found = self.store_delete(command.key)
            yield pause()
            if command.noreply:
                return None
            return b"DELETED\r\n" if found else b"NOT_FOUND\r\n"
        return b"ERROR\r\n"

    def kernel_cycle_model(self, opt_level, level_budget=None):
        """Core-cycle model from the compiled paper-initial kernel.

        Used by :class:`~repro.targets.fpga.FpgaTarget` when an
        explicit ``opt_level`` is requested: per-request cycles are then
        measured on the Kiwi-compiled binary-protocol datapath (the
        paper's first prototype) instead of counted from the
        behavioural handler's pauses.
        """
        from repro.targets.kernel_model import KernelCycleModel
        return KernelCycleModel(memcached_kernel, opt_level,
                                scalars={"my_ip": self.my_ip},
                                level_budget=level_budget)

    def datapath_extra_cycles(self, frame):
        """Byte-serial request parse and response construction, UDP/IP
        checksum passes, plus any DRAM wait cycles accrued this request
        (on-chip storage adds none — §5.4 "Optimizations")."""
        payload_bytes = max(0, len(frame.data) - 42)
        dram_wait, self.extra_cycles = self.extra_cycles, 0
        return 30 + payload_bytes + dram_wait

    def reset(self):
        self._store.clear()
        self._recency.clear()
        self.gets = self.sets = self.deletes = 0
        self.hits = self.misses = 0


def memcached_kernel(frame: "mem[512]x8", my_ip: "u32",
                     ktags: "mem[256]x48", values: "mem[256]x64",
                     kvalid: "mem[256]x1") -> "u4":
    """Flat Emu-Python Memcached (binary GET/SET, 6-byte key, 8-byte
    value) for the Kiwi compiler — the paper's initial prototype, used
    for the Table 5 utilisation baseline.
    """
    ethertype = (frame[12] << 8) | frame[13]
    if ethertype != 0x0800:
        return 0
    if frame[23] != 17:
        return 0
    dport = (frame[36] << 8) | frame[37]
    if dport != 11211:
        return 0
    pause()

    # Binary header starts after 8-byte UDP frame header: offset 50.
    magic = frame[50]
    if magic != 0x80:
        return 0
    opcode = frame[51]
    keylen = (frame[52] << 8) | frame[53]
    extras = frame[54]
    if keylen != 6:
        return 0
    pause()

    # Key: 6 bytes after the 24-byte header + extras.
    key = 0
    kb = 74 + extras
    for i in range(6):
        key = (key << 8) | frame[kb + i]
    h = bits(key ^ (key >> 24) ^ (key >> 41), 8)
    pause()

    status = 0
    hit = 0
    value = 0
    if opcode == 0:
        # GET: probe, tag-compare.
        if kvalid[h] == 1 and ktags[h] == bits(key, 48):
            hit = 1
            value = values[h]
        else:
            status = 1
    else:
        if opcode == 1:
            # SET: 8-byte value follows the key.
            v = 0
            for i in range(8):
                v = (v << 8) | frame[kb + 6 + i]
            ktags[h] = bits(key, 48)
            values[h] = v
            kvalid[h] = 1
        else:
            if opcode == 4:
                # DELETE.
                if kvalid[h] == 1 and ktags[h] == bits(key, 48):
                    kvalid[h] = 0
                else:
                    status = 1
            else:
                status = 0x81
    pause()

    # Response header in place: magic, status, body length.
    frame[50] = 0x81
    frame[56] = bits(status >> 8, 8)
    frame[57] = bits(status, 8)
    frame[58] = 0
    frame[59] = 0
    frame[60] = 0
    frame[61] = bits(hit * 8, 8)
    pause()

    if hit == 1:
        for i in range(8):
            frame[74 + i] = bits(value >> bits(8 * (7 - i), 6), 8)
    pause()

    # Swap MACs, IPs, UDP ports.
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
    return 1
