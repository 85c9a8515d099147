"""SocketServer: real-loopback round trips, robustness against
hostile bytes, and observability parity with the in-process path.

Every test binds an ephemeral loopback port (``port=0``), talks to it
with plain stdlib sockets, and verifies replies byte-for-byte against
the binding's probe oracle.  The garbage tests reuse the protocol
fuzz-corpus idiom (seeded ``random.Random`` streams): hostile
datagrams must surface as counted ``service_drops``, never as an
unhandled exception or a wedged server.
"""

import json
import random
import socket
import time

import pytest

from repro.deploy import deploy
from repro.errors import EngineError, ParseError, ServeError
from repro.obs.slo import SloSpec
from repro.obs.validate import (
    validate_alert_log, validate_trace, validate_tsv,
)
from repro.serve.server import SocketServer
from repro.serve.spec import resolve_binding
from repro.services.catalog import registry

SEED = 0x5E22E            # change deliberately, never casually


def rng_for(name):
    return random.Random("%s/%s" % (SEED, name))


def udp_client(server):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.connect(server.address)
    sock.settimeout(5.0)
    return sock


def roundtrip(sock, binding, seed, seq):
    payload, expected = binding.probe(seed, seq)
    sock.send(binding.wrap(payload))
    data = sock.recv(65535)
    assert data == bytes(binding.wrap_reply(expected)), seq
    return data


@pytest.fixture
def served_memcached():
    dep = deploy("memcached").on("cpu").start()
    server = dep.serve()
    yield dep, server
    server.stop()
    dep.stop()


# -- round trips -------------------------------------------------------------

def test_udp_memcached_roundtrip_byte_for_byte(served_memcached):
    dep, server = served_memcached
    binding = resolve_binding(dep.spec, "udp")
    with udp_client(server) as sock:
        for seq in range(32):
            roundtrip(sock, binding, SEED, seq)
    snapshot = server.report.snapshot()
    assert snapshot["replies"] == 32
    assert snapshot["service_drops"] == 0
    assert snapshot["queue_drops"] == 0


def test_tcp_dns_roundtrip_with_fragmented_writes():
    dep = deploy("dns").on("cpu").start()
    server = dep.serve(transport="tcp")
    binding = resolve_binding(dep.spec, "tcp")
    rng = rng_for("tcp-fragments")
    try:
        with socket.create_connection(server.address, timeout=5.0) \
                as sock:
            buffer = b""
            for seq in range(16):
                payload, expected = binding.probe(SEED, seq)
                wire = bytes(binding.wrap(payload))
                while wire:                  # drip-feed the stream
                    step = rng.randrange(1, 5)
                    sock.sendall(wire[:step])
                    wire = wire[step:]
                want = bytes(binding.wrap_reply(expected))
                while len(buffer) < len(want):
                    buffer += sock.recv(65536)
                assert buffer[:len(want)] == want, seq
                buffer = buffer[len(want):]
    finally:
        server.stop()
        dep.stop()


def test_udp_serving_over_cluster_backend():
    dep = deploy("memcached").on("cluster", shards=4).start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    try:
        with udp_client(server) as sock:
            for seq in range(24):
                roundtrip(sock, binding, "cluster-seed", seq)
        assert server.report.snapshot()["servers"] == 4
    finally:
        server.stop()
        dep.stop()


def test_port_zero_binds_ephemeral_and_reports_address(
        served_memcached):
    _, server = served_memcached
    host, port = server.address
    assert host == "127.0.0.1"
    assert port > 0


def test_replies_on_one_connection_leave_in_request_order():
    """Pipelined queries on one TCP connection to a four-shard
    cluster, sent in one write, run on all four shards and come back
    in the order they were asked."""
    dep = deploy("dns").on("cluster", shards=4).start()
    server = dep.serve(transport="tcp")
    binding = resolve_binding(dep.spec, "tcp")
    probes = [binding.probe(SEED, seq) for seq in range(256)]
    owners = {dep.target.owner_of(binding.encap(payload, seq))
              for seq, (payload, _) in enumerate(probes)}
    assert owners == set(dep.target.shard_ids)
    want = b"".join(bytes(binding.wrap_reply(expected))
                    for _, expected in probes)
    try:
        with socket.create_connection(server.address, timeout=5.0) \
                as sock:
            sock.sendall(b"".join(bytes(binding.wrap(payload))
                                  for payload, _ in probes))
            buffer = b""
            while len(buffer) < len(want):
                data = sock.recv(65536)
                assert data, len(buffer)
                buffer += data
        assert buffer == want
    finally:
        server.stop()
        dep.stop()


def test_a_served_cluster_request_is_routed_once():
    """``owner_of`` runs once per served request untraced, as in the
    open loop (the route the server admits under is the one the shard
    executes under), and once more for a traced row's detail."""
    for traced, per_request in ((False, 1), (True, 2)):
        dep = deploy("dns").on("cluster", shards=4)
        dep = (dep.with_trace() if traced else dep).start()
        calls = []
        owner_of = dep.target.owner_of

        def counted(frame):
            calls.append(1)
            return owner_of(frame)

        dep.target.owner_of = counted
        server = dep.serve()
        binding = resolve_binding(dep.spec, "udp")
        try:
            with udp_client(server) as sock:
                for seq in range(64):
                    roundtrip(sock, binding, SEED, seq)
        finally:
            server.stop()
            dep.stop()
        assert server.report.replies == 64
        assert len(calls) == per_request * 64, traced


def test_a_lone_datagram_costs_one_loop_iteration():
    """A UDP readiness burst is drained in the callback that read it:
    over 2 000 ping-pongs the event loop's selector is asked about
    once per request (twice when the drain was a callback of its
    own)."""
    dep = deploy("memcached").on("fpga").with_opt(3).start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    selector = server._loop._selector
    select = selector.select
    calls = []

    def counted(timeout=None):
        calls.append(timeout)
        return select(timeout)

    try:
        with udp_client(server) as sock:
            roundtrip(sock, binding, SEED, 0)
            selector.select = counted
            for seq in range(1, 2001):
                roundtrip(sock, binding, SEED, seq)
            selector.select = select
    finally:
        server.stop()
        dep.stop()
    assert len(calls) <= 1.05 * 2000, len(calls) / 2000


def test_a_shard_added_while_serving_runs_its_own_keys():
    """The route pins shard -> queue when serving starts; a request
    owned by a shard added later waits on server 0 but runs on its
    owner, not on the shard pinned to server 0."""
    dep = deploy("memcached").on("cluster", shards=2).start()
    target = dep.target
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    try:
        with udp_client(server) as sock:
            roundtrip(sock, binding, SEED, 0)
            added = target.add_shard()
            owned = 0
            for seq in range(1, 61):
                payload, _ = binding.probe(SEED, seq)
                owned += target.owner_of(binding.encap(payload, seq)) \
                    == added
                roundtrip(sock, binding, SEED, seq)
    finally:
        server.stop()
        dep.stop()
    assert owned > 0
    assert target.shard_loads[added] == owned


# -- admission at its boundary ----------------------------------------------

def _burst(server, payloads, reply):
    """Hand *payloads* to the server inside one event-loop callback,
    so no drain tick runs between them; returns once all are
    accounted."""
    server._loop.call_soon_threadsafe(
        lambda: [server._enqueue(payload, reply) for payload in payloads])
    deadline = time.monotonic() + 5.0
    report = server.report
    while report.completed + report.queue_drops < len(payloads):
        assert time.monotonic() < deadline
        time.sleep(0.005)


def test_a_served_queue_admits_exactly_its_capacity():
    """Four payloads fill a queue of capacity 4 and are all answered;
    a fifth in the same tick is refused, one queue drop."""
    dep = deploy("memcached").on("cpu").start()
    server = dep.serve(capacity=4)
    binding = resolve_binding(dep.spec, "udp")
    answered = []
    probes = [binding.probe(SEED, seq) for seq in range(5)]
    try:
        _burst(server, [binding.wrap(payload) for payload, _ in probes[:4]],
               answered.append)
        assert server.report.queue_drops == 0
        _burst(server, [binding.wrap(payload) for payload, _ in probes],
               answered.append)
    finally:
        server.stop()
        dep.stop()
    snapshot = server.report.snapshot()
    assert (snapshot["offered"], snapshot["admitted"],
            snapshot["queue_drops"], snapshot["replies"]) == (9, 8, 1, 8)
    assert answered == [bytes(binding.wrap_reply(expected))
                        for _, expected in probes[:4]] * 2


@pytest.mark.parametrize("capacity", [0, -1])
def test_a_served_capacity_below_one_is_refused(capacity):
    """Like ``with_arrivals(capacity=...)``: a queue that can hold
    nothing is an error up front, not a server that drops every
    request — through ``SocketServer`` and ``Deployment.serve`` alike,
    with nothing bound."""
    dep = deploy("memcached").on("cpu").start()
    try:
        for start in (lambda: SocketServer(dep, capacity=capacity),
                      lambda: dep.serve(capacity=capacity)):
            with pytest.raises(EngineError,
                               match="queue capacity must be >= 1"):
                start()
        assert dep.server is None
    finally:
        dep.stop()


def test_a_payload_of_exactly_max_payload_is_not_oversized():
    dep = deploy("memcached").on("cpu").with_trace().start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    try:
        _burst(server, [b"A" * binding.max_payload,
                        b"A" * (binding.max_payload + 1)], lambda wire: None)
    finally:
        server.stop()
        dep.stop()
    reasons = [event["args"].get("reason")
               for event in dep.tracer.find("request")]
    assert len(reasons) == 2
    assert reasons[0] != "oversized"
    assert reasons[1] == "oversized"


def test_a_group_that_raises_runs_frame_by_frame():
    """A ReproError out of a server's whole group does not take the
    group down: each frame runs alone, the one that raises again is
    a service drop, and the others are answered."""
    dep = deploy("memcached").on("cpu").start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    send_routed = dep.backend.send_routed

    def poisoned(frames, index):
        if len(frames) > 1 or b"get lg" in bytes(frames[0].data):
            raise ParseError("injected group fault")
        return send_routed(frames, index)

    dep.backend.send_routed = poisoned
    answered = []
    probes = [binding.probe(SEED, seq) for seq in range(3)]  # set, get, del
    try:
        _burst(server, [binding.wrap(payload) for payload, _ in probes],
               answered.append)
    finally:
        server.stop()
        dep.stop()
    assert answered == [bytes(binding.wrap_reply(probes[seq][1]))
                        for seq in (0, 2)]
    snapshot = server.report.snapshot()
    assert (snapshot["replies"], snapshot["service_drops"]) == (2, 1)
    assert server.internal_errors == 0


def test_a_service_fault_costs_only_its_own_request():
    """An exception that is not a ReproError out of one request's
    execution is the server's own bug: that request is an
    ``internal_error`` drop, traceback kept, and every other request
    of the burst is still answered; nothing reaches asyncio."""
    dep = deploy("dns").on("cpu").with_trace().start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    probes = [binding.probe(SEED, seq) for seq in range(8)]
    marked = probes[3][0][12:]               # the bad request's question
    service = dep.target.service
    on_frame = service.on_frame

    def faulty(dataplane):
        if marked in bytes(dataplane.tdata):
            raise RuntimeError("injected service fault")
        return on_frame(dataplane)

    service.on_frame = faulty
    handled = []
    server._loop.set_exception_handler(
        lambda loop, context: handled.append(context))
    answered = []
    try:
        _burst(server, [binding.wrap(payload) for payload, _ in probes],
               answered.append)
    finally:
        server.stop()
        dep.stop()
    assert answered == [bytes(binding.wrap_reply(expected))
                        for seq, (_, expected) in enumerate(probes)
                        if seq != 3]
    assert handled == []
    assert server.internal_errors == 1
    assert "injected service fault" in server.first_internal_error
    assert [event["args"].get("reason")
            for event in dep.tracer.find("request")] == \
        [None] * 3 + ["internal_error"] + [None] * 4
    snapshot = server.report.snapshot()
    assert snapshot["offered"] == \
        snapshot["admitted"] + snapshot["queue_drops"] == 8
    assert snapshot["completed"] == \
        snapshot["replies"] + snapshot["service_drops"] == 8
    assert (snapshot["replies"], snapshot["service_drops"]) == (7, 1)


# -- robustness against hostile bytes ----------------------------------------

def test_garbage_datagram_flood_counts_drops_and_never_wedges(
        served_memcached):
    dep, server = served_memcached
    binding = resolve_binding(dep.spec, "udp")
    rng = rng_for("garbage-flood")
    short = 0
    with udp_client(server) as sock:
        for _ in range(200):
            length = rng.randrange(0, 256)
            if length < 8:               # unframeable: can never reply
                short += 1
            sock.send(bytes(rng.randrange(256)
                            for _ in range(length)))
        # The server must still answer a well-formed probe afterwards
        # (skipping stale ERROR replies the flood provoked).
        payload, expected = binding.probe(SEED, 0)
        want = bytes(binding.wrap_reply(expected))
        sock.send(binding.wrap(payload))
        while sock.recv(65535) != want:
            pass
    assert short > 0                     # the seeded corpus has both
    snapshot = server.report.snapshot()
    # Every hostile datagram is accounted for — an ERROR reply (the
    # bytes happened to frame) or a counted drop — nothing vanishes
    # and nothing wedges.
    assert snapshot["offered"] == 201
    assert snapshot["completed"] == 201
    assert snapshot["replies"] + snapshot["service_drops"] == 201
    assert snapshot["service_drops"] >= short


def test_oversized_datagram_is_a_counted_drop(served_memcached):
    dep, server = served_memcached
    binding = resolve_binding(dep.spec, "udp")
    with udp_client(server) as sock:
        sock.send(b"A" * (binding.max_payload + 1))
        roundtrip(sock, binding, SEED, 7)
    assert server.report.snapshot()["service_drops"] == 1


def test_an_unroutable_payload_is_a_typed_drop():
    """A cluster frame without a key has no server: its trace row
    names ``unroutable`` and no shard ran it."""
    dep = (deploy("memcached")
           .on("cluster", shards=2, key_fn=lambda data: None)
           .with_trace().start())
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    try:
        with udp_client(server) as sock:
            for seq in range(3):
                sock.send(binding.wrap(binding.probe(SEED, seq)[0]))
            deadline = time.monotonic() + 5.0
            while server.report.completed < 3:
                assert time.monotonic() < deadline
                time.sleep(0.005)
        assert dep.target.requests == 0
    finally:
        server.stop()
        dep.stop()
    assert [event["args"].get("reason")
            for event in dep.tracer.find("request")] == ["unroutable"] * 3
    snapshot = server.report.snapshot()
    assert snapshot["offered"] == \
        snapshot["admitted"] + snapshot["queue_drops"] == 3
    assert snapshot["service_drops"] == 3
    assert server.internal_errors == 0


def test_bridge_fault_is_an_internal_error_not_a_malformed_drop():
    """An exception that is not a ReproError is the server's own bug:
    told apart from hostile input (the drop's reason, the server's
    ``internal_errors``), traceback kept, request still accounted as a
    drop, and the next request is served."""
    dep = deploy("memcached").on("cpu").with_trace().start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    encap = server.binding.encap

    def faulty_encap(payload, seq):
        raise RuntimeError("injected codec fault")

    server.binding.encap = faulty_encap
    payload, _ = binding.probe(SEED, 0)
    try:
        with udp_client(server) as sock:
            sock.send(binding.wrap(payload))
            deadline = time.monotonic() + 5.0
            while server.report.completed < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert server.internal_errors == 1
            assert "injected codec fault" in server.first_internal_error
            server.binding.encap = encap
            roundtrip(sock, binding, SEED, 1)
    finally:
        server.stop()
        dep.stop()
    reasons = [event["args"]["reason"]
               for event in dep.tracer.find("request")
               if "reason" in event["args"]]
    assert reasons == ["internal_error"]         # malformed == 0
    snapshot = server.report.snapshot()
    assert snapshot["offered"] == snapshot["completed"] == 2
    assert snapshot["replies"] == 1
    assert snapshot["service_drops"] == 1
    assert server.internal_errors == 1


@pytest.mark.parametrize("fault, reason, internal", [
    (ParseError("injected reply rejection"), "undecodable_reply", 0),
    (RuntimeError("injected reply fault"), "internal_error", 1),
], ids=["undecodable_reply", "internal_error"])
def test_a_rejected_reply_is_a_drop_that_names_its_reason(
        fault, reason, internal):
    """A reply the service emitted but the codecs cannot turn back
    into wire bytes is a counted drop whose trace row names why; only
    an exception that is not a ReproError is the server's own bug."""
    dep = deploy("memcached").on("cpu").with_trace().start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    decap = server.binding.decap

    def faulty_decap(frame):
        raise fault

    server.binding.decap = faulty_decap
    payload, _ = binding.probe(SEED, 0)
    try:
        with udp_client(server) as sock:
            sock.send(binding.wrap(payload))
            deadline = time.monotonic() + 5.0
            while server.report.completed < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            server.binding.decap = decap
            roundtrip(sock, binding, SEED, 1)
    finally:
        server.stop()
        dep.stop()
    assert [event["args"].get("reason")
            for event in dep.tracer.find("request")] == [reason, None]
    assert server.report.snapshot()["service_drops"] == 1
    assert server.internal_errors == internal


def test_a_refused_payload_is_traced_as_a_whole_family():
    """A payload dropped before dispatch (oversized, or rejected by
    the codecs) waited and got no service: its trace row decomposes
    like every other request's, ``queue + service + reply ==
    latency``."""
    dep = deploy("memcached").on("cpu").with_trace().start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    encap = server.binding.encap

    def rejecting_encap(payload, seq):
        raise ParseError("injected codec rejection")

    try:
        with udp_client(server) as sock:
            sock.send(b"A" * (binding.max_payload + 1))
            server.binding.encap = rejecting_encap
            sock.send(binding.wrap(binding.probe(SEED, 0)[0]))
            deadline = time.monotonic() + 5.0
            while server.report.completed < 2:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            server.binding.encap = encap
            roundtrip(sock, binding, SEED, 1)
    finally:
        server.stop()
        dep.stop()
    records = dep.analysis().requests
    assert [record.dropped for record in records] == [True, True, False]
    for record in records:
        assert record.queue_ns + record.service_ns + record.reply_ns \
            == record.latency_ns, record
    assert [event["args"].get("reason")
            for event in dep.tracer.find("request")] == \
        ["oversized", "malformed", None]
    assert all(record.queue_ns == record.latency_ns > 0
               for record in records[:2])
    assert server.report.snapshot()["service_drops"] == 2


def test_a_vanished_peer_is_counted_not_swallowed():
    """A reply callable that raises (the peer went away between
    request and answer) loses that reply only: the request is
    completed and replied, ``peer_gone`` counts it, and the payload
    queued behind it is answered."""
    dep = deploy("memcached").on("cpu").start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    answered = []

    def gone(wire):
        raise ConnectionResetError("peer went away")

    try:
        for seq, reply in enumerate((gone, answered.append)):
            payload, _ = binding.probe(SEED, seq)
            server._loop.call_soon_threadsafe(
                server._enqueue, binding.wrap(payload), reply)
        deadline = time.monotonic() + 5.0
        while server.report.completed < 2:
            assert time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        server.stop()
        dep.stop()
    _, expected = binding.probe(SEED, 1)
    assert answered == [bytes(binding.wrap_reply(expected))]
    snapshot = server.report.snapshot()
    assert snapshot["completed"] == snapshot["replies"] == 2
    assert snapshot["service_drops"] == 0
    assert server.peer_gone == 1
    assert server.internal_errors == 0


def test_tcp_garbage_stream_drops_peer_but_serves_next_connection():
    """A poisoned stream is one refused payload like any other:
    offered, admitted, and completed as a traced ``malformed`` drop,
    so the report's identities hold; the next connection is served."""
    dep = deploy("memcached").on("cpu").with_trace().start()
    server = dep.serve(transport="tcp")
    binding = resolve_binding(dep.spec, "tcp")
    rng = rng_for("tcp-garbage")
    try:
        with socket.create_connection(server.address, timeout=5.0) \
                as hostile:
            # A CRLF-less flood past the framing cap: the decoder
            # raises, the server drops this peer.
            hostile.sendall(bytes(rng.randrange(1, 255)
                                  for _ in range(8192)))
            assert hostile.recv(65536) == b""      # closed on us
        with socket.create_connection(server.address, timeout=5.0) \
                as polite:
            payload, expected = binding.probe(SEED, 3)
            polite.sendall(bytes(binding.wrap(payload)))
            want = bytes(binding.wrap_reply(expected))
            buffer = b""
            while len(buffer) < len(want):
                buffer += polite.recv(65536)
            assert buffer == want
        assert server.report.snapshot()["service_drops"] >= 1
    finally:
        server.stop()
        dep.stop()
    snapshot = server.report.snapshot()
    assert snapshot["offered"] == \
        snapshot["admitted"] + snapshot["queue_drops"]
    assert snapshot["completed"] == \
        snapshot["replies"] + snapshot["service_drops"]
    reasons = [event["args"].get("reason")
               for event in dep.tracer.find("request")]
    assert reasons.count("malformed") == 1


# -- capability errors (fail fast, never hang) -------------------------------

def test_serving_unservable_service_raises_serve_error():
    dep = deploy("switch").on("cpu").start()
    try:
        with pytest.raises(ServeError, match="netsim"):
            dep.serve()
    finally:
        dep.stop()


def test_serving_unstarted_deployment_raises_serve_error():
    dep = deploy("memcached")
    with pytest.raises(Exception):
        SocketServer(dep)


def test_serving_undeclared_transport_raises_serve_error():
    dep = deploy("icmp").on("cpu").start()
    try:
        with pytest.raises(ServeError, match="udp"):
            dep.serve(transport="tcp")
    finally:
        dep.stop()


# -- observability parity with the in-process open-loop path -----------------

def test_served_trace_has_the_open_loop_span_families(tmp_path):
    dep = deploy("memcached").on("cpu").with_trace() \
        .with_timeseries(window_us=50_000).start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    try:
        with udp_client(server) as sock:
            for seq in range(20):
                roundtrip(sock, binding, SEED, seq)
    finally:
        server.stop()
        dep.stop()
    document = json.loads(dep.tracer.to_json())
    assert validate_trace(document) == []
    assert validate_tsv(dep.tracer.to_tsv()) == []
    names = {event.get("name") for event in document["traceEvents"]
             if event.get("ph") == "X"}
    assert "request" in names
    assert "queue" in names
    assert "kernel" in names
    assert len(dep.timeseries) >= 1
    window_offered = sum(window.offered
                         for window in dep.timeseries.rows)
    assert window_offered == 20


def test_served_slo_fires_on_garbage_flood_and_log_validates():
    slo = SloSpec("served-slo", window_us=20_000) \
        .error_ratio(0.01)
    slo.rule("page", 1.0, 1, 2)          # replaces the default rules
    dep = deploy("memcached").on("cpu").with_slo(slo).start()
    server = dep.serve()
    binding = resolve_binding(dep.spec, "udp")
    rng = rng_for("slo-garbage")
    try:
        with udp_client(server) as sock:
            for seq in range(10):
                roundtrip(sock, binding, SEED, seq)
            for _ in range(150):
                # < 8 bytes: unframeable, guaranteed service drops.
                sock.send(bytes(rng.randrange(256)
                                for _ in range(rng.randrange(0, 8))))
            roundtrip(sock, binding, SEED, 99)
    finally:
        server.stop()
        dep.stop()
    assert dep.alert_log is not None
    document = json.loads(dep.alert_log.to_json())
    assert validate_alert_log(document) == []
    fired = [event for event in document["events"]
             if event["kind"] == "fire"]
    assert any(event["objective"].startswith("errors")
               for event in fired)
