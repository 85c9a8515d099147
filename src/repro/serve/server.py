"""The asyncio serving front-end: any started deployment behind a
real loopback socket.

    dep = deploy("memcached").on("cluster", shards=4).start()
    server = SocketServer(dep).start()       # or dep.serve(host, port)
    host, port = server.address
    ... real clients send datagrams / streams ...
    server.stop()
    print(server.report.text())

One asyncio event loop runs in a background thread.  Received payloads
are *not* dispatched one at a time: each loop tick drains everything
that arrived since the last tick and pushes the whole group through
``deployment.send_batch`` — the entry point whose bursts the lockstep
engine measures in one dispatch — at most ``batch`` payloads per group
(default: the engine's lane count).

Robustness contract (regression-tested by the garbage-flood suite): a
malformed, oversized, or unparseable payload is counted — as one of
the ``service_drops`` of the serve report, an
:class:`~repro.engine.openloop.OpenLoopReport` fed through the same
``complete()`` as a simulated run's, the served process's one account
— and dropped.  It never raises out of the event loop and never wedges
the server; a stream peer that overflows its reassembly buffer is one
``malformed`` drop and loses its connection, nothing more.  Hostile
input and the server's own bugs are told apart: a payload the codecs
reject (a :class:`~repro.errors.ReproError`) is a ``malformed`` drop,
one no server owns (a cluster frame without a key) an ``unroutable``
one and a reply the codecs reject an ``undecodable_reply`` one (the
reason on its trace row); any other exception out of the bridge is an
``internal_error`` drop and also counts on
:attr:`SocketServer.internal_errors` — still a counted drop, never a
crash — and the first such traceback is kept on
:attr:`SocketServer.first_internal_error`.  A reply or a stream close
that fails because the peer went away is counted on
:attr:`SocketServer.peer_gone`.

Observability mirrors the in-process open-loop path: with
``.with_trace()`` every served request — a refused payload included —
is one trace row on its server's track, exported as the same
request/queue/kernel span family (wall-clock nanoseconds instead of
virtual ones — the only difference); with
``.with_timeseries`` / ``.with_slo`` a sampler task flushes windows to
the attached :class:`~repro.obs.series.TimeSeries` and the burn-rate
monitor judges socket traffic exactly as it judges simulated arrivals.
"""

import asyncio
import socket
import threading
import time
import traceback

from repro.engine.batch import LANES
from repro.engine.openloop import OpenLoopReport, bind_tracer
from repro.errors import ReproError, ServeError
from repro.serve.spec import resolve_binding

#: Ingest bound on payloads waiting for a drain tick (tail-drop above
#: it, like the model's bounded ingest queues).
DEFAULT_CAPACITY = 4096


class _SocketArrivals:
    """Duck-typed arrival spec for the serve report: socket arrivals
    have no model process, so the report names them ``socket``."""

    process = "socket"

    def __init__(self, capacity):
        self.qps = 0.0
        self.capacity = capacity


class SocketServer:
    """Bridge real sockets into a started deployment."""

    def __init__(self, deployment, host="127.0.0.1", port=0,
                 transport=None, series=None, capacity=DEFAULT_CAPACITY,
                 batch=LANES):
        if deployment.backend is None:
            raise ServeError("deployment is not started "
                             "(call .start() before serving)")
        self.deployment = deployment
        self.binding = resolve_binding(deployment.spec, transport)
        self.host = host
        self.port = int(port)
        self.capacity = int(capacity)
        self.batch = max(1, int(batch))
        self.series = series
        #: Exceptions out of the bridge that were not a ``ReproError``.
        self.internal_errors = 0
        #: Replies and stream closes lost because the peer went away.
        self.peer_gone = 0
        #: Traceback text of the first exception out of the bridge that
        #: was not a ``ReproError`` (``None``: there was none).
        self.first_internal_error = None
        num_servers, self._route = \
            deployment.backend.open_loop_servers()
        self._report = OpenLoopReport(_SocketArrivals(self.capacity),
                                      0, num_servers, deployment.tracer)
        self._detail_of = None
        self._pending = []           # (payload, reply, depth, t_arr_ns)
        self._drain_scheduled = False
        self._seq = 0
        self._loop = None
        self._thread = None
        self._udp_sock = None
        self._tcp_server = None
        self._sampler_task = None
        self._t0_ns = None
        self._final_ns = 0
        self._running = False

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Bind the socket (port 0 = ephemeral) and begin serving;
        returns ``self`` with :attr:`address` resolved."""
        if self._running:
            raise ServeError("server is already running")
        self._t0_ns = time.monotonic_ns()
        tracer = self.deployment.tracer
        if tracer is not None:
            self._detail_of = bind_tracer(tracer, self._now_ns,
                                          self.deployment.backend)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-serve-%s" % self.deployment.spec.name,
            daemon=True)
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                self._open(), self._loop).result(timeout=10)
        except BaseException:
            self._shutdown_loop()
            raise
        self._running = True
        return self

    async def _open(self):
        loop = asyncio.get_running_loop()
        if self.binding.transport == "udp":
            # A raw non-blocking socket on add_reader, not an asyncio
            # DatagramProtocol: the protocol path delivers exactly one
            # datagram per loop iteration, which caps ingest at the
            # epoll wakeup rate.  Reading a bounded burst per wakeup
            # amortizes that overhead across the batch.
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                # The kernel buffer is the real ingress queue (the
                # default ~212KB is a couple hundred datagrams — far
                # too shallow for open-loop bursts).
                sock.setsockopt(socket.SOL_SOCKET,
                                socket.SO_RCVBUF, 1 << 22)
            except OSError:
                pass
            sock.setblocking(False)
            sock.bind((self.host, self.port))
            self._udp_sock = sock
            self.host, self.port = sock.getsockname()[:2]
            loop.add_reader(sock.fileno(), self._udp_ready)
        else:
            server = await asyncio.start_server(
                self._serve_stream, self.host, self.port)
            self._tcp_server = server
            self.host, self.port = \
                server.sockets[0].getsockname()[:2]
        if self.series is not None:
            self._sampler_task = loop.create_task(self._sampler())

    def stop(self):
        """Drain what already arrived, close the socket, finalize the
        report (and the time-series tail window).  Idempotent."""
        if not self._running:
            return self.report
        self._running = False
        asyncio.run_coroutine_threadsafe(
            self._close(), self._loop).result(timeout=10)
        self._shutdown_loop()
        self._final_ns = max(1, self._now_ns())
        self._report.duration_ns = self._final_ns
        if self.series is not None:
            self.series.finish(self._final_ns, self._report,
                               [len(self._pending)])
        return self.report

    async def _close(self):
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            self._sampler_task = None
        # Stop the intake first, then drain what already made it in.
        if self._udp_sock is not None:
            self._loop.remove_reader(self._udp_sock.fileno())
            self._udp_ready()        # last kernel-buffered burst
            self._udp_sock.close()
            self._udp_sock = None
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        while self._pending:
            self._drain()

    def _shutdown_loop(self):
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        self._loop = None
        self._thread = None

    @property
    def address(self):
        """The bound ``(host, port)``."""
        return self.host, self.port

    @property
    def report(self):
        """The live :class:`~repro.engine.openloop.OpenLoopReport` of
        socket traffic (same shape as a simulated open-loop run)."""
        if self._running:
            self._report.duration_ns = max(1, self._now_ns())
        return self._report

    def _now_ns(self):
        return time.monotonic_ns() - self._t0_ns

    # -- ingest (event-loop thread only) -------------------------------------

    def _enqueue(self, payload, reply):
        """Admit one received payload; *reply* is
        ``callable(wire_bytes)`` sending the response back out."""
        report = self._report
        report.offered += 1
        depth = len(self._pending)
        if depth >= self.capacity:
            report.queue_drops += 1
            return
        report.admitted += 1
        self._pending.append((payload, reply, depth, self._now_ns()))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self._loop.call_soon(self._drain)

    def _drain(self):
        """One tick's batch: encap everything pending, push the valid
        frames through ``send_batch``, decap and send the replies."""
        self._drain_scheduled = False
        group, self._pending = self._pending[:self.batch], \
            self._pending[self.batch:]
        if self._pending and not self._drain_scheduled:
            self._drain_scheduled = True
            self._loop.call_soon(self._drain)
        if not group:
            return
        report = self._report
        tracer = self.deployment.tracer
        jobs = []                    # (frame, reply, index, t_arr, ...)
        for payload, reply, depth, t_arr in group:
            if len(payload) > self.binding.max_payload:
                self._drop(t_arr, "oversized")
                continue
            seq = self._seq
            try:
                frame = self.binding.encap(payload, seq)
                self._seq += 1
                index = self._route(frame)
            except ReproError:
                self._drop(t_arr, "malformed")
                continue
            except Exception:
                self._internal_error()
                self._drop(t_arr, "internal_error")
                continue
            if index is None:                  # no server owns it
                self._drop(t_arr, "unroutable")
                continue
            report.servers[index].sample(depth)
            jobs.append((frame, reply, index, t_arr, seq))
        if not jobs:
            return
        t_disp = self._now_ns()
        details = [None] * len(jobs)
        if tracer is not None:
            details = [dict(self._detail_of(frame), seq=seq)
                       for frame, _, _, _, seq in jobs]
        results = self._send_group([frame for frame, _, _, _, _ in jobs])
        t_done = self._now_ns()
        busy_share = (t_done - t_disp) / len(jobs)
        for (_, reply, index, t_arr, _), outcome, detail in \
                zip(jobs, results, details):
            emitted = outcome[0] if outcome is not None else []
            wire = None
            if emitted:
                try:
                    wire = self.binding.wrap_reply(
                        self.binding.decap(emitted[0][1]))
                except ReproError:
                    detail = dict(detail or (), reason="undecodable_reply")
                except Exception:
                    self._internal_error()
                    detail = dict(detail or (), reason="internal_error")
            # Accounted before it is sent: a client holding its reply
            # finds it in the report.
            report.complete(index, t_arr, t_disp, t_done, busy_share,
                            0 if wire is None else 1, detail=detail)
            if wire is None:
                continue
            try:
                reply(wire)
            except Exception:
                self.peer_gone += 1              # the reply is lost

    def _send_group(self, frames):
        """The batched fast path, with a per-frame fallback so one
        poisoned frame can never take a whole batch down."""
        dep = self.deployment
        try:
            return dep.send_batch(frames)
        except ReproError:
            results = []
            for frame in frames:
                try:
                    results.append(dep.send(frame))
                except ReproError:
                    results.append(None)
            return results

    def _internal_error(self):
        """The bridge itself raised (call from the ``except``)."""
        self.internal_errors += 1
        if self.first_internal_error is None:
            self.first_internal_error = traceback.format_exc()

    def _drop(self, t_arr, reason):
        """A payload refused before dispatch: it waited, it got no
        service."""
        now = self._now_ns()
        self._report.complete(0, t_arr, now, now, 0, 0,
                              detail={"reason": reason})

    # -- transports ----------------------------------------------------------

    def _udp_ready(self):
        """Ingest a bounded burst of datagrams per readiness wakeup;
        one datagram = one request payload."""
        sock = self._udp_sock
        if sock is None:
            return
        for _ in range(max(self.batch, 64)):
            try:
                data, addr = sock.recvfrom(65535)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                break                # closing; ICMP from dead clients
            self._enqueue(data, lambda wire, addr=addr:
                          sock.sendto(wire, addr))

    async def _serve_stream(self, reader, writer):
        decoder = self.binding.frame_decoder()

        def reply(wire):
            writer.write(wire)

        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    payloads = decoder.feed(data)
                except ReproError:
                    # Poisoned stream: a refused payload; drop the peer.
                    self._report.offered += 1
                    self._report.admitted += 1
                    self._drop(self._now_ns(), "malformed")
                    break
                for payload in payloads:
                    self._enqueue(payload, reply)
        finally:
            # The peer may half-close after its last request; answer
            # everything already admitted before dropping the writer.
            while self._pending:
                self._drain()
            try:
                await writer.drain()
                writer.close()
            except Exception:
                self.peer_gone += 1

    async def _sampler(self):
        series = self.series
        period_s = max(series.window_ns / 1e9, 0.001)
        while True:
            await asyncio.sleep(period_s)
            series.flush(self._now_ns(), self._report,
                         [len(self._pending)])

    def __repr__(self):
        state = "serving" if self._running else "stopped"
        return "<SocketServer %s/%s on %s:%s, %s>" % (
            self.deployment.spec.name, self.binding.transport,
            self.host, self.port, state)

