"""The asyncio serving front-end: any started deployment behind a
real loopback socket.

    dep = deploy("memcached").on("cluster", shards=4).start()
    server = SocketServer(dep).start()       # or dep.serve(host, port)
    host, port = server.address
    ... real clients send datagrams / streams ...
    server.stop()
    print(server.report.text())

One asyncio event loop runs in a background thread.  Served requests
enter the simulated open loop's runtime
(:func:`repro.engine.openloop.runtime`) on the wall clock: a decoded
payload is encapsulated, routed once and handed to ``arrive``, which
samples its server's queue and tail-drops or admits it (capacity and
queue statistics are per server, as in a simulated run).  A drain
tick runs each server's requests on that route, at most ``batch`` per
dispatch, and answers them in arrival order: replies on one stream
keep their order across shards.  A UDP readiness burst is drained in
the callback that read it.

A payload refused before a queue is a counted service drop naming its
reason on its trace row: ``oversized``, ``malformed`` (a codec raised
a :class:`~repro.errors.ReproError`; a stream peer also loses its
connection) or ``internal_error`` (any other exception, the server's
own bug, also on :attr:`SocketServer.internal_errors`).  So are a
request no server owns (``unroutable``), one whose execution raised
(``internal_error`` unless it was a ``ReproError``; the rest of its
group and of the tick are still answered) and a reply the codecs
reject (``undecodable_reply``).  Nothing raises out of the loop or
wedges it; a reply lost to a vanished peer counts on
:attr:`SocketServer.peer_gone`.  Traces, time-series windows and SLO
alerts are the simulated run's, in wall-clock nanoseconds.
"""

import asyncio
import contextlib
import socket
import threading
import time
import traceback

from repro.engine.batch import LANES
from repro.engine.openloop import (
    OpenLoopReport, check_capacity, drain, runtime,
)
from repro.errors import ReproError, ServeError
from repro.serve.spec import resolve_binding

#: Ingest bound per server (default *capacity*) on requests waiting
#: for a drain tick: tail-drop above it, like the model's queues.
DEFAULT_CAPACITY = 4096

#: The outcome of a request whose execution was the server's own bug.
_FAULT = ((), 0, 0, 0)


class SocketServer:
    """Bridge real sockets into a started deployment."""

    def __init__(self, deployment, host="127.0.0.1", port=0,
                 transport=None, series=None, capacity=None, batch=LANES):
        if deployment.backend is None:
            raise ServeError("deployment is not started "
                             "(call .start() before serving)")
        self.deployment = deployment
        self.binding = resolve_binding(deployment.spec, transport)
        self.host, self.port = host, int(port)
        self.capacity = check_capacity(
            DEFAULT_CAPACITY if capacity is None else int(capacity))
        self.batch = max(1, int(batch))
        self.series = series
        #: Exceptions out of the bridge that were not a ``ReproError``,
        #: and the first one's traceback (``None``: there was none).
        self.internal_errors, self.first_internal_error = 0, None
        #: Replies and stream closes lost because the peer went away.
        self.peer_gone = 0
        count, self._route = deployment.backend.open_loop_servers()
        self._report = OpenLoopReport(None, 0, count, deployment.tracer)
        self._t0_ns = self._arrive = self._loop = self._thread = None
        self._udp_sock = self._tcp_server = self._sampler_task = None
        self._waiting, self._seq = [], 0
        self._tick_due = self._running = False

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Bind the socket (port 0 = ephemeral) and begin serving;
        returns ``self`` with :attr:`address` resolved."""
        if self._running:
            raise ServeError("server is already running")
        self._t0_ns = time.monotonic_ns()
        # The server is the runtime's clock, and its executor runs at
        # dequeue: a woken server's request waits for the next tick.
        self._arrive, self._waiting, _ = runtime(
            self._report, self.capacity, self,
            lambda index, item: self._waiting[index].append(item),
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
            # Raw and non-blocking, not a DatagramProtocol (one
            # datagram per loop iteration); the deep kernel buffer is
            # the real ingress queue for open-loop bursts.
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            with contextlib.suppress(OSError):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
            sock.setblocking(False)
            sock.bind((self.host, self.port))
            self._udp_sock = sock
            self.host, self.port = sock.getsockname()[:2]
            loop.add_reader(sock.fileno(), self._udp_ready)
        else:
            server = await asyncio.start_server(
                self._serve_stream, self.host, self.port)
            self._tcp_server = server
            self.host, self.port = server.sockets[0].getsockname()[:2]
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
        self._report.duration_ns = final_ns = max(1, self.now_ns)
        if self.series is not None:
            self.series.finish(final_ns, self._report,
                               [len(queue) for queue in self._waiting])
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
        self._drain()

    def _shutdown_loop(self):
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        self._loop = self._thread = None

    @property
    def address(self):
        """The bound ``(host, port)``."""
        return self.host, self.port

    @property
    def report(self):
        """The live :class:`~repro.engine.openloop.OpenLoopReport`."""
        if self._running:
            self._report.duration_ns = max(1, self.now_ns)
        return self._report

    @property
    def now_ns(self):
        """Monotonic nanoseconds since :meth:`start`."""
        return time.monotonic_ns() - self._t0_ns

    # -- ingest and drain (event-loop thread only) ---------------------------

    def _ingest(self, payload, reply):
        """Hand one payload, encapsulated, to ``arrive`` on its route
        or refuse it; ``reply(wire_bytes)`` sends its answer."""
        if len(payload) > self.binding.max_payload:
            return self._refuse(self.now_ns, "oversized")
        seq = self._seq
        try:
            frame = self.binding.encap(payload, seq)
            self._seq += 1
            index = self._route(frame)
        except ReproError:
            return self._refuse(self.now_ns, "malformed")
        except Exception:
            self._internal_error()
            return self._refuse(self.now_ns, "internal_error")
        if index is None:                # no server owns it
            return self._refuse(self.now_ns, "unroutable")
        self._arrive(frame, index, (seq, reply))

    def _enqueue(self, payload, reply):
        """:meth:`_ingest`, with a drain tick to follow."""
        self._ingest(payload, reply)
        if not self._tick_due:
            self._tick_due = True
            self._loop.call_soon(self._drain)

    def _drain(self):
        """One tick: every waiting request runs on its route, then is
        accounted (so a client holding its reply finds it in the
        report) and answered, in arrival order."""
        self._tick_due = False
        done = drain(self._waiting, self.batch, self, self._execute,
                     self._internal_error)
        if len(self._waiting) > 1:
            done.sort(key=lambda entry: entry[0][3][0])
        binding = self.binding
        for (arrival_ns, _, detail, (_, reply)), outcome, \
                (index, t_disp, t_done, busy_ns) in done:
            wire = None
            if outcome is _FAULT:
                detail = dict(detail or (), reason="internal_error")
            elif outcome is not None and outcome[0]:
                try:
                    wire = binding.wrap_reply(
                        binding.decap(outcome[0][0][1]))
                except ReproError:
                    detail = dict(detail or (), reason="undecodable_reply")
                except Exception:
                    self._internal_error()
                    detail = dict(detail or (), reason="internal_error")
            self._report.complete(index, arrival_ns, t_disp, t_done,
                                  busy_ns, 0 if wire is None else 1,
                                  detail=detail)
            if wire is not None:
                try:
                    reply(wire)
                except Exception:
                    self.peer_gone += 1          # the reply is lost

    def _execute(self, index, frames):
        """One server's group on its route; the deployment's metrics
        count each request and the group."""
        metrics = self.deployment.metrics
        outcomes = self.deployment.backend.send_routed(frames, index)
        for emitted, latency_ns, core_cycles, _ in outcomes:
            metrics.record(emitted, latency_ns, core_cycles)
        metrics.record_batch()
        return outcomes

    def _internal_error(self):
        """The bridge itself raised (call from the ``except``); returns
        the outcome of a request whose execution did."""
        self.internal_errors += 1
        if self.first_internal_error is None:
            self.first_internal_error = traceback.format_exc()
        return _FAULT

    def _refuse(self, arrival_ns, reason):
        """Offered, admitted and completed with no service."""
        report = self._report
        report.offered += 1
        report.admitted += 1
        now = self.now_ns
        report.complete(0, arrival_ns, now, now, 0, 0,
                        detail={"reason": reason})

    # -- transports ----------------------------------------------------------

    def _udp_ready(self):
        """Ingest a bounded burst of datagrams (one payload each) per
        readiness wakeup, and drain it before the loop waits again."""
        sock = self._udp_sock
        if sock is None:
            return
        for _ in range(max(self.batch, 64)):
            try:
                data, addr = sock.recvfrom(65535)
            except OSError:
                break      # drained (EAGAIN), closing, or ICMP noise
            self._ingest(data, lambda wire, addr=addr:
                         sock.sendto(wire, addr))
        self._drain()

    async def _serve_stream(self, reader, writer):
        decoder = self.binding.frame_decoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    payloads = decoder.feed(data)
                except ReproError:
                    # Poisoned stream: a refused payload; drop the peer.
                    self._refuse(self.now_ns, "malformed")
                    break
                for payload in payloads:
                    self._enqueue(payload, writer.write)
        finally:
            # The peer may half-close after its last request; answer
            # everything already admitted before dropping the writer.
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
            series.flush(self.now_ns, self._report,
                         [len(queue) for queue in self._waiting])

    def __repr__(self):
        state = "serving" if self._running else "stopped"
        return "<SocketServer %s/%s on %s:%s, %s>" % (
            self.deployment.spec.name, self.binding.transport,
            self.host, self.port, state)
