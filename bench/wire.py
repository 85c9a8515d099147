"""The socket phases: one generator process, one socket, loopback only.

A *round* launches a fresh server process, times its cold start up to
the first verified reply, warms it with the first tenth of the stream,
then runs the capacity slices (closed loop, 32 outstanding) and the
rtt slices (closed loop, 1 outstanding).  Every reply is compared
byte-for-byte with the oracle's; every wait has a deadline, and a
reply that does not come is counted as failed and not waited for
again.  The server is always reaped: ``quit`` first, ``kill`` on any
exception or deadline.
"""

import os
import select
import socket
import subprocess
import sys
import time

from bench.estimator import percentile
from bench.workloads import CAPACITY_N, OUTSTANDING, RTT_N, SLICES, \
    warmup_n

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPLY_DEADLINE_S = 2.0
CONTROL_DEADLINE_S = 20.0


def pin_to_one_cpu():
    """Pin this process (and the servers it launches, which inherit
    the mask) to the highest CPU it may use: generator and server on
    one CPU wake each other without a cross-CPU interrupt, which on a
    2-vCPU guest is the largest single source of jitter.  Returns the
    CPU id, or None where the platform has no affinity call."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Server:
    """A ``bench.server_child`` process and its control pipe."""

    def __init__(self, workload_name):
        env = dict(os.environ, PYTHONHASHSEED="0",
                   PYTHONPATH=os.pathsep.join(
                       [ROOT, os.path.join(ROOT, "src")]))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "bench.server_child", workload_name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=ROOT, bufsize=0)
        self._buffer = b""

    def _readline(self):
        deadline = time.monotonic() + CONTROL_DEADLINE_S
        fd = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or \
                    not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError("server did not answer in %.0f s"
                                   % CONTROL_DEADLINE_S)
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited (code %s)"
                                   % self.process.wait())
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("ascii")

    def port(self):
        word, port = self._readline().split()
        if word != "ready":
            raise RuntimeError("server said %r, not ready" % word)
        return int(port)

    def ask(self, command):
        self.process.stdin.write(command.encode("ascii") + b"\n")
        return self._readline()

    def close(self):
        """Ask the server to quit; kill it if it does not."""
        process = self.process
        try:
            if process.poll() is None:
                process.stdin.write(b"quit\n")
                process.stdin.close()
                process.wait(timeout=CONTROL_DEADLINE_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            if not process.stdin.closed:
                process.stdin.close()


class UdpClient:
    def __init__(self, port):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.settimeout(REPLY_DEADLINE_S)
        self.sock.connect(("127.0.0.1", port))
        self.send = self.sock.send

    def recv(self):
        """One reply datagram, or None at the deadline or when the
        port refuses."""
        try:
            return self.sock.recv(65535)
        except OSError:
            return None

    def close(self):
        self.sock.close()


class TcpClient:
    """Length-prefixed messages over one connection; a reply is
    returned with its prefix, as it was on the wire."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REPLY_DEADLINE_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.send = self.sock.sendall
        self._buffer = b""

    def recv(self):
        buffer = self._buffer
        try:
            while len(buffer) < 2 or \
                    len(buffer) < 2 + int.from_bytes(buffer[:2], "big"):
                chunk = self.sock.recv(65536)
                if not chunk:
                    return None
                buffer += chunk
        except OSError:
            return None
        end = 2 + int.from_bytes(buffer[:2], "big")
        self._buffer = buffer[end:]
        return buffer[:end]

    def close(self):
        self.sock.close()


def closed_loop(client, stream, start, stop, window):
    """Send requests [start, stop) keeping *window* outstanding;
    returns ``(verified, failed)``.

    Replies are matched in order.  A reply that answers a later
    outstanding request means the ones before it were lost; a reply
    that answers none is a mismatch charged to the oldest; at a
    deadline everything outstanding is lost.
    """
    send, recv = client.send, client.recv
    wire, replies = stream.wire, stream.replies
    verified = failed = 0
    oldest = sent = start
    while oldest < stop:
        while sent < stop and sent - oldest < window:
            send(wire[sent])
            sent += 1
        reply = recv()
        if reply is None:
            failed += sent - oldest
            oldest = sent
        elif reply == replies[oldest]:
            verified += 1
            oldest += 1
        else:
            match = oldest + 1
            while match < sent and reply != replies[match]:
                match += 1
            if match < sent:
                failed += match - oldest
                verified += 1
                oldest = match + 1
            else:
                failed += 1
                oldest += 1
    return verified, failed


def ping_pong(client, stream, start, stop):
    """One request at a time; returns ``(round_trips_ns, failed)``
    with a round trip per verified reply, send to verified."""
    send, recv = client.send, client.recv
    wire, replies = stream.wire, stream.replies
    clock = time.perf_counter_ns
    round_trips = []
    failed = 0
    for index in range(start, stop):
        begin = clock()
        send(wire[index])
        reply = recv()
        elapsed = clock() - begin
        if reply == replies[index]:
            round_trips.append(elapsed)
        else:
            failed += 1
    return round_trips, failed


class Round:
    """What one round measured; per-slice lists are index-aligned
    across rounds."""

    def __init__(self):
        self.setup_s = None
        self.attempted = 0
        self.failed = 0
        self.capacity_wall_us = []       # per verified reply
        self.capacity_server_cpu_us = []
        self.capacity_driver_cpu_us = []
        self.rtt_p50_us = []
        self.rtt_p95_us = []
        self.rtt_server_cpu_us = []
        self.calib_ms = []
        self.peak_rss_mb = None
        self.batch_mean = None


def cold_start(workload, stream):
    """Launch a server and get request 0 answered; returns
    ``(server, client, seconds, failed)`` — seconds from just before
    the interpreter is launched to the first verified reply."""
    begin = time.perf_counter()
    server = Server(workload.name)
    try:
        port = server.port()
        client = (TcpClient if workload.transport == "tcp"
                  else UdpClient)(port)
        try:
            _, failed = closed_loop(client, stream, 0, 1, 1)
        except BaseException:
            client.close()
            raise
    except BaseException:
        server.close()
        raise
    return server, client, time.perf_counter() - begin, failed


def run_round(workload, stream, slices=SLICES):
    """One fresh server through warm-up, capacity and rtt phases."""
    result = Round()
    server, client, result.setup_s, failed = cold_start(workload, stream)
    result.attempted, result.failed = 1, failed
    cpu_clock = time.process_time_ns
    wall_clock = time.perf_counter_ns
    try:
        position = warmup_n(slices)
        verified, failed = closed_loop(client, stream, 1, position,
                                       OUTSTANDING)
        result.attempted += position - 1
        result.failed += failed

        for _ in range(slices):
            stop = position + CAPACITY_N
            server_cpu = int(server.ask("cpu"))
            driver_cpu, wall = cpu_clock(), wall_clock()
            verified, failed = closed_loop(client, stream, position,
                                           stop, OUTSTANDING)
            wall = wall_clock() - wall
            driver_cpu = cpu_clock() - driver_cpu
            server_cpu = int(server.ask("cpu")) - server_cpu
            done = max(verified, 1)
            result.capacity_wall_us.append(wall / 1e3 / done)
            result.capacity_server_cpu_us.append(server_cpu / 1e3 / done)
            result.capacity_driver_cpu_us.append(driver_cpu / 1e3 / done)
            result.calib_ms.append(int(server.ask("calib")) / 1e6)
            result.attempted += stop - position
            result.failed += failed
            position = stop
        requests, batches = server.ask("stats").split()
        result.batch_mean = int(requests) / max(int(batches), 1)
        result.peak_rss_mb = int(server.ask("rss")) / 1024.0

        for _ in range(slices):
            stop = position + RTT_N
            server_cpu = int(server.ask("cpu"))
            round_trips, failed = ping_pong(client, stream, position, stop)
            server_cpu = int(server.ask("cpu")) - server_cpu
            if round_trips:
                result.rtt_p50_us.append(
                    percentile(round_trips, 0.50) / 1e3)
                result.rtt_p95_us.append(
                    percentile(round_trips, 0.95) / 1e3)
                result.rtt_server_cpu_us.append(
                    server_cpu / 1e3 / len(round_trips))
            result.attempted += stop - position
            result.failed += failed
            position = stop
    finally:
        client.close()
        server.close()
    return result


def setup_only(workload, stream):
    """A cold start and nothing else; returns ``(seconds, failed)``."""
    server, client, seconds, failed = cold_start(workload, stream)
    client.close()
    server.close()
    return seconds, failed
