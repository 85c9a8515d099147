"""uptest-style external load generator for served deployments.

    python -m repro.serve.loadgen --service memcached \\
        --host 127.0.0.1 --port 11211 --qps 2000 --duration 2 \\
        --tsv /tmp/loadgen.tsv --json /tmp/loadgen.json

Runs in its own process against a :class:`~repro.serve.server.
SocketServer` (or any real server speaking the service's protocol),
stdlib sockets only.  Each probe comes from the service binding's
oracle: a hash-tagged request whose *exact* reply bytes are known in
advance, so verification is byte-for-byte — a cache cannot answer (the
tags are new every run) and an intercepting middlebox that rewrites
replies is caught (uptest's marco/polo semantics).  Exit codes follow
the same scheme:

* ``0``  — every reply arrived and verified;
* ``7``  — the server was unreachable (nothing verified at all);
* ``13`` — replies went missing (possible blackholing / overload);
* ``17`` — replies arrived but failed byte-for-byte verification
  (tampering / interception / wrong service behind the port).

Artifacts: a latency TSV (one row per probe + a ``#``-prefixed summary
footer carrying ``verify_failures`` et al.) and an
:class:`~repro.engine.openloop.OpenLoopReport`-shaped JSON, so
socket-driven runs land in the same analysis pipelines as simulated
open-loop runs.  Both modes are supported: closed loop (one
outstanding request, RTT latency) and open loop (seeded poisson /
uniform arrivals independent of completions).
"""

import argparse
import json
import random
import selectors
import socket
import sys
import time
from collections import deque

from repro.obs.metrics import interpolate_percentile

FAILURE_EXIT_CODE = 7            # could not reach the server at all
LOSS_EXIT_CODE = 13              # replies went missing
INTERCEPTION_EXIT_CODE = 17      # replies failed verification

TSV_HEADER = "seq\tt_send_ms\tlatency_ms\tstatus\tdetail"
STATUSES = ("ok", "verify_fail", "lost", "error")

#: OpenLoopReport.snapshot() keys the JSON artifact must carry (the
#: validator checks them; keep in sync with the README shape section).
REPORT_KEYS = (
    "process", "offered_qps", "achieved_qps", "offered", "admitted",
    "completed", "replies", "queue_drops", "service_drops",
    "drop_rate", "p50_latency_us", "p99_latency_us", "p999_latency_us",
    "avg_latency_us", "max_queue_depth", "mean_queue_depth", "servers",
)


class LoadGenConfig:
    """Everything one run needs (see the CLI flags of the same names)."""

    def __init__(self, service, host, port, transport=None,
                 mode="open", process="poisson", qps=1000.0,
                 duration_s=1.0, requests=100, seed=7, timeout_s=2.0):
        self.service = service
        self.host = host
        self.port = int(port)
        self.transport = transport
        self.mode = mode
        self.process = process
        self.qps = float(qps)
        self.duration_s = float(duration_s)
        self.requests = int(requests)
        self.seed = seed
        self.timeout_s = float(timeout_s)


class LoadGenResult:
    """Counters + per-probe records + derived artifacts."""

    def __init__(self, config, binding):
        self.config = config
        self.transport = binding.transport
        self.records = []        # [t_send_ns, latency_ns, status, detail]
        self.sent = 0
        self.ok = 0
        self.verify_failures = 0
        self.lost = 0
        self.connect_failures = 0
        self.elapsed_ns = 1
        self.last_reply_ns = None        # run-relative; excludes linger

    # -- verdict -------------------------------------------------------------

    @property
    def exit_code(self):
        if self.ok == 0 and self.connect_failures:
            return FAILURE_EXIT_CODE
        if self.verify_failures:
            return INTERCEPTION_EXIT_CODE
        if self.lost or self.connect_failures:
            return LOSS_EXIT_CODE
        return 0

    @property
    def active_ns(self):
        """The span replies actually arrived in — the throughput
        denominator (the post-run linger window waiting on losses
        would otherwise deflate achieved_qps)."""
        if self.last_reply_ns:
            return self.last_reply_ns
        return self.elapsed_ns

    @property
    def latencies_ns(self):
        return [record[1] for record in self.records
                if record[2] == "ok"]

    # -- artifacts -----------------------------------------------------------

    def to_tsv(self):
        lines = [TSV_HEADER]
        for seq, (t_send, latency, status, detail) in \
                enumerate(self.records):
            lines.append("%d\t%.3f\t%s\t%s\t%s" % (
                seq, t_send / 1e6,
                "n/a" if latency is None else "%.3f" % (latency / 1e6),
                status, detail or "-"))
        for key, value in self.summary().items():
            lines.append("# %s\t%s" % (key, value))
        return "\n".join(lines) + "\n"

    def summary(self):
        return {
            "service": self.config.service,
            "transport": self.transport,
            "mode": self.config.mode,
            "sent": self.sent,
            "ok": self.ok,
            "verify_failures": self.verify_failures,
            "lost": self.lost,
            "connect_failures": self.connect_failures,
            "exit_code": self.exit_code,
        }

    def report(self):
        """The OpenLoopReport-shaped dict (plus the verification
        extras under unambiguous keys)."""
        latencies = sorted(self.latencies_ns)
        replies = self.ok + self.verify_failures
        out = {
            "process": "loadgen-%s" % self.config.mode,
            "offered_qps": self.sent * 1e9 / self.elapsed_ns,
            "achieved_qps": self.ok * 1e9 / self.active_ns,
            "offered": self.sent,
            "admitted": self.sent,
            "completed": replies + self.lost,
            "replies": replies,
            "queue_drops": 0,
            "service_drops": self.lost,
            "drop_rate": (self.lost / self.sent) if self.sent else 0.0,
            "p50_latency_us": _percentile_us(latencies, 0.50),
            "p99_latency_us": _percentile_us(latencies, 0.99),
            "p999_latency_us": _percentile_us(latencies, 0.999),
            "avg_latency_us": (sum(latencies) / len(latencies) / 1e3)
            if latencies else None,
            "max_queue_depth": 0,
            "mean_queue_depth": 0.0,
            "servers": 1,
        }
        out.update({"verify_failures": self.verify_failures,
                    "lost": self.lost,
                    "connect_failures": self.connect_failures,
                    "exit_code": self.exit_code,
                    "service": self.config.service,
                    "transport": self.transport,
                    "target": "%s:%d" % (self.config.host,
                                         self.config.port)})
        return out

    def text(self):
        latencies = sorted(self.latencies_ns)
        lines = [
            "loadgen: %s/%s against %s:%d (%s loop)"
            % (self.config.service, self.transport, self.config.host,
               self.config.port, self.config.mode),
            "sent=%d ok=%d verify_failures=%d lost=%d "
            "connect_failures=%d"
            % (self.sent, self.ok, self.verify_failures, self.lost,
               self.connect_failures),
            "achieved_qps=%.1f p50=%s p99=%s"
            % (self.ok * 1e9 / self.active_ns,
               _fmt_us(_percentile_us(latencies, 0.50)),
               _fmt_us(_percentile_us(latencies, 0.99))),
            "exit=%d (%s)" % (self.exit_code, {
                0: "verified", FAILURE_EXIT_CODE: "unreachable",
                LOSS_EXIT_CODE: "replies lost",
                INTERCEPTION_EXIT_CODE: "verification failed",
            }[self.exit_code]),
        ]
        return "\n".join(lines)


def _percentile_us(sorted_ns, fraction):
    value = interpolate_percentile(sorted_ns, fraction)
    return None if value is None else value / 1e3


def _fmt_us(value):
    return "n/a" if value is None else "%.1fus" % value


def _arrival_times_ns(config):
    """Seeded open-loop send schedule (ns offsets from run start)."""
    rng = random.Random("%s/loadgen/%s" % (config.seed, config.process))
    gap_ns = 1e9 / config.qps
    horizon = config.duration_s * 1e9
    times, now = [], 0.0
    while True:
        if config.process == "poisson":
            now += rng.expovariate(1.0) * gap_ns
        else:
            now += gap_ns
        if now >= horizon:
            return times
        times.append(int(now))


def run_loadgen(config, binding=None):
    """Drive one configured run; returns a :class:`LoadGenResult`.

    *binding* defaults to the registry service's transport binding —
    injectable so tests can aim a binding at a hostile server.
    """
    if binding is None:
        from repro.serve.spec import resolve_binding
        from repro.services.catalog import registry
        specs = registry()
        if config.service not in specs:
            raise SystemExit("unknown service %r (registry has: %s)"
                             % (config.service,
                                ", ".join(sorted(specs))))
        binding = resolve_binding(specs[config.service],
                                  config.transport)
    result = LoadGenResult(config, binding)
    t0 = time.perf_counter_ns()
    try:
        if binding.transport == "udp":
            _run_udp(config, binding, result, t0)
        else:
            _run_tcp(config, binding, result, t0)
    finally:
        result.elapsed_ns = max(1, time.perf_counter_ns() - t0)
    return result


def _probes(config, binding, count):
    out = []
    for seq in range(count):
        payload, expected = binding.probe(config.seed, seq)
        out.append((binding.wrap(payload),
                    bytes(binding.wrap_reply(expected))))
    return out


# -- UDP ---------------------------------------------------------------------

def _run_udp(config, binding, result, t0):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.connect((config.host, config.port))
    sock.setblocking(False)
    try:
        if config.mode == "closed":
            _udp_closed(config, binding, result, sock, t0)
        else:
            _udp_open(config, binding, result, sock, t0)
    finally:
        sock.close()


def _udp_closed(config, binding, result, sock, t0):
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    stale = set()                    # expected bytes of timed-out probes
    for wire, expected in _probes(config, binding, config.requests):
        t_send = time.perf_counter_ns() - t0
        try:
            sock.send(wire)
        except OSError:
            result.connect_failures += 1
            result.records.append([t_send, None, "error",
                                   "send failed"])
            result.sent += 1
            continue
        result.sent += 1
        deadline = time.perf_counter() + config.timeout_s
        record = [t_send, None, "lost", "-"]
        while time.perf_counter() < deadline:
            if not sel.select(timeout=deadline - time.perf_counter()):
                break
            try:
                data = sock.recv(65535)
            except ConnectionRefusedError:
                result.connect_failures += 1
                record = [t_send, None, "error", "connection refused"]
                break
            except BlockingIOError:
                continue
            if data == expected:
                latency = time.perf_counter_ns() - t0 - t_send
                record = [t_send, latency, "ok", "-"]
                result.ok += 1
                result.last_reply_ns = t_send + latency
                break
            if data in stale:
                continue             # late reply to a lost probe
            latency = time.perf_counter_ns() - t0 - t_send
            record = [t_send, latency, "verify_fail",
                      "reply mismatch (%d bytes)" % len(data)]
            result.verify_failures += 1
            break
        if record[2] == "lost":
            result.lost += 1
            stale.add(expected)
        result.records.append(record)
    sel.close()


def _udp_open(config, binding, result, sock, t0):
    times = _arrival_times_ns(config)
    probes = _probes(config, binding, len(times))
    result.records = [[None, None, "lost", "-"] for _ in probes]
    pending = {}                     # expected bytes -> deque of seq
    in_flight = 0
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    index = 0
    linger_ns = config.timeout_s * 1e9
    horizon_ns = config.duration_s * 1e9 + linger_ns
    while True:
        now = time.perf_counter_ns() - t0
        while index < len(times) and times[index] <= now:
            wire, expected = probes[index]
            t_send = time.perf_counter_ns() - t0
            result.records[index][0] = t_send
            try:
                sock.send(wire)
                pending.setdefault(expected, deque()).append(
                    (index, t_send))
                in_flight += 1
            except OSError:
                result.connect_failures += 1
                result.records[index][2:] = ["error", "send failed"]
            result.sent += 1
            index += 1
        if index >= len(times) and (not in_flight or now > horizon_ns):
            break
        wait = 0.002 if index >= len(times) else \
            max(0.0, (times[index] - now) / 1e9)
        if sel.select(timeout=min(wait, 0.002)):
            while True:
                try:
                    data = sock.recv(65535)
                except (BlockingIOError, InterruptedError):
                    break
                except ConnectionRefusedError:
                    result.connect_failures += 1
                    continue
                queue = pending.get(data)
                t_recv = time.perf_counter_ns() - t0
                if queue:
                    seq, t_send = queue.popleft()
                    if not queue:
                        del pending[data]
                    in_flight -= 1
                    result.records[seq][1] = t_recv - t_send
                    result.records[seq][2:] = ["ok", "-"]
                    result.ok += 1
                    result.last_reply_ns = t_recv
                else:
                    result.verify_failures += 1
                    # Attribute to the oldest unresolved probe.
                    seq = _oldest_pending(pending)
                    if seq is not None:
                        entry, t_send = seq
                        in_flight -= 1
                        result.records[entry][1] = t_recv - t_send
                        result.records[entry][2:] = [
                            "verify_fail",
                            "reply mismatch (%d bytes)" % len(data)]
    for queue in pending.values():
        for seq, _ in queue:
            result.lost += 1
            result.records[seq][2:] = ["lost", "no reply within %.1fs"
                                       % config.timeout_s]
    sel.close()


def _oldest_pending(pending):
    """Pop the oldest in-flight (seq, t_send) across all queues."""
    oldest_key, oldest = None, None
    for key, queue in pending.items():
        if queue and (oldest is None or queue[0][0] < oldest[0]):
            oldest_key, oldest = key, queue[0]
    if oldest_key is None:
        return None
    queue = pending[oldest_key]
    queue.popleft()
    if not queue:
        del pending[oldest_key]
    return oldest


# -- TCP ---------------------------------------------------------------------

def _run_tcp(config, binding, result, t0):
    count = config.requests if config.mode == "closed" else None
    times = None
    if config.mode == "open":
        times = _arrival_times_ns(config)
        count = len(times)
    probes = _probes(config, binding, count)
    result.records = [[None, None, "lost", "-"] for _ in probes]
    try:
        sock = socket.create_connection(
            (config.host, config.port), timeout=config.timeout_s)
    except OSError:
        result.connect_failures += 1
        result.records = []
        return
    sock.setblocking(False)
    sel = selectors.DefaultSelector()
    sel.register(sock, selectors.EVENT_READ)
    expected_queue = deque()         # (seq, t_send, expected wire)
    buffer = bytearray()
    poisoned = False

    def pump(deadline):
        """Absorb replies until *deadline* or the queue drains."""
        nonlocal poisoned
        while expected_queue and not poisoned:
            budget = deadline - time.perf_counter()
            if budget <= 0 or not sel.select(timeout=budget):
                return
            try:
                data = sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                poisoned = True
                return
            if not data:
                poisoned = True      # server closed mid-conversation
                return
            buffer.extend(data)
            while expected_queue and \
                    len(buffer) >= len(expected_queue[0][2]):
                seq, t_send, expected = expected_queue[0]
                got = bytes(buffer[:len(expected)])
                t_recv = time.perf_counter_ns() - t0
                if got == expected:
                    expected_queue.popleft()
                    del buffer[:len(expected)]
                    result.records[seq][1] = t_recv - t_send
                    result.records[seq][2:] = ["ok", "-"]
                    result.ok += 1
                    result.last_reply_ns = t_recv
                    result.last_reply_ns = t_recv
                else:
                    # Stream is misaligned; no resync is possible.
                    expected_queue.popleft()
                    result.records[seq][1] = t_recv - t_send
                    result.records[seq][2:] = [
                        "verify_fail", "stream mismatch at +%d"
                        % (t_recv // 1000000)]
                    result.verify_failures += 1
                    poisoned = True
                    break

    for seq, (wire, expected) in enumerate(probes):
        if poisoned:
            break
        if times is not None:
            while time.perf_counter_ns() - t0 < times[seq]:
                pump(time.perf_counter() + 0.0005)
        t_send = time.perf_counter_ns() - t0
        result.records[seq][0] = t_send
        try:
            sock.sendall(wire)
        except OSError:
            result.connect_failures += 1
            result.records[seq][2:] = ["error", "send failed"]
            result.sent += 1
            poisoned = True
            break
        result.sent += 1
        expected_queue.append((seq, t_send, expected))
        if config.mode == "closed":
            pump(time.perf_counter() + config.timeout_s)
    if not poisoned:
        pump(time.perf_counter() + config.timeout_s)
    for seq, _, _ in expected_queue:
        result.lost += 1
        result.records[seq][2:] = ["lost", "no reply within %.1fs"
                                   % config.timeout_s]
    sel.close()
    sock.close()
    result.records = result.records[:max(result.sent, 1) if result.sent
                                    else 0]


# -- CLI ---------------------------------------------------------------------

def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="External uptest-style load generator: hash-tagged "
                    "probes, byte-for-byte reply verification, latency "
                    "TSV + OpenLoopReport-shaped JSON.")
    parser.add_argument("--service", required=True,
                        help="registry service name (the oracle)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--transport", default=None,
                        choices=["udp", "tcp"],
                        help="default: the service's primary transport")
    parser.add_argument("--mode", default="open",
                        choices=["open", "closed"])
    parser.add_argument("--process", default="poisson",
                        choices=["poisson", "uniform"],
                        help="open-loop arrival process")
    parser.add_argument("--qps", type=float, default=1000.0,
                        help="open-loop offered rate")
    parser.add_argument("--duration", type=float, default=1.0,
                        help="open-loop run length in seconds")
    parser.add_argument("--requests", type=int, default=100,
                        help="closed-loop probe count")
    parser.add_argument("--seed", default="7")
    parser.add_argument("--timeout", type=float, default=2.0,
                        help="per-reply / linger timeout in seconds")
    parser.add_argument("--tsv", metavar="PATH", default=None,
                        help="write the latency TSV here")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report JSON here")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    config = LoadGenConfig(
        args.service, args.host, args.port, transport=args.transport,
        mode=args.mode, process=args.process, qps=args.qps,
        duration_s=args.duration, requests=args.requests,
        seed=args.seed, timeout_s=args.timeout)
    result = run_loadgen(config)
    if args.tsv:
        with open(args.tsv, "w") as handle:
            handle.write(result.to_tsv())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.report(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    print(result.text())
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
