"""Socket-serving overhead: what a served memcached deployment's
loopback socket adds per request to the same bridge work in-process.

The in-process baseline runs exactly the per-request work the serving
front-end does — ``encap(payload)`` → ``send_batch`` → ``decap`` — with
no sockets, no event loop, and no second process.  The socket number is
the external load generator's achieved (verified-replies) rate against
a real served UDP loopback socket.  The generator is its own process
(``python -m repro.serve.loadgen``, as its docstring says), and where
the platform can pin threads the server and the generator get
different CPUs: a generator inside this interpreter takes the lock the
serving thread needs, and what is read then is how CPython hands one
lock between two busy threads.  It offers the in-process rate measured
in the same test: the socket path cannot beat the bridge it wraps, so
that saturates it however fast the bridge gets, and at this run length
the backlog it builds still fits the server's socket buffer (further
above, replies are lost and the achieved rate dips).  With one CPU
only, both share it and the gate judges that.

The gate is the paired difference, ``added_us = 1e6/socket_rps -
1e6/inprocess_rps`` (best socket round, median in-process round): the
time per request the socket path adds on top of the bridge.  A ratio of
the two rates fell every time the bridge got faster with ``serve/``
untouched (0.86-0.97, then 0.59-0.99, then below 0.5 inside a full
tier-1 run), so it punished progress; the difference does not move
when only the bridge does.  It is judged in units of a fixed
pure-Python loop timed in this process (the benchmark's own yardstick,
``bench.server_child.calibration_ns``), so a host twice as slow gets
twice the microseconds.  The old ``ratio`` is still recorded, ungated.

Results land in ``BENCH_serve.json`` at the repo root; the CI serve
job uploads it without gating the merge (timing noise on shared
runners), while this test still gates locally.
"""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.deploy import deploy
from repro.serve.spec import resolve_binding

BENCH_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_serve.json"
if str(BENCH_PATH.parent) not in sys.path:       # ``bench`` lives there
    sys.path.insert(0, str(BENCH_PATH.parent))

from bench.server_child import calibration_ns               # noqa: E402

#: Ceiling on what the socket path adds per request, in calibration
#: loops (one loop is 1.2-2.5 ms on the host the readings below are
#: from, so 0.05 is 60-125 us there).  Ten stand-alone readings each:
#: 0.0001-0.0232 (+0.2 to +42 us) on the commit before the one-parse
#: reply, 0.0001-0.0169 (+0.1 to +23 us) on it, while the old ratio
#: read 0.43-1.00 on both; the ceiling is 2x the worst.
ADDED_CEILING = 0.05
ROUNDS = 3
REQUESTS = 1500
DURATION_S = 0.8
SEED = 0x5EBE


def _inprocess_rps(dep, binding, batch=64):
    """One timed pass of the bridge work without sockets."""
    payloads = [binding.probe(SEED, seq)[0]
                for seq in range(REQUESTS)]
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        replies = 0
        for base in range(0, len(payloads), batch):
            frames = [binding.encap(payload, base + offset)
                      for offset, payload in
                      enumerate(payloads[base:base + batch])]
            for emitted, _ in dep.send_batch(frames):
                if emitted:
                    binding.decap(emitted[0][1])
                    replies += 1
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    assert replies == REQUESTS
    return REQUESTS / elapsed


#: Exit codes of a generator run that measured something: all replies
#: verified, or some went missing (expected when offered > capacity).
_MEASURED = (0, 13)

#: ``python -m repro.serve.loadgen`` that first moves itself to the CPU
#: named by its first argument ("" = stay where the scheduler puts it).
_LOADGEN = ("import os, sys; "
            "sys.argv[1] and os.sched_setaffinity(0, {int(sys.argv[1])}); "
            "from repro.serve.loadgen import main; "
            "sys.exit(main(sys.argv[2:]))")


def _cpus():
    """``(all allowed, server's, generator's)`` CPUs, or three Nones
    where threads cannot be pinned."""
    if not hasattr(os, "sched_setaffinity"):
        return None, None, None
    allowed = sorted(os.sched_getaffinity(0))
    return allowed, allowed[0], allowed[-1]


def _socket_rps(dep, offered_qps, cpu, report_path):
    """One load-generator round against a freshly served loopback
    socket; *report_path* is this round's own file."""
    server = dep.serve()
    try:
        host, port = server.address
        done = subprocess.run(
            [sys.executable, "-c", _LOADGEN,
             "" if cpu is None else str(cpu),
             "--service", "memcached", "--host", host,
             "--port", str(port), "--qps", str(offered_qps),
             "--duration", str(DURATION_S), "--seed", str(SEED),
             "--timeout", "3.0", "--json", str(report_path)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            stdout=subprocess.DEVNULL, timeout=60)
    finally:
        server.stop()
    assert done.returncode in _MEASURED, done.returncode
    report = json.loads(report_path.read_text())
    assert report["verify_failures"] == 0
    assert report["replies"] > 0
    return report["achieved_qps"]


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def test_loadgen_keeps_half_of_in_process_throughput(bench_once, tmp_path):
    allowed, server_cpu, loadgen_cpu = _cpus()

    def measure():
        dep = None
        try:
            if allowed:
                # Threads started from here on (the serving loop)
                # inherit it.
                os.sched_setaffinity(0, {server_cpu})
            dep = deploy("memcached").on("cpu").start()
            binding = resolve_binding(dep.spec, "udp")
            inproc = [_inprocess_rps(dep, binding)
                      for _ in range(ROUNDS)]
            offered_qps = _median(inproc)
            sock = [_socket_rps(dep, offered_qps, loadgen_cpu,
                                tmp_path / ("loadgen%d.json" % number))
                    for number in range(ROUNDS)]
            calib_ns = min(calibration_ns() for _ in range(5))
        finally:
            if dep is not None:
                dep.stop()
            if allowed:
                os.sched_setaffinity(0, allowed)
        return inproc, offered_qps, sock, calib_ns

    inproc, offered_qps, sock, calib_ns = bench_once(measure)
    baseline = _median(inproc)
    best_socket = max(sock)
    added_us = 1e6 / best_socket - 1e6 / baseline
    added_calib = added_us * 1e3 / calib_ns
    record = {
        "service": "memcached",
        "transport": "udp",
        "rounds": ROUNDS,
        "requests": REQUESTS,
        "offered_qps": round(offered_qps, 1),
        "server_cpu": server_cpu,
        "loadgen_cpu": loadgen_cpu,
        "duration_s": DURATION_S,
        "inprocess_rps": round(baseline, 1),
        "inprocess_rounds": [round(value, 1) for value in inproc],
        "socket_rps": round(best_socket, 1),
        "socket_rounds": [round(value, 1) for value in sock],
        "added_us": round(added_us, 2),
        "calib_ms": round(calib_ns / 1e6, 4),
        "added_calib": round(added_calib, 5),
        "added_ceiling": ADDED_CEILING,
        "ratio": round(best_socket / baseline, 4),      # informational
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print("\nserve overhead: in-process %.0f rps, socket %.0f rps: "
          "+%.1f us/request = %.4f calibration loops of %.2f ms "
          "(ceiling %.3f)"
          % (baseline, best_socket, added_us, added_calib,
             calib_ns / 1e6, ADDED_CEILING))
    assert added_calib <= ADDED_CEILING, record
