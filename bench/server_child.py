"""The served program, one process per round.

    python3 -m bench.server_child <workload>

Starts the workload's deployment behind an ephemeral loopback port,
prints ``ready <port>``, then answers one-word commands on stdin, one
line each on stdout:

* ``cpu``   — this process's CPU so far (user+sys, all threads), ns;
* ``rss``   — this process's peak resident set size, KiB;
* ``calib`` — duration of a fixed pure-Python loop, ns (a yardstick
  for comparing hosts, run while the server is idle);
* ``stats`` — ``<requests> <batches>`` the deployment has dispatched;
* ``quit``  — stop serving and exit.

End of input also exits, so a driver that dies never leaves a server.
"""

import resource
import sys
import time

from bench.workloads import WORKLOADS


def calibration_ns():
    start = time.perf_counter_ns()
    total = 0
    for index in range(20000):
        total += index * index % 7
    return time.perf_counter_ns() - start


def peak_rss_kib():
    """``VmHWM`` where there is a ``/proc``: ``ru_maxrss`` starts from
    the launching process's peak (the kernel carries it across
    ``exec``), so it would report the benchmark's memory, not the
    server's, whenever the benchmark is the larger."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    workload = WORKLOADS[argv[1]]
    dep = workload.deployment().start()
    server = dep.serve(transport=workload.transport)
    try:
        print("ready %d" % server.address[1], flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "cpu":
                answer = time.process_time_ns()
            elif command == "rss":
                answer = peak_rss_kib()
            elif command == "calib":
                answer = calibration_ns()
            elif command == "stats":
                answer = "%d %d" % (dep.metrics.requests,
                                    dep.metrics.batches)
            elif command == "quit":
                break
            else:
                answer = "unknown"
            print(answer, flush=True)
    finally:
        server.stop()
        dep.stop()


if __name__ == "__main__":
    main(sys.argv)
