"""The optimizing middle-end on a real service: Memcached.

1. compile the binary-protocol Memcached kernel at -O0, -O1 and -O2,
2. show what each pass did (states, registers, shared wires),
3. measure a warmed GET request on each design — the cycles-per-request
   number every Table 3/4 row multiplies,
4. check observational equivalence differentially: two legs of the
   one harness (``repro.verify``), the interpreter at -O0 and at -O2.

Run:  python examples/optimize_service.py
"""

from repro.harness.optimization import (
    SERVICE_KERNELS, memcached_binary_frame, run_opt_comparison,
)
from repro.kiwi import compile_function
from repro.net.packet import ip_to_int
from repro.services.memcached import memcached_kernel
from repro.verify import Interpreter, check, job_streams

SERVICE_IP = ip_to_int("10.0.0.1")


def main():
    print("=== compile Memcached at every level ===")
    designs = {level: compile_function(memcached_kernel, opt_level=level)
               for level in (0, 1, 2)}
    for level, design in designs.items():
        print("-O%d: %d states, max %d logic levels, %d LUT-eq"
              % (level, design.state_count,
                 design.timing.max_logic_levels,
                 design.resources().logic))
    print("\npass statistics at -O2:")
    for stats in designs[2].pass_stats:
        if stats.changed():
            print("  %r" % stats)

    print("\n=== a warmed GET request on each design ===")
    key, value = b"abc123", bytes(range(8))
    for level, design in designs.items():
        sim = design.simulator()
        design.run_on(sim,
                      memories={"frame": memcached_binary_frame(
                          1, key, value)},
                      my_ip=SERVICE_IP)
        (status,), cycles, _ = design.run_on(
            sim, memories={"frame": memcached_binary_frame(0, key)},
            my_ip=SERVICE_IP)
        print("-O%d: GET hit=%d in %d cycles" % (level, status, cycles))

    print("\n=== differential check (-O2 vs -O0) ===")
    # The case's stream is its representative GET, its warm-up SET and
    # crafted requests, mutated — the deep paths, not the header
    # rejects noise would stop at.
    case = next(case for case in SERVICE_KERNELS
                if case.kernel is memcached_kernel)
    report = check(case, [Interpreter(0), Interpreter(2)],
                   job_streams(case, 12, "optimize-service")).require()
    print(report)
    cycles = [counters["cycles"] for counters in report.legs.values()]
    print("simulated cycles: %d -> %d" % tuple(cycles))
    assert cycles[1] < 0.9 * cycles[0]

    print("\n=== every service kernel ===")
    _, text = run_opt_comparison()
    print(text)

    print("\n=== the same comparison through the Deployment API ===")
    from repro.harness.optimization import run_deployment_comparison
    _, text = run_deployment_comparison(count=120)
    print(text)
    print("(deploy(service).on('fpga').with_opt(level) threads the "
          "optimizer through the whole spine — any registry service, "
          "any backend)")


if __name__ == "__main__":
    main()
