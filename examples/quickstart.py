"""Quickstart: one service codebase, every target, one API.

The paper's Fig. 1 workflow on one service (the learning switch),
driven through `repro.deploy` — the same `deploy()` call runs the
service as a plain process, inside the NetFPGA pipeline model, or on
a simulated network:

    deploy("switch").on("cpu").start()       # develop/test/debug
    deploy("switch").on("fpga").start()      # cycle/latency model
    deploy("switch").on("netsim").start()    # the Mininet role

A1     write a network service against the Emu API,
A2-A4  deploy it on the CPU backend (software semantics),
B1     compile it with Kiwi to a netlist + Verilog,
B2     simulate the compiled design cycle-accurately,
C1-C2  deploy it on the FPGA backend and measure latency.

Run:  python examples/quickstart.py
"""

from repro.deploy import deploy
from repro.kiwi import compile_function
from repro.net.packet import int_to_mac
from repro.services.catalog import MAC_A, registry
from repro.services.switch import switch_kernel


def main():
    spec = registry()["switch"]
    frames = list(spec.workload(2))     # port 2 -> flood, port 0 -> learn

    print("=== A: develop and test on the CPU backend ===")
    cpu = deploy("switch").on("cpu").with_seed(1).start()
    emitted, _ = cpu.send(frames[0])
    print("unknown dst -> flooded to ports %s"
          % sorted(port for port, _ in emitted))
    emitted, _ = cpu.send(frames[1])
    print("learned %s -> forwarded only to port %s"
          % (int_to_mac(MAC_A), [port for port, _ in emitted]))

    print("\n=== B: compile with Kiwi (CIL -> RTL in the paper; "
          "Emu-Python -> netlist here) ===")
    design = compile_function(switch_kernel)
    print("FSM states: %d, timing: %r" % (design.state_count,
                                          design.timing))
    report = design.resources()
    print("kernel resources: logic=%d LUT-eq, %d FFs"
          % (report.logic, report.ffs))
    verilog = design.verilog()
    print("Verilog (first 4 lines):")
    for line in verilog.splitlines()[:4]:
        print("   ", line)

    print("\n=== B1b: the optimizing middle-end (-O0 vs -O2) ===")
    unopt = compile_function(switch_kernel, opt_level=0)
    opt = compile_function(switch_kernel, opt_level=2)
    print("before: %d FSM states, %d LUT-eq; after -O2: %d states, "
          "%d LUT-eq" % (unopt.state_count, unopt.resources().logic,
                         opt.state_count, opt.resources().logic))
    print("(run examples/optimize_service.py for the full per-service "
          "comparison and the differential-verification proof)")

    print("\n=== B2: cycle-accurate simulation of the compiled design ===")
    (ports, learn, _), latency, _ = design.run(
        src_port=2, dst_hit=0, dst_port=0, src_hit=0)
    print("miss -> out_ports=%s learn=%d, kernel latency %d cycles "
          "(+2 CAM +1 output = 8, the Table 3 figure)"
          % (bin(ports), learn, latency))

    print("\n=== C: deploy on the FPGA backend (NetFPGA pipeline "
          "model) ===")
    fpga = deploy("switch").on("fpga").with_seed(1).start()
    _, latency_ns = fpga.send(frames[0].copy())
    print("one frame through the 4x10G pipeline: %.0f ns DUT latency"
          % latency_ns)
    print("sustainable rate at 64 B: %.2f Mpps/port"
          % (fpga.max_qps(frames[0]) / 1e6))

    print("\n=== and the uniform metrics every backend fills ===")
    fpga.run(count=64)
    snapshot = fpga.stats()
    print("fpga backend: %(requests)d requests, %(replies)d replies, "
          "avg %(avg_latency_us).2f us" % snapshot)
    print(fpga.describe())


if __name__ == "__main__":
    main()
