"""Table 3: Emu switch vs NetFPGA reference vs P4FPGA (64-byte packets).

Reported per design: logic resources, memory resources, module latency
in cycles (measured by simulation, not asserted), and throughput in
Mpps at 64-byte packets.

Throughput model: the Emu and reference switches stream 256-bit words
at 200 MHz with initiation interval ≤ 2 cycles per 64 B packet — far
above line rate, so both saturate 4x10G (59.52 Mpps, the paper's
number).  P4FPGA runs its per-port parsers at an initiation interval of
~15 cycles/packet, giving min(line rate, 4 x 200 MHz / 15) ≈ 53 Mpps —
also the paper's number, from architecture rather than coincidence.
"""

from repro.baselines.p4fpga import P4FpgaSwitch
from repro.baselines.reference_switch import ReferenceSwitch
from repro.engine import compile_design
from repro.harness.report import render_table
from repro.rtl import estimate_resources
from repro.services.switch import build_emu_switch_core
from repro.targets.fpga import CLOCK_HZ, line_rate_pps

P4FPGA_PARSER_II_CYCLES = 15
NUM_PORTS = 4
EMU_CAM_INTERFACE_CYCLES = 2   # CAM match + result registration
PACKET_BYTES = 60   # 64 on the wire minus the 4-byte FCS


class SwitchComparison:
    """One Table 3 row."""

    def __init__(self, name, logic, memory, latency_cycles,
                 throughput_mpps, core_ii=None):
        self.name = name
        self.logic = logic
        self.memory = memory
        self.latency_cycles = latency_cycles
        self.throughput_mpps = throughput_mpps
        #: The compiled kernel's -O3 initiation interval (None for
        #: non-Emu rows and for levels/kernels that do not pipeline).
        self.core_ii = core_ii

    def row(self):
        latency = "%d cycles" % self.latency_cycles
        if self.core_ii is not None:
            latency += " (II=%d)" % self.core_ii
        return [self.name, self.logic, self.memory, latency,
                "%.2f" % self.throughput_mpps]


def _streaming_throughput_mpps(ii_cycles):
    per_port = min(CLOCK_HZ / ii_cycles, line_rate_pps(PACKET_BYTES))
    return NUM_PORTS * per_port / 1e6


def measure_emu_switch(opt_level=None):
    """Compile + simulate the Emu switch core; returns a row.

    The default (``None``) pins ``-O0`` so the baseline row keeps
    reproducing the seed compiler's Table 3 figures; pass an explicit
    level for an optimized row (latency is measured on whatever machine
    that level emits, so the rows are comparable).

    Module latency is measured on the compiled execution engine
    (cycle-identical to the netlist simulator by the engine's
    differential proof).
    """
    design, top = build_emu_switch_core(
        opt_level=0 if opt_level is None else opt_level)
    report = estimate_resources(top)
    # Measured module latency: run the kernel FSM on one packet and
    # add the CAM interface cycles plus the output registration cycle.
    probe = {"src_port": 2, "dst_hit": 0, "dst_port": 0, "src_hit": 0}
    _, cycles, _ = compile_design(design).run(**probe)
    latency = cycles + EMU_CAM_INTERFACE_CYCLES + 1
    name = "Emu (C#)" if opt_level is None else "Emu (C#) -O%d" % opt_level
    return SwitchComparison(
        name, report.logic, report.memory, latency,
        _streaming_throughput_mpps(ii_cycles=2),
        core_ii=design.timing.achieved_ii), report


def measure_reference_switch():
    """Simulate the reference pipeline; returns a row."""
    switch = ReferenceSwitch()
    _, latency = switch.decide(0x111111111111, 0x222222222222, 1)
    report = estimate_resources(switch.module)
    return SwitchComparison(
        "NetFPGA reference (Verilog)", report.logic, report.memory,
        latency, _streaming_throughput_mpps(ii_cycles=2)), report


def measure_p4fpga_switch():
    """Simulate the P4FPGA pipeline; returns a row."""
    switch = P4FpgaSwitch()
    _, latency = switch.decide(0x111111111111, 0x222222222222, 1)
    report = estimate_resources(switch.module)
    return SwitchComparison(
        "P4FPGA (P4)", report.logic, report.memory, latency,
        _streaming_throughput_mpps(P4FPGA_PARSER_II_CYCLES)), report


def run_table3(include_optimized=False):
    """Run all three designs; returns (rows, reports, rendered text).

    With *include_optimized* two rows are added: the Emu switch
    compiled at ``-O2`` and at ``-O3``, so the table shows optimized
    vs. unoptimized module latency side by side, with the ``-O3``
    row's latency cell carrying the kernel's initiation interval when
    its pipelining schedule is feasible (the fused switch kernel
    closes in one state, so it already accepts a packet per cycle and
    the analysis reports it cannot be overlapped further).
    """
    emu, emu_report = measure_emu_switch()
    ref, ref_report = measure_reference_switch()
    p4, p4_report = measure_p4fpga_switch()
    rows = [emu, ref, p4]
    if include_optimized:
        emu_opt3, _ = measure_emu_switch(opt_level=3)
        emu_opt, _ = measure_emu_switch(opt_level=2)
        rows.insert(1, emu_opt3)
        rows.insert(1, emu_opt)
    text = render_table(
        ["Design", "Logic resources", "Memory resources",
         "Module latency", "Throughput (Mpps)"],
        [r.row() for r in rows],
        title="Table 3: switch comparison (64-byte packets, "
              "256-entry tables)")
    reports = {"emu": emu_report, "reference": ref_report,
               "p4fpga": p4_report}
    return rows, reports, text


def cam_fraction_of_emu(reports):
    """The paper: ~85% of the Emu switch's resources are the CAM."""
    emu = reports["emu"]
    cam_luts = 0.0
    for category in ("cam_ip",):
        entry = emu.breakdown.get(category)
        if entry:
            cam_luts += entry["luts"]
    if not cam_luts:
        # CAM cost comes from the instantiated netlist: estimate it
        # directly for the fraction.
        from repro.ip.cam import BinaryCAM
        cam = BinaryCAM(48, 8, 256)
        cam_luts = estimate_resources(cam.build_netlist()).logic
    return cam_luts / max(1.0, emu.logic)
