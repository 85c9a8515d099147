"""Optimizing-compiler comparison: ``-O0`` vs ``-O1`` vs ``-O2`` vs
``-O3``.

For each service kernel this measures, per optimization level, the FSM
state count, the worst-case logic depth, the estimated logic resources,
and — the number everything else multiplies — the *simulated cycles for
one representative request* on the compiled netlist (stateful kernels
are warmed first, e.g. Memcached's GET is measured after a SET of the
same key).  At ``-O3`` the initiation interval joins the table: the
cycles/request column is unchanged (pipelining never touches
per-request latency), but the sustained interval between requests
drops to the II for kernels whose schedule is feasible.  Results
across levels are also cross-checked for equality, so the table cannot
silently report a speedup from a miscompile.

This is the harness behind the "Optimizing compiler" benchmark rows and
the quickstart's before/after numbers; Table 3/4 get the same effect
through the targets' ``opt_level`` threading.
"""

from repro.core.protocols.icmp import build_icmp_echo_request
from repro.deploy import deploy
from repro.engine import compile_design
from repro.errors import CompileError
from repro.harness.report import render_table
from repro.kiwi import compile_function
from repro.net.packet import ip_to_int
from repro.services.dns_server import dns_kernel
from repro.services.filter_l3l4 import filter_kernel
from repro.services.icmp_echo import icmp_echo_kernel
from repro.services.memcached import memcached_kernel
from repro.services.nat import nat_kernel
from repro.services.switch import switch_kernel

SERVICE_IP = ip_to_int("10.0.0.1")
CLIENT_IP = ip_to_int("10.0.0.2")
PUBLIC_IP = ip_to_int("198.51.100.1")


def _base_ipv4_udp(dport, length):
    frame = [0] * length
    frame[12], frame[13] = 0x08, 0x00            # EtherType IPv4
    frame[23] = 17                               # UDP
    frame[36], frame[37] = (dport >> 8) & 0xFF, dport & 0xFF
    return frame


def memcached_binary_frame(opcode, key, value=b""):
    """A binary-protocol request laid out for ``memcached_kernel``."""
    frame = _base_ipv4_udp(11211, 512)
    frame[50] = 0x80
    frame[51] = opcode
    frame[52], frame[53] = 0, len(key)
    frame[54] = 0                                # no extras
    for index, byte in enumerate(key):
        frame[74 + index] = byte
    for index, byte in enumerate(value):
        frame[80 + index] = byte
    return frame


def memcached_request_inputs(rng):
    """The memcached case's crafted generator: a valid binary request
    with random opcode, key and value over random table contents — so
    a differential stream exercises GET/SET/DELETE on keys the
    representative request never uses."""
    opcode = rng.choice([0, 1, 4, 9])
    key = bytes(rng.getrandbits(8) for _ in range(6))
    value = bytes(rng.getrandbits(8) for _ in range(8))
    scalars = {"my_ip": rng.getrandbits(32)}
    memories = {
        "frame": memcached_binary_frame(opcode, key, value),
        "ktags": [rng.getrandbits(48) for _ in range(256)],
        "values": [rng.getrandbits(64) for _ in range(256)],
        "kvalid": [rng.getrandbits(1) for _ in range(256)],
    }
    return scalars, memories


def _dns_query_frame():
    frame = _base_ipv4_udp(53, 512)
    for index, byte in enumerate(b"host01"):
        frame[54 + index] = byte
    return frame


def _icmp_frame():
    raw = build_icmp_echo_request(0x02_00_00_00_00_01,
                                  0x02_00_00_00_00_AA,
                                  CLIENT_IP, SERVICE_IP)
    return list(raw) + [0] * (128 - len(raw))


def _udp_outbound_frame():
    frame = _base_ipv4_udp(53, 64)
    frame[26:30] = [10, 0, 0, 2]                 # LAN source
    frame[34], frame[35] = 0x1F, 0x90            # sport 8080
    return frame


def _filter_rule_memories():
    """One installed rule — drop UDP from 10.0.0.0/8 to port 53 — that
    the probe matches on every field the chain compares."""
    return {
        "frame": _udp_outbound_frame(),
        "rule_valid": [1] + [0] * 7,
        "rule_proto": [17] + [0] * 7,
        "rule_src": [ip_to_int("10.0.0.0")] + [0] * 7,
        "rule_smask": [ip_to_int("255.0.0.0")] + [0] * 7,
        "rule_dlo": [53] + [0] * 7,
        "rule_dhi": [53] + [65535] * 7,
        "rule_accept": [0] * 8,
    }


def _switch_frame():
    frame = [0] * 64
    frame[0:6] = [0x02, 0, 0, 0, 0, 0x01]        # destination MAC
    frame[6:12] = [0x02, 0, 0, 0, 0, 0xAA]       # source MAC (learned)
    return frame


class KernelCase:
    """One kernel + its representative request, optional warmups, and
    an optional *crafted* generator (rng → ``(scalars, memories)``) of
    further valid requests — together the bases
    :func:`repro.verify.job_streams` mutates."""

    def __init__(self, name, kernel, memories, scalars=None, warmups=(),
                 crafted=None):
        self.name = name
        self.kernel = kernel
        self.memories = memories
        self.scalars = dict(scalars or {})
        self.warmups = list(warmups)
        self.crafted = crafted


_GET_KEY = b"abc123"

SERVICE_KERNELS = [
    KernelCase("switch", switch_kernel,
               {"frame": _switch_frame()},
               scalars={"src_port": 2, "dst_hit": 1, "dst_port": 3,
                        "src_hit": 1}),
    KernelCase("ICMP echo", icmp_echo_kernel,
               {"frame": _icmp_frame()},
               scalars={"my_ip": SERVICE_IP}),
    KernelCase("DNS", dns_kernel,
               {"frame": _dns_query_frame()},
               scalars={"my_ip": SERVICE_IP}),
    KernelCase("memcached GET", memcached_kernel,
               {"frame": memcached_binary_frame(0, _GET_KEY)},
               scalars={"my_ip": SERVICE_IP},
               warmups=[({"frame": memcached_binary_frame(
                   1, _GET_KEY, bytes(range(8)))},
                   {"my_ip": SERVICE_IP})],
               crafted=memcached_request_inputs),
    KernelCase("NAT outbound", nat_kernel,
               {"frame": _udp_outbound_frame()},
               scalars={"public_ip": PUBLIC_IP, "src_port": 0}),
    KernelCase("L3/L4 filter", filter_kernel, _filter_rule_memories()),
]


def measure_kernel(case, opt_level, level_budget=None):
    """(design, results, cycles) for one case at one level.

    Measured on the compiled execution engine (cycle-identical to the
    interpreted simulator by the engine's differential proof).
    *level_budget* bounds -O2 fusion and -O3 pipelining (default: the
    compiler's 48-level budget).
    """
    if level_budget is None:
        design = compile_function(case.kernel, opt_level=opt_level)
    else:
        design = compile_function(case.kernel, opt_level=opt_level,
                                  level_budget=level_budget)
    runner = compile_design(design)
    for memories, scalars in case.warmups + [(case.memories,
                                              case.scalars)]:
        results, cycles, _ = runner.run(
            memories={k: list(v) for k, v in memories.items()},
            **scalars)
    return design, results, cycles


def run_opt_comparison(opt_levels=(0, 1, 2, 3), cases=None):
    """Measure every case at every level; returns (data, rendered text).

    ``data[name][level]`` has ``states``, ``levels``, ``logic``,
    ``cycles``, ``ii`` (the -O3 initiation interval, None when the
    level does not pipeline or the schedule is infeasible) and
    ``throughput_cycles`` (the sustained interval between requests:
    the II when pipelined, cycles/request otherwise); the rendered
    table adds the cycle-reduction and II columns.
    """
    cases = SERVICE_KERNELS if cases is None else cases
    data = {}
    rows = []
    for case in cases:
        per_level = {}
        reference = None
        for level in opt_levels:
            design, results, cycles = measure_kernel(case, level)
            if reference is None:
                reference = results
            elif results != reference:
                raise CompileError(
                    "optimizer broke %r: -O%d returned %r, -O%d %r"
                    % (case.name, opt_levels[0], reference, level,
                       results))
            ii = design.timing.achieved_ii
            per_level[level] = {
                "states": design.state_count,
                "levels": design.timing.max_logic_levels,
                "logic": design.resources().logic,
                "cycles": cycles,
                "ii": ii,
                "throughput_cycles": ii if ii is not None else cycles,
            }
        data[case.name] = per_level
        base = per_level[opt_levels[0]]
        best = per_level[opt_levels[-1]]
        reduction = 1.0 - best["cycles"] / base["cycles"]
        rows.append([
            case.name,
            "%d -> %d" % (base["states"], best["states"]),
            "%d -> %d" % (base["levels"], best["levels"]),
            "%d -> %d" % (base["logic"], best["logic"]),
            "%d -> %d" % (base["cycles"], best["cycles"]),
            "%.0f%%" % (100.0 * reduction),
            "-" if best["ii"] is None else "%d" % best["ii"],
            "%d" % best["throughput_cycles"],
        ])
    text = render_table(
        ["Service kernel", "FSM states", "Logic levels",
         "Logic (LUT-eq)", "Cycles/request", "Cycle reduction",
         "II", "Interval"],
        rows,
        title="Optimizing compiler: -O%d vs -O%d per service kernel"
              % (opt_levels[0], opt_levels[-1]))
    return data, text


def deployable_kernel_services():
    """Registry services with a flat kernel (the ones ``with_opt``
    switches to compiled-kernel cycle counting)."""
    from repro.services.catalog import registry
    return tuple(sorted(name for name, spec in registry().items()
                        if spec.has_kernel))


def run_deployment_comparison(count=200, seed=9, opt_levels=(0, 2)):
    """The same comparison end-to-end through the Deployment API.

    :func:`run_opt_comparison` measures kernels on the bare simulator;
    this deploys each kernel-backed registry service on the fpga
    backend at each level and reads cycles/latency off the uniform
    metrics — proving the opt threading works through the whole spine,
    not just the compiler.  Returns ``(data, text)`` where
    ``data[name][level]`` has ``cycles`` and ``avg_us``.
    """
    from repro.services.catalog import registry
    specs = registry()
    data = {}
    rows = []
    for name in deployable_kernel_services():
        spec = specs[name]
        # The memcached kernel implements the binary datapath; measure
        # the path it compiles, not the ASCII early-reject.
        options = {"protocol": "binary"} if name == "memcached" else {}
        per_level = {}
        for level in opt_levels:
            dep = deploy(spec).on("fpga").with_seed(seed) \
                .with_opt(level).start()
            dep.run(count=count, seed=seed, **options)
            per_level[level] = {
                "cycles": dep.metrics.average_core_cycles(),
                "avg_us": dep.metrics.average_latency_us(),
            }
        data[name] = per_level
        base = per_level[opt_levels[0]]
        best = per_level[opt_levels[-1]]
        rows.append([
            name,
            "%.1f -> %.1f" % (base["cycles"], best["cycles"]),
            "%.3f -> %.3f" % (base["avg_us"], best["avg_us"]),
        ])
    text = render_table(
        ["Service", "Avg cycles/request", "Avg latency (us)"],
        rows,
        title="Deployment API: fpga backend at -O%d vs -O%d"
              % (opt_levels[0], opt_levels[-1]))
    return data, text
