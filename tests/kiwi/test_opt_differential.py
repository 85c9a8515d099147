"""Differential property tests for the optimizing middle-end.

Properties (seeded per tests/README.md conventions; the legs and
streams are :mod:`repro.verify`'s):

* for every service kernel and for *generated* kernels
  (``strategies.kernels``), the ``-O2`` interpreter returns the same
  results and final memory contents as ``-O0`` — on the kernel's
  representative request mutated, cold and warm, not on noise that
  stops at the ethertype check;
* optimized designs still emit Verilog via ``emit_verilog`` without
  error;
* the acceptance bar: the memcached GET path loses >= 10% of its
  simulated cycles at ``-O2``.
"""

from hypothesis import given, settings

import strategies
from repro.harness.optimization import SERVICE_KERNELS, measure_kernel
from repro.kiwi import compile_function
from repro.verify import Interpreter, check, job_streams

SEED = "kiwi-opt-differential-1"

MEMCACHED = next(case for case in SERVICE_KERNELS
                 if case.name == "memcached GET")


def _levels(subject, level, jobs, seed=SEED):
    """``-Olevel`` against ``-O0``, both interpreted; returns
    ``(report, fraction of simulated cycles the optimizer removed)``."""
    report = check(subject, [Interpreter(0), Interpreter(level)],
                   job_streams(subject, jobs, seed))
    return report, 1.0 - (report.legs["interpreter -O%d" % level]["cycles"]
                          / report.legs["interpreter -O0"]["cycles"])


# -- fixed kernels ---------------------------------------------------------

def gcd(a: "u16", b: "u16") -> "u16":
    while b != 0:
        pause()
        if a >= b:
            a = a - b
        else:
            t = a
            a = b
            b = t + 0
    return a


def sum_buf(buf: "mem[16]x8", n: "u8") -> "u16":
    total = 0
    i = 0
    while i < n:
        total = total + buf[i]
        i = i + 1
        pause()
    return bits(total, 16)


SERVICE_KERNEL_FNS = [case.kernel for case in SERVICE_KERNELS]


class TestServiceKernelEquivalence:
    def test_loop_kernels_equivalent_at_o2(self):
        for kernel in (gcd, sum_buf):
            report, _ = _levels(kernel, 2, 8)
            assert report.ok, report

    def test_service_kernels_equivalent_at_o2(self):
        for case in SERVICE_KERNELS:
            report, _ = _levels(case, 2, 6)
            assert report.ok, report

    def test_service_kernels_equivalent_at_o1(self):
        for case in SERVICE_KERNELS:
            report, reduction = _levels(case, 1, 4)
            assert report.ok, report
            assert reduction == 0.0             # -O1 is cycle-neutral

    def test_memcached_crafted_requests_equivalent(self):
        """Valid binary requests (not just noise) through both designs."""
        report, reduction = _levels(MEMCACHED, 2, 12)
        assert report.ok, report
        assert reduction > 0.1

    def test_verify_inputs_reaches_deep_paths(self):
        """The stream a check draws for the case proves the real
        request path — most of its jobs run far past the 3-cycle
        ethertype reject — and the report shows the cycle win."""
        report, reduction = _levels(MEMCACHED, 2, 12,
                                    seed="%s/deep" % SEED)
        assert report.ok, report
        assert report.legs["interpreter -O0"]["cycles"] > 6 * report.runs
        assert reduction > 0.1

    def test_optimized_verilog_still_emits(self):
        for kernel in SERVICE_KERNEL_FNS:
            for level in (1, 2):
                text = compile_function(kernel, opt_level=level).verilog()
                assert text.startswith("module ")
                assert "endmodule" in text


# -- generated kernels ------------------------------------------------------

@settings(strategies.SETTINGS, max_examples=8)
@given(kernel=strategies.kernels())
def test_random_kernels_equivalent_at_o2(kernel):
    """Property: for generated kernels on dictionary noise, -O2 == -O0
    and the optimized Verilog emits cleanly.  A failure shrinks to a
    minimal kernel (tests/test_verify.py asserts how small)."""
    report, _ = _levels(kernel, 2, 5)
    assert report.ok, report
    assert "endmodule" in compile_function(kernel, opt_level=2).verilog()


# -- the acceptance bar ----------------------------------------------------

class TestAcceptance:
    def test_memcached_get_at_least_ten_percent_faster(self):
        """>= 10% fewer simulated cycles per GET at -O2, same results."""
        case = next(c for c in SERVICE_KERNELS
                    if c.name == "memcached GET")
        _, results_o0, cycles_o0 = measure_kernel(case, 0)
        _, results_o2, cycles_o2 = measure_kernel(case, 2)
        assert results_o0 == results_o2
        assert cycles_o2 <= 0.9 * cycles_o0, \
            "expected >=10%% reduction, got %d -> %d" % (cycles_o0,
                                                         cycles_o2)

    def test_every_service_kernel_no_slower_at_o2(self):
        for case in SERVICE_KERNELS:
            _, results_o0, cycles_o0 = measure_kernel(case, 0)
            _, results_o2, cycles_o2 = measure_kernel(case, 2)
            assert results_o0 == results_o2, case.name
            assert cycles_o2 <= cycles_o0, case.name

    def test_fpga_target_opt_level_threads_through(self):
        """The Table 3/4 plumbing: compiled-kernel cycle model per level."""
        from repro.net.packet import ip_to_int
        from repro.net.workloads import memaslap_mix
        from repro.services import MemcachedService
        from repro.targets import FpgaTarget
        service_ip = ip_to_int("10.0.0.1")
        client_ip = ip_to_int("10.0.0.2")
        averages = {}
        for level in (0, 2):
            target = FpgaTarget(
                MemcachedService(my_ip=service_ip,
                                 profile="paper-initial"),
                seed=7, opt_level=level)
            for frame in memaslap_mix(service_ip, client_ip, count=30,
                                      seed=7, protocol="binary"):
                target.send(frame)
            model = target.pipeline.cycle_model
            averages[level] = model.total_cycles / model.requests
        assert averages[2] <= 0.9 * averages[0]
